(* durable-write: Durable with group commit at its default
   {max_batch = 8; max_delay = 16} on a chain-3 hierarchy with 2^10 keys
   per segment, loaded in set-up (not more: every wall release GC-scans
   every chain, see README.md).  Sixteen clients on one thread, each
   waiting for its durable acknowledgement before its next update (four
   root-segment writes and one Protocol A read); a checkpoint every
   [ckpt_every] commits; after the loop, one more checkpoint and half an
   interval of commits, so recovery always replays a tail of the same
   length.  Its time goes to WAL append, commit batching, checkpoints and
   recovery.

   The log lives inside the benchmark's output directory, written
   through the production file sink with fsync(2) turned into a plain
   flush: the disk under a checkout is shared and its fsync latency
   swings by 3x between identical runs.  Every group-commit round still
   runs and is counted, and the per-commit fsync count repeats exactly;
   it stands in for the device's cost. *)

module D = Hdd_storage.Durable
module GC = Hdd_storage.Group_commit
module Ck = Hdd_storage.Checkpoint
module S = Hdd_core.Scheduler
module O = Hdd_core.Outcome
module Store = Hdd_mvstore.Store
module E = Hdd_runtime.Engine

let clients_n = 16
let ckpt_every = 10_000
let warmup_commits = 20_000

type client = {
  mutable waiting : bool;
  mutable ticket : D.ticket;
  mutable t_begin : int;
  mutable t_ticket : int;
}

type ctx = {
  d : D.t;
  g : GC.t;
  dir : string;
  path : string;
  pool : E.desc array;
  mutable next : int;
  clients : client array;
  sp : Spans.t;
  lat : Meter.samples;
  ack_wait : Meter.samples;
  ckpt_ns : Meter.samples;
  mutable ckpt_max : int;
  mutable last_ckpt : Ck.meta option;
  mutable acked : int;  (** acknowledgements seen by the loop *)
  mutable submitted : int;  (** commit tickets issued, load included *)
  mutable since_ckpt : int;
  mutable fsyncs_seen : int;
  mutable failed : int;
  mutable sink : int;
}

let span_names =
  [ "durable.begin"; "durable.write"; "scheduler.read_a"; "durable.commit";
    "group_commit.flush"; "durable.acked"; "checkpoint.cut"; "durable.abort" ]
  @ Common.probe_spans

let s_begin = 0 and s_write = 1 and s_read_a = 2 and s_commit = 3
and s_flush = 4 and s_acked = 5 and s_ckpt = 6 and s_abort = 7 and s_probe = 8

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Stamp every waiting client whose ticket a completed fsync round
   covers. *)
let stamp_acks x =
  let now = Meter.now () in
  Array.iter
    (fun c ->
      if c.waiting then begin
        Spans.enter x.sp s_acked 0;
        let ok = D.acked x.d c.ticket in
        Spans.leave x.sp;
        if ok then begin
          c.waiting <- false;
          Meter.add x.lat (now - c.t_begin);
          Meter.add x.ack_wait (now - c.t_ticket);
          x.acked <- x.acked + 1
        end
      end)
    x.clients

(* Close a span, filing it under [group_commit.flush] when an fsync round
   ran inside the call, and deliver the acknowledgements it produced. *)
let leave x =
  let f = GC.fsyncs x.g in
  if f <> x.fsyncs_seen then begin
    Spans.leave_as x.sp s_flush;
    x.fsyncs_seen <- f;
    stamp_acks x
  end
  else Spans.leave x.sp

(* Run one update to its commit ticket; false when concurrency control
   refused an operation (the transaction is then aborted). *)
let rec ops x txn = function
  | [] -> true
  | E.Read g :: rest -> (
    if x.sp.Spans.enabled then
      Common.probe x.sp ~first:s_probe (D.scheduler x.d) (D.store x.d) txn g;
    Spans.enter x.sp s_read_a txn.Txn.id;
    let o = D.read x.d txn g in
    leave x;
    match o with
    | O.Granted v ->
      x.sink <- x.sink + v;
      ops x txn rest
    | O.Blocked _ | O.Rejected _ -> false)
  | E.Write (g, v) :: rest -> (
    Spans.enter x.sp s_write txn.Txn.id;
    let o = D.write x.d txn g v in
    leave x;
    match o with
    | O.Granted () -> ops x txn rest
    | O.Blocked _ | O.Rejected _ -> false)

let rec submit x c (d : E.desc) =
  let cls = match d.E.d_kind with `Update k -> k | `Read_only -> 0 in
  Spans.enter x.sp s_begin 0;
  let txn = D.begin_update x.d ~class_id:cls in
  leave x;
  if ops x txn d.E.d_ops then begin
    Spans.enter x.sp s_commit txn.Txn.id;
    let tk = D.commit_ticket x.d txn in
    c.ticket <- tk;
    c.t_ticket <- Meter.now ();
    c.waiting <- true;
    x.submitted <- x.submitted + 1;
    x.since_ckpt <- x.since_ckpt + 1;
    leave x
  end
  else begin
    Spans.enter x.sp s_abort txn.Txn.id;
    D.abort x.d txn;
    leave x;
    x.failed <- x.failed + 1;
    submit x c d
  end

let checkpoint x =
  Spans.enter x.sp s_ckpt 0;
  let t0 = Meter.now () in
  let m = D.checkpoint x.d in
  let ns = Meter.now () - t0 in
  Spans.leave x.sp;
  x.fsyncs_seen <- GC.fsyncs x.g;
  stamp_acks x;
  Meter.add x.ckpt_ns ns;
  x.ckpt_max <- Int.max x.ckpt_max ns;
  x.last_ckpt <- Some m;
  x.since_ckpt <- 0

(* Round-robin: a free client starts its next update; waiting clients
   are released by [stamp_acks] as fsync rounds complete. *)
let run_until x stop =
  let n = Array.length x.clients in
  let i = ref 0 in
  while not (stop x) do
    let started = ref false in
    for _ = 1 to n do
      let c = x.clients.(!i) in
      if not c.waiting then begin
        c.t_begin <- Meter.now ();
        let d = x.pool.(x.next) in
        x.next <- (x.next + 1) land (Array.length x.pool - 1);
        submit x c d;
        Spans.maybe_fold x.sp;
        started := true
      end;
      i := if !i + 1 = n then 0 else !i + 1
    done;
    if x.since_ckpt >= ckpt_every then checkpoint x;
    if not !started then begin
      D.sync x.d;
      x.fsyncs_seen <- GC.fsyncs x.g;
      stamp_acks x
    end;
    Spans.maybe_fold x.sp
  done

let make ~traced ~root pool i =
  let dir = Filename.concat root (Printf.sprintf "setup-%d" i) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "hdd.wal" in
  let sink = Hdd_storage.Fault.file_sink ~fsync:false ~path () in
  let d =
    D.create ~sink ~group:GC.default ~path ~partition:(Gen.durable_partition ()) ()
  in
  let g = Option.get (D.group d) in
  let clients =
    Array.init clients_n (fun _ ->
        { waiting = false; ticket = D.Readonly; t_begin = 0; t_ticket = 0 })
  in
  { d; g; dir; path; pool; next = 0; clients;
    sp = Spans.create ~enabled:traced span_names;
    lat = Meter.samples (); ack_wait = Meter.samples ();
    ckpt_ns = Meter.samples ~cap:4096 (); ckpt_max = 0; last_ckpt = None;
    acked = 0; submitted = 0; since_ckpt = 0; fsyncs_seen = 0; failed = 0;
    sink = 0 }

(* Set-up: open the log, load every key, then run until walls release
   and a checkpoint has been cut. *)
let setup ~traced ~root pool load i =
  let x = make ~traced ~root pool i in
  Common.lap ();
  let c = x.clients.(0) in
  List.iter
    (fun d ->
      submit x c d;
      c.waiting <- false;
      Spans.maybe_fold x.sp;
      Common.lap ())
    load;
  D.sync x.d;
  x.fsyncs_seen <- GC.fsyncs x.g;
  for k = 1 to warmup_commits / 250 do
    run_until x (fun x -> x.acked >= k * 250);
    Common.lap ()
  done;
  checkpoint x;
  x

(* The whole run but the log root's removal. *)
let measure (o : Common.opts) r ~root =
  let pool = Gen.durable_pool ~seed:o.seed in
  let load = Gen.durable_load () in
  Report.note r "log_dir" root;
  Report.note r "log_fsync" "off: sink sync is a flush; fsync rounds are counted";
  let x, setups =
    Common.setups r ~n:6
      ~dispose:(fun x ->
        D.close x.d;
        rm_rf x.dir)
      (fun i -> setup ~traced:o.traced ~root pool load i)
  in
  Spans.reset x.sp;
  Meter.reset x.lat;
  Meter.reset x.ack_wait;
  Meter.reset x.ckpt_ns;
  x.ckpt_max <- 0;
  let a0 = x.acked and s0 = x.submitted and f0 = GC.fsyncs x.g in
  let bytes0 = D.log_offset x.d in
  let p = Common.start_phase ~unit:200 ~rss_at:300_000 ~seconds:o.seconds setups in
  run_until x (fun x ->
      let now = Meter.now () in
      Common.window p ~now ~commits:(x.acked - a0);
      Common.over p ~now);
  let commits = x.acked - a0 in
  let wall_ns = Common.finish_phase r p x.sp ~commits ~reading:Fast_windows in
  r.Report.attempted <- x.submitted - s0 + x.failed;
  r.Report.failed <- x.failed;
  Report.metric r "abort_frac"
    (float_of_int x.failed /. float_of_int (Int.max 1 r.Report.attempted))
    "ratio";
  Report.latency r "update" x.lat;
  Common.per r "group_commit.fsyncs_per_commit" (GC.fsyncs x.g - f0) commits "count";
  Common.per r "wal.bytes_per_commit" (D.log_offset x.d - bytes0) (x.submitted - s0)
    "B";
  let ack_sorted = Meter.sorted x.ack_wait in
  Option.iter
    (fun v -> Report.metric r "group_commit.ack_wait_us" (float_of_int v /. 1e3) "us")
    (Meter.percentile ack_sorted 0.5);
  let ck = Meter.sorted x.ckpt_ns in
  Report.metric r "checkpoint.count" (float_of_int (Meter.count x.ckpt_ns)) "count";
  if Array.length ck > 0 then begin
    Report.metric r "checkpoint.ns" (float_of_int ck.(Array.length ck / 2)) "ns";
    Report.metric r "checkpoint.max_ns" (float_of_int x.ckpt_max) "ns"
  end;
  Option.iter
    (fun m -> Report.metric r "checkpoint.bytes" (float_of_int m.Ck.bytes) "B")
    x.last_ckpt;
  Common.per r "store.versions_per_key" (Store.version_count (D.store x.d))
    (Gen.durable_segments * Gen.durable_keys) "count";
  Report.metric r "store.max_chain_length"
    (float_of_int (Store.max_chain_length (D.store x.d))) "count";
  if o.traced then
    ignore
      (Common.span_metrics r x.sp ~workload:"durable-write" ~out_dir:o.out_dir
         ~wall_ns ~commits);
  (* a log tail of fixed length for recovery to replay: cut a checkpoint,
     run half an interval more, then drain every issued ticket *)
  checkpoint x;
  run_until x (fun x -> x.since_ckpt >= ckpt_every / 2);
  D.sync x.d;
  x.fsyncs_seen <- GC.fsyncs x.g;
  stamp_acks x;
  let live = D.store x.d in
  let wall = S.gc_watermark_vector (D.scheduler x.d) in
  D.close x.d;
  let segments = Gen.durable_segments and init _ = 0 in
  let times = ref [] and recovered = ref None in
  for _ = 1 to 3 do
    recovered := None;
    let t0 = Meter.now () in
    let rc = D.recover ~path:x.path ~segments ~init () in
    let d2 = D.of_recovery ~path:x.path ~partition:(Gen.durable_partition ()) rc in
    times := (float_of_int (Meter.now () - t0) /. 1e9) :: !times;
    D.close d2;
    recovered := Some rc
  done;
  let rc = Option.get !recovered in
  Report.metric r "recover_s" (Meter.median_float !times) "s";
  Option.iter
    (fun m ->
      Report.metric r "recover.tail_bytes"
        (float_of_int (rc.D.valid_bytes - m.Ck.log_offset))
        "B")
    rc.D.from_checkpoint;
  let waiting = Array.exists (fun c -> c.waiting) x.clients in
  Report.check r "durable-write: every ticket acknowledged" (not waiting)
    (Printf.sprintf "%d tickets issued" x.submitted);
  Report.check r "durable-write: recovered commits = acknowledged commits"
    (rc.D.committed = x.submitted && rc.D.log_intact)
    (Printf.sprintf "recovered %d, acknowledged %d, log intact %b" rc.D.committed
       x.submitted rc.D.log_intact);
  let same =
    Store.trim_dump ~wall (Store.dump live) = Store.trim_dump ~wall (Store.dump rc.D.store)
  in
  Report.check r "durable-write: recovered store = live committed store" same
    "both dumps cut at the live watermark vector";
  Report.check r "durable-write: no concurrency-control aborts" (x.failed = 0)
    (Printf.sprintf "%d aborts" x.failed);
  rm_rf x.dir;
  Common.finish_setups setups

let run (o : Common.opts) r =
  let root = Filename.concat o.out_dir "durable-write" in
  if not (Sys.file_exists root) then Unix.mkdir root 0o755;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> measure o r ~root)

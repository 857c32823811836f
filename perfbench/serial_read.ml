(* serial-read: the serial Scheduler over Store on a depth-8 chain, six
   interleaved clients on one thread.  Mostly Protocol A updates, some
   Protocol B read-modify-writes, a quarter Protocol C scans, 256 keys
   per segment.  Its time goes to activity-link composition, registry
   queries, wall release and wall-driven GC. *)

module S = Hdd_core.Scheduler
module O = Hdd_core.Outcome
module Store = Hdd_mvstore.Store
module E = Hdd_runtime.Engine

let span_names =
  [ "scheduler.begin"; "scheduler.read_a"; "scheduler.read_b";
    "scheduler.read_c"; "scheduler.write"; "scheduler.commit";
    "scheduler.abort" ]
  @ Common.probe_spans

let s_begin = 0 and s_read_a = 1 and s_read_b = 2 and s_read_c = 3
and s_write = 4 and s_commit = 5 and s_abort = 6 and s_probe = 7

(* A client's templates compiled for the loop into flat arrays with one
   cell per operation — its protocol (span id), granule and written
   value — so a step reads the next cell instead of chasing a template's
   list.  Template [j] is operations [starts.(j)] to [starts.(j+1) - 1],
   of root class [cls.(j)] (-1 for read-only). *)
type pool = {
  cls : int array;
  starts : int array;
  kinds : int array;
  grans : Granule.t array;
  vals : int array;
}

let compile (ds : E.desc array) =
  let cls =
    Array.map (fun d -> match d.E.d_kind with `Update k -> k | `Read_only -> -1) ds
  in
  let ops = Array.map (fun d -> Array.of_list d.E.d_ops) ds in
  let kind c = function
    | E.Write _ -> s_write
    | E.Read _ when c < 0 -> s_read_c
    | E.Read g when g.Granule.segment = c -> s_read_b
    | E.Read _ -> s_read_a
  in
  let starts = Array.make (Array.length ds + 1) 0 in
  Array.iteri (fun j o -> starts.(j + 1) <- starts.(j) + Array.length o) ops;
  { cls; starts;
    kinds = Array.concat (Array.to_list (Array.mapi (fun j o -> Array.map (kind cls.(j)) o) ops));
    grans =
      Array.concat
        (Array.to_list (Array.map (Array.map (function E.Read g | E.Write (g, _) -> g)) ops));
    vals =
      Array.concat
        (Array.to_list
           (Array.map (Array.map (function E.Write (_, v) -> v | E.Read _ -> 0)) ops)) }

type client = {
  pool : pool;
  mutable next : int;  (** the template to run next *)
  mutable cls : int;  (** the running template's class *)
  mutable first : int;  (** its first operation, where a restart resumes *)
  mutable op : int;
  mutable last : int;  (** one past its last operation *)
  mutable txn : Txn.t;
  mutable active : bool;
  mutable t_begin : int;
}

type ctx = {
  sched : int S.t;
  store : int Store.t;
  clients : client array;
  sp : Spans.t;
  upd_lat : Meter.samples;
  ro_lat : Meter.samples;
  mutable commits : int;
  mutable attempts : int;
  mutable failed : int;
  mutable sink : int;
}

let make ?log ~traced pools =
  let partition = Gen.serial_partition () in
  let store = Store.create ~segments:Gen.serial_depth ~init:Gen.init in
  let sched = S.create ?log ~partition ~clock:(Time.Clock.create ()) ~store () in
  { sched; store;
    clients =
      Array.map
        (fun pool ->
          { pool; next = 0; cls = -1; first = 0; op = 0; last = 0;
            txn = Txn.bootstrap; active = false; t_begin = 0 })
        pools;
    sp = Spans.create ~enabled:traced span_names;
    upd_lat = Meter.samples (); ro_lat = Meter.samples ();
    commits = 0; attempts = 0; failed = 0; sink = 0 }

let begin_txn x c =
  x.attempts <- x.attempts + 1;
  c.op <- c.first;
  let cls = c.cls in
  Spans.enter x.sp s_begin 0;
  c.txn <-
    (if cls < 0 then S.begin_read_only x.sched
     else S.begin_update x.sched ~class_id:cls);
  Spans.leave x.sp;
  c.active <- true

(* A concurrency-control refusal: abort and restart the same template.
   Latency keeps counting from the first attempt's begin. *)
let restart x c =
  Spans.enter x.sp s_abort c.txn.Txn.id;
  S.abort x.sched c.txn;
  Spans.leave x.sp;
  x.failed <- x.failed + 1;
  begin_txn x c

let step x c =
  if not c.active then begin
    let p = c.pool and j = c.next in
    c.next <- (j + 1) land (Array.length p.cls - 1);
    c.cls <- p.cls.(j);
    c.first <- p.starts.(j);
    c.last <- p.starts.(j + 1);
    if not x.sp.Spans.enabled then c.t_begin <- Meter.now ();
    begin_txn x c
  end
  else begin
    let p = c.pool and i = c.op in
    if i < c.last then begin
      let kind = p.kinds.(i) and g = p.grans.(i) in
      if kind = s_write then begin
        Spans.enter x.sp s_write c.txn.Txn.id;
        let o = S.write x.sched c.txn g p.vals.(i) in
        Spans.leave x.sp;
        match o with
        | O.Granted () -> c.op <- i + 1
        | O.Blocked _ | O.Rejected _ -> restart x c
      end
      else begin
        if kind = s_read_a && x.sp.Spans.enabled then
          Common.probe x.sp ~first:s_probe x.sched x.store c.txn g;
        Spans.enter x.sp kind c.txn.Txn.id;
        let o = S.read x.sched c.txn g in
        Spans.leave x.sp;
        match o with
        | O.Granted v ->
          x.sink <- x.sink + v;
          c.op <- i + 1
        | O.Blocked _ | O.Rejected _ -> restart x c
      end
    end
    else begin
      Spans.enter x.sp s_commit c.txn.Txn.id;
      S.commit x.sched c.txn;
      Spans.leave x.sp;
      (* latencies are the untraced run's; the traced run keeps only spans *)
      if not x.sp.Spans.enabled then
        Meter.add (if c.cls < 0 then x.ro_lat else x.upd_lat) (Meter.now () - c.t_begin);
      x.commits <- x.commits + 1;
      c.active <- false;
      Spans.maybe_fold x.sp
    end
  end

(* Round-robin over the clients, one scheduler call per step. *)
let run_until x stop =
  let n = Array.length x.clients in
  let i = ref 0 in
  while not (stop x) do
    for _ = 1 to 64 do
      step x x.clients.(!i);
      i := if !i + 1 = n then 0 else !i + 1
    done
  done

let warmup_commits = 30_000
let check_commits = 3_000

let run (o : Common.opts) r =
  let pools = Array.map compile (Gen.serial_pools ~seed:o.seed) in
  let x, setups =
    Common.setups r ~n:6 (fun _ ->
        let x = make ~traced:o.traced pools in
        Common.lap ();
        for k = 1 to warmup_commits / 250 do
          run_until x (fun x -> x.commits >= k * 250);
          Common.lap ()
        done;
        x)
  in
  Spans.reset x.sp;
  Meter.reset x.upd_lat;
  Meter.reset x.ro_lat;
  (* a copy: the scheduler updates its metrics record in place *)
  let m0 = { (S.metrics x.sched) with S.begins = (S.metrics x.sched).S.begins } in
  let walls0 = Hdd_core.Timewall.release_count (S.wall_manager x.sched) in
  let c0 = x.commits and a0 = x.attempts and f0 = x.failed in
  let p = Common.start_phase ~unit:600 ~rss_at:1_000_000 ~seconds:o.seconds setups in
  run_until x (fun x ->
      let now = Meter.now () in
      Common.window p ~now ~commits:(x.commits - c0);
      Common.over p ~now);
  let commits = x.commits - c0 in
  let wall_ns = Common.finish_phase r p x.sp ~commits ~reading:Fast_windows in
  r.Report.attempted <- x.attempts - a0;
  r.Report.failed <- x.failed - f0;
  Report.metric r "abort_frac"
    (float_of_int r.Report.failed /. float_of_int (Int.max 1 r.Report.attempted))
    "ratio";
  Report.latency r "update" x.upd_lat;
  Report.latency r "readonly" x.ro_lat;
  (* per-layer counters of the measured phase *)
  let m = S.metrics x.sched in
  let upd_attempts = m.S.begins - m0.S.begins in
  Common.per r "scheduler.read_registrations_per_commit"
    (m.S.read_registrations - m0.S.read_registrations) commits "count";
  Common.per r "scheduler.blocks_per_kattempt" (1000 * (m.S.blocks - m0.S.blocks))
    upd_attempts "count";
  Common.per r "scheduler.rejects_per_kattempt"
    (1000 * (m.S.rejects - m0.S.rejects)) upd_attempts "count";
  Common.per r "timewall.releases_per_kcommit"
    (1000 * (Hdd_core.Timewall.release_count (S.wall_manager x.sched) - walls0))
    commits "count";
  Common.per r "store.versions_per_key" (Store.version_count x.store)
    (Gen.serial_depth * Gen.serial_keys) "count";
  Report.metric r "store.max_chain_length"
    (float_of_int (Store.max_chain_length x.store)) "count";
  let reg = S.registry x.sched in
  Report.metric r "registry.windows"
    (float_of_int
       (List.fold_left
          (fun a c -> a + Registry.window_count reg ~class_id:c)
          0 (List.init Gen.serial_depth Fun.id)))
    "count";
  if o.traced then begin
    let sums =
      Common.span_metrics r x.sp ~workload:"serial-read" ~out_dir:o.out_dir
        ~wall_ns ~commits
    in
    List.iter
      (fun (s : Spans.summary) ->
        if s.Spans.s_name = "scheduler.commit" then
          Option.iter
            (fun v -> Report.metric r "scheduler.commit_p99_ns" (float_of_int v) "ns")
            s.Spans.s_p99_ns)
      sums
  end;
  (* correctness: a fixed, untimed prefix certified serializable *)
  let log = Sched_log.create () in
  let c = make ~log ~traced:false pools in
  run_until c (fun c -> c.commits >= check_commits);
  Array.iter (fun cl -> if cl.active then S.abort c.sched cl.txn) c.clients;
  Report.check r "serial-read: prefix certified serializable"
    (Hdd_core.Certifier.serializable log)
    (Printf.sprintf "%d commits, %d schedule steps" c.commits (Sched_log.length log));
  Report.check r "serial-read: every attempt committed"
    (r.Report.failed = 0 && c.failed = 0)
    (Printf.sprintf "%d concurrency-control aborts" r.Report.failed);
  Common.finish_setups setups

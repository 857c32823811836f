module Retry = Hdd_sim.Retry
module Metrics = Hdd_obs.Metrics
module Trace = Hdd_obs.Trace
module Prng = Hdd_util.Prng

type config = { max_batch : int; max_delay : int }

let default = { max_batch = 8; max_delay = 16 }

type ticket = int

type entry = { ticket : ticket; txn : Txn.id; at : Time.t; record : Codec.record }

type t = {
  wal : Wal.t;
  config : config;
  faults : Fault.plan option;
  retry : Retry.policy;
  rng : Prng.t;
  rmon : Retry.monitor;
  trace : Trace.t option;
  offset_of : unit -> int;
  mutable buf : entry list;  (** newest first *)
  mutable unsynced : entry list;  (** appended, awaiting fsync; newest first *)
  mutable submitted : int;
  mutable acked_upto : ticket;
  mutable age : int;  (** ticks since the oldest unflushed submission *)
  mutable batches : int;  (** append phases run *)
  mutable sync_rounds : int;  (** fsync attempts started (the point index) *)
  mutable fsyncs : int;  (** fsyncs that succeeded *)
  mutable sync_failures : int;
  mutable synced_offset : int;  (** log offset covered by the last fsync *)
  ack_offsets : (ticket, int) Hashtbl.t option;  (** only with [offset_of] *)
  (* metric refs, resolved once *)
  m_fsyncs : Metrics.counter option;
  m_retries : Metrics.counter option;
  m_giveups : Metrics.counter option;
  m_batch_hist : Metrics.histogram option;
  m_livelocked : Metrics.gauge option;
}

let create ?faults ?(retry = Retry.default) ?(rng = Prng.create 0x6702)
    ?metrics ?trace ?offset_of ~config wal =
  if config.max_batch < 1 then invalid_arg "Group_commit: max_batch must be >= 1";
  if config.max_delay < 0 then invalid_arg "Group_commit: max_delay must be >= 0";
  let m f = Option.map f metrics in
  { wal; config; faults; retry; rng; rmon = Retry.monitor retry; trace;
    offset_of = Option.value offset_of ~default:(fun () -> 0); buf = [];
    unsynced = []; submitted = 0; acked_upto = 0; age = 0; batches = 0;
    sync_rounds = 0; fsyncs = 0; sync_failures = 0; synced_offset = 0;
    ack_offsets = Option.map (fun _ -> Hashtbl.create 64) offset_of;
    m_fsyncs = m (fun t -> Metrics.counter t "durable.fsyncs");
    m_retries = m (fun t -> Metrics.counter t "durable.fsync_retries");
    m_giveups = m (fun t -> Metrics.counter t "durable.fsync_giveups");
    m_batch_hist = m (fun t -> Metrics.histogram t "durable.batch_size");
    m_livelocked = m (fun t -> Metrics.gauge t "durable.fsync_livelocked") }

let cross t pt = match t.faults with Some p -> Fault.cross p pt | None -> ()

let count f = function Some c -> f c | None -> ()

let acked t k = k > 0 && k <= t.acked_upto
let ack_offset t k =
  match t.ack_offsets with
  | Some h when acked t k -> Hashtbl.find_opt h k
  | _ -> None
let queued t = List.length t.buf
let fsyncs t = t.fsyncs
let sync_failures t = t.sync_failures
let synced_offset t = t.synced_offset
let livelocked t = Retry.livelocked t.rmon

(* Append the buffered commit frames (oldest first), each crossing its
   Batch_append point.  A transient append error stops the batch: the
   failed entry and everything younger stay buffered for the next round.
   Appending a younger frame past the hole would let the next fsync ack
   it, and acks are a watermark ([acked_upto]) — the older, unlogged
   ticket would be acked with it. *)
let append_buffered t =
  match t.buf with
  | [] -> ()
  | buf ->
    t.batches <- t.batches + 1;
    let batch = t.batches in
    (match t.trace with
    | Some tr -> Trace.emit_here tr (Trace.Sim { label = "durable.batch"; txn = batch })
    | None -> ());
    let entries = List.rev buf in
    let n = List.length entries in
    count (fun h -> Metrics.observe h (float_of_int n)) t.m_batch_hist;
    let rec go frame = function
      | [] -> t.buf <- []
      | e :: younger -> (
        match
          cross t (Fault.Batch_append { batch; frame });
          Wal.append t.wal e.record
        with
        | () ->
          Option.iter
            (fun h -> Hashtbl.replace h e.ticket (t.offset_of ()))
            t.ack_offsets;
          t.unsynced <- e :: t.unsynced;
          go (frame + 1) younger
        | exception Fault.Io_error _ -> t.buf <- List.rev (e :: younger)
        | exception ex ->
          t.buf <- List.rev (e :: younger);
          raise ex)
    in
    go 0 entries

(* Acks ride behind the fsync.  A transient fault at the ack point only
   delays delivery: the entries stay queued and the next successful
   round re-delivers them — durability is a fact about the file, the
   ack merely reports it. *)
let deliver_acks t round =
  cross t (Fault.Batch_ack round);
  List.iter
    (fun e ->
      if e.ticket > t.acked_upto then t.acked_upto <- e.ticket;
      match t.trace with
      | Some tr ->
        Trace.emit tr ~at:e.at (Trace.Durable_ack { txn = e.txn; at = e.at })
      | None -> ())
    (List.rev t.unsynced);
  t.unsynced <- []

(* One fsync round over everything appended so far, with jittered
   exponential backoff on transient failures.  A successful fsync covers
   the whole file, so it acks every appended-but-unacked entry —
   including survivors of earlier failed rounds. *)
let sync_round t =
  t.sync_rounds <- t.sync_rounds + 1;
  let round = t.sync_rounds in
  let result =
    Retry.run t.retry t.rng ~monitor:t.rmon
      ~on_backoff:(fun ~attempt:_ ~delay:_ ->
        t.sync_failures <- t.sync_failures + 1;
        count Metrics.incr t.m_retries)
      ~transient:(function Fault.Io_error _ -> true | _ -> false)
      (fun () ->
        cross t (Fault.Batch_fsync round);
        Wal.sync t.wal)
  in
  count (fun g -> Metrics.set g (if livelocked t then 1. else 0.)) t.m_livelocked;
  match result with
  | Ok () ->
    t.fsyncs <- t.fsyncs + 1;
    t.synced_offset <- t.offset_of ();
    count Metrics.incr t.m_fsyncs;
    (match t.trace with
    | Some tr ->
      Trace.emit_here tr (Trace.Sim { label = "durable.fsync"; txn = round })
    | None -> ());
    (try deliver_acks t round with Fault.Io_error _ -> ())
  | Error _ ->
    t.sync_failures <- t.sync_failures + 1;
    count Metrics.incr t.m_giveups

let flush t =
  append_buffered t;
  if t.unsynced <> [] then sync_round t;
  if t.buf = [] then t.age <- 0

let submit t ~txn ~at record =
  t.submitted <- t.submitted + 1;
  let ticket = t.submitted in
  t.buf <- { ticket; txn; at; record } :: t.buf;
  if List.length t.buf >= t.config.max_batch || t.config.max_delay = 0 then
    flush t;
  ticket

let tick t =
  if t.buf <> [] || t.unsynced <> [] then begin
    t.age <- t.age + 1;
    if t.age >= t.config.max_delay then flush t
  end

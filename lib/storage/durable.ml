module Scheduler = Hdd_core.Scheduler
module Partition = Hdd_core.Partition
module Outcome = Hdd_core.Outcome
module Store = Hdd_mvstore.Store
module Trace = Hdd_obs.Trace

type t = {
  wal : Wal.t;
  sched : int Scheduler.t;
  store : int Store.t;
  partition : Partition.t;
  sync_on_commit : bool;
  clock : Time.Clock.clock;
  trace : Trace.t option;
  faults : Fault.plan option;
  group : Group_commit.t option;
  base_offset : int;  (** log length when this handle opened the file *)
  inflight : Replay.Inflight.t;  (** update transactions begun and unfinished *)
  mutable logged_commits : int;  (** commit frames logged, ever (checkpoint metadata) *)
  mutable logged_aborts : int;
  mutable next_ckpt_seq : int;
  mutable direct_syncs : int;  (** sync_on_commit fsyncs (no group) *)
  mutable direct_synced_offset : int;
}

type ticket = Group of Group_commit.ticket | Logged of int | Readonly

type recovered = {
  store : int Store.t;
  last_time : Time.t;
  committed : int;
  aborted : int;
  lost_uncommitted : int;
  log_intact : bool;
  valid_bytes : int;
  from_checkpoint : Checkpoint.meta option;
}

let build ?(sync_on_commit = false) ?sink ?log ?trace ?group ?faults ?retry
    ?metrics ~path ~partition ~clock ~store ~committed ~aborted () =
  let sched = Scheduler.create ?log ?trace ~partition ~clock ~store () in
  let base_offset = Wal.size ~path in
  let wal = Wal.create ?sink ~path () in
  let group =
    Option.map
      (fun config ->
        (* In fault runs the plan's byte counter (plus the length at open)
           is the log offset — querying the file would force a flush per
           append.  Without a plan offsets are not tracked. *)
        let offset_of =
          Option.map (fun p () -> base_offset + Fault.bytes_appended p) faults
        in
        Group_commit.create ?faults ?retry ?metrics ?trace ?offset_of ~config
          wal)
      group
  in
  { wal; sched; store; partition; sync_on_commit; clock; trace; faults; group;
    base_offset; inflight = Replay.Inflight.create ();
    logged_commits = committed; logged_aborts = aborted;
    next_ckpt_seq = Checkpoint.latest_seq ~log:path + 1; direct_syncs = 0;
    direct_synced_offset = 0 }

let create ?sync_on_commit ?sink ?log ?trace ?group ?faults ?retry ?metrics
    ~path ~partition () =
  let clock = Time.Clock.create () in
  let store =
    Store.create ~segments:(Partition.segment_count partition)
      ~init:(fun _ -> 0)
  in
  build ?sync_on_commit ?sink ?log ?trace ?group ?faults ?retry ?metrics ~path
    ~partition ~clock ~store ~committed:0 ~aborted:0 ()

let recover ?trace ?(use_checkpoints = true) ~path ~segments ~init () =
  let full () =
    let { Wal.records; complete; bytes_read } = Wal.read_all ~path in
    let replay = Replay.create ?trace ~segments ~init () in
    Replay.apply_all replay records;
    (replay, complete, bytes_read, None)
  in
  let replay, log_intact, valid_bytes, from_checkpoint =
    if not use_checkpoints then full ()
    else
      match Checkpoint.best ?trace ~log:path ~segments ~init () with
      | None -> full ()
      | Some (replay, m) ->
        let { Wal.records; complete; bytes_read } =
          Wal.read_from ~path ~offset:m.Checkpoint.log_offset
        in
        Replay.apply_all replay records;
        (replay, complete, bytes_read, Some m)
  in
  (match trace with
  | Some tr ->
    Trace.emit tr ~at:replay.Replay.last_time
      (Trace.Recovery_complete { last_time = replay.Replay.last_time })
  | None -> ());
  { store = replay.Replay.store;
    last_time = replay.Replay.last_time;
    committed = replay.Replay.committed;
    aborted = replay.Replay.aborted;
    lost_uncommitted = Replay.lost_uncommitted replay;
    log_intact;
    valid_bytes;
    from_checkpoint }

let of_recovery ?sync_on_commit ?sink ?log ?trace ?group ?faults ?retry
    ?metrics ~path ~partition recovered =
  (* A torn or corrupt tail is dead bytes: recovery already ignores it,
     but appending after it would put every future record beyond the
     reach of the next recovery (replay stops at the first bad frame).
     Cut the log back to the intact prefix before reopening. *)
  if
    Sys.file_exists path
    && (Unix.stat path).Unix.st_size > recovered.valid_bytes
  then Unix.truncate path recovered.valid_bytes;
  let clock = Time.Clock.create () in
  Time.Clock.catch_up clock recovered.last_time;
  build ?sync_on_commit ?sink ?log ?trace ?group ?faults ?retry ?metrics ~path
    ~partition ~clock ~store:recovered.store ~committed:recovered.committed
    ~aborted:recovered.aborted ()

let scheduler t = t.sched
let store (t : t) = t.store
let group t = t.group

let tick_group t = match t.group with Some g -> Group_commit.tick g | None -> ()

let log_offset t =
  match t.faults with
  | Some p -> t.base_offset + Fault.bytes_appended p
  | None ->
    Wal.flush t.wal;
    Wal.size ~path:(Wal.path t.wal)

let durable_offset t =
  match t.group with
  | Some g -> Group_commit.synced_offset g
  | None -> t.direct_synced_offset

(* If the Begin record cannot be logged the transaction must not exist:
   roll the scheduler back before re-raising, so a transient append
   failure leaves no half-begun transaction behind. *)
let log_begin t txn ~class_id record =
  (try Wal.append t.wal record
   with e ->
     (try Scheduler.abort t.sched txn with _ -> ());
     raise e);
  Replay.Inflight.start t.inflight txn.Txn.id ~class_id ~init:txn.Txn.init;
  txn

let begin_update t ~class_id =
  tick_group t;
  let txn = Scheduler.begin_update t.sched ~class_id in
  log_begin t txn ~class_id
    (Codec.Begin { txn = txn.Txn.id; class_id; init = txn.Txn.init })

let begin_adhoc_update t ~writes ~reads =
  tick_group t;
  let txn = Scheduler.begin_adhoc_update t.sched ~writes ~reads in
  let class_id = List.hd (List.sort compare writes) in
  log_begin t txn ~class_id
    (Codec.Begin { txn = txn.Txn.id; class_id; init = txn.Txn.init })

let begin_read_only t =
  tick_group t;
  Scheduler.begin_read_only t.sched

let read t txn g =
  tick_group t;
  Scheduler.read t.sched txn g

let write t txn g value =
  tick_group t;
  match Scheduler.write t.sched txn g value with
  | Outcome.Granted () as ok ->
    Wal.append t.wal
      (Codec.Write { txn = txn.Txn.id; granule = g; ts = txn.Txn.init; value });
    (* mirror the write into the in-flight table only once it is in the
       log: a checkpoint must not persist a write recovery cannot see *)
    Replay.Inflight.add_write t.inflight txn.Txn.id (g, txn.Txn.init, value);
    ok
  | (Outcome.Blocked _ | Outcome.Rejected _) as other -> other

let commit_ticket t txn =
  Scheduler.commit t.sched txn;
  let at =
    match Txn.end_time txn with Some at -> at | None -> assert false
  in
  if not (Txn.is_update txn) then Readonly
  else begin
    let record = Codec.Commit { txn = txn.Txn.id; at } in
    let tk =
      match t.group with
      | Some g -> Group (Group_commit.submit g ~txn:txn.Txn.id ~at record)
      | None ->
        Wal.append t.wal record;
        if t.sync_on_commit then begin
          Wal.sync t.wal;
          t.direct_syncs <- t.direct_syncs + 1;
          t.direct_synced_offset <- log_offset t;
          match t.trace with
          | Some tr ->
            Trace.emit tr ~at (Trace.Durable_ack { txn = txn.Txn.id; at })
          | None -> ()
        end
        else Wal.flush t.wal;
        Logged (match t.faults with Some _ -> log_offset t | None -> 0)
    in
    ignore (Replay.Inflight.finish t.inflight txn.Txn.id);
    t.logged_commits <- t.logged_commits + 1;
    tk
  end

let commit t txn = ignore (commit_ticket t txn)

let acked t = function
  | Readonly | Logged _ -> true  (* a direct commit raising means no ticket *)
  | Group k -> (
    match t.group with Some g -> Group_commit.acked g k | None -> false)

let ack_offset t = function
  | Readonly -> None
  | Logged off -> (match t.faults with Some _ -> Some off | None -> None)
  | Group k -> (
    match t.group with Some g -> Group_commit.ack_offset g k | None -> None)

let abort t txn =
  tick_group t;
  Scheduler.abort t.sched txn;
  if Txn.is_update txn then begin
    (* the in-memory abort is done whether or not the Abort frame makes
       it to the log: without the frame, recovery counts the transaction
       as lost-uncommitted instead of aborted — same database *)
    ignore (Replay.Inflight.finish t.inflight txn.Txn.id);
    Wal.append t.wal
      (Codec.Abort
         { txn = txn.Txn.id;
           at = (match Txn.end_time txn with Some a -> a | None -> 0) });
    t.logged_aborts <- t.logged_aborts + 1
  end

let flush t =
  (match t.group with Some g -> Group_commit.flush g | None -> ());
  Wal.flush t.wal

let sync t =
  match t.group with
  | Some g -> Group_commit.flush g
  | None ->
    Wal.sync t.wal;
    t.direct_syncs <- t.direct_syncs + 1;
    t.direct_synced_offset <- log_offset t

let close t =
  (match t.group with
  | Some g -> ( try Group_commit.flush g with Fault.Crash _ | Fault.Io_error _ -> ())
  | None -> ());
  Wal.close t.wal

let in_flight t = Replay.Inflight.length t.inflight

let checkpoint t =
  (* every logged commit below the cut offset must be in the file — and
     no commit whose frame is still queued behind a failed append may be
     in the cut: it would persist a commit the log does not hold *)
  (match t.group with
  | Some g ->
    Group_commit.flush g;
    if Group_commit.queued g > 0 then
      raise (Fault.Io_error "checkpoint refused: commit frames still queued")
  | None -> Wal.flush t.wal);
  let log = Wal.path t.wal in
  let log_offset = log_offset t in
  let seq = t.next_ckpt_seq in
  let wall =
    let raw = Scheduler.gc_watermark_vector t.sched in
    (* clamp against the last checkpoint's cut so the persisted wall
       vectors are monotone across handles and recoveries *)
    match Checkpoint.read_manifest ~log with
    | m :: _ when Array.length m.Checkpoint.wall = Array.length raw ->
      Array.mapi (fun i v -> Stdlib.max v m.Checkpoint.wall.(i)) raw
    | _ -> raw
  in
  let versions = Store.dump_at_wall t.store ~wall in
  let m =
    Checkpoint.write ?faults:t.faults ~log ~seq ~log_offset ~wall
      ~last_time:(Time.Clock.now t.clock) ~committed:t.logged_commits
      ~aborted:t.logged_aborts ~versions
      ~pending:(Replay.Inflight.entries t.inflight) ()
  in
  t.next_ckpt_seq <- seq + 1;
  (match t.trace with
  | Some tr ->
    Trace.emit tr ~at:(Time.Clock.now t.clock)
      (Trace.Checkpoint_cut { seq; components = Array.copy wall })
  | None -> ());
  m

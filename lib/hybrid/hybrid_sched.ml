module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
module Table = Hdd_baselines.Prudent.Table
module Scheduler = Hdd_core.Scheduler
module P = Hdd_core.Partition
module T = Hdd_obs.Trace
open Hdd_core.Outcome

(* Adaptive hybrid CC (DESIGN.md §18): the HDD scheduler runs every
   class as usual, but a class under contention can be escalated to
   commit-order serialization — its root segment on Prudent's
   precedence table, versions stamped at commit instead of initiation.
   Only root-only-eligible classes (declared read set inside the own
   root segment) may escalate: for those, every composed Protocol A
   threshold and every wall component is at most the initiation of any
   active escalated transaction, which is strictly below its commit
   stamp, so cross-class readers and read-only walls never see a
   half-escalated cut.  Mode flips apply lazily, when the changed
   classes have drained, and emit {!Hdd_obs.Trace.event.Escalation}. *)

type t = {
  sched : int Scheduler.t;
  clock : Time.Clock.clock;
  partition : P.t;
  trace : T.t option;
  log : Sched_log.t option;
  eligible : bool array;
  modes : int array;
  mutable pending : int array option;
  mutable esc_seq : int;
  active : int array;  (* active update transactions per class *)
  table : int Table.t;  (* the escalated transactions *)
}

let eligible_classes partition =
  let n = P.segment_count partition in
  Array.init n (fun c ->
      let ok = ref true in
      for s = 0 to n - 1 do
        if s <> c && P.may_read partition ~class_id:c ~segment:s then
          ok := false
      done;
      !ok)

let create ?log ?trace ~partition ~init () =
  let clock = Time.Clock.create () in
  let store = Store.create ~segments:(P.segment_count partition) ~init in
  let sched = Scheduler.create ?log ?trace ~partition ~clock ~store () in
  { sched;
    clock;
    partition;
    trace;
    log;
    eligible = eligible_classes partition;
    modes = Array.make (P.segment_count partition) 0;
    pending = None;
    esc_seq = 0;
    active = Array.make (P.segment_count partition) 0;
    table = Table.create store }

let scheduler t = t.sched
let modes t = Array.copy t.modes
let eligible t = Array.copy t.eligible
let escalations t = t.esc_seq
let pending t = match t.pending with Some p -> Some (Array.copy p) | None -> None
let escalated t cls = t.modes.(cls) <> 0

let emit t ev =
  match t.trace with
  | Some tr -> T.emit tr ~at:(Time.Clock.tick t.clock) ev
  | None -> ()

(* Apply a pending mode vector once every changed class has drained.
   Callers sit at transaction boundaries (begin/commit/abort), never
   inside a trace fan-out, so the Escalation record is emitted at a
   clean point: no update transaction of a changing class in flight —
   the monitor's escalation invariant. *)
let apply_pending t =
  match t.pending with
  | None -> false
  | Some target ->
    let drained = ref true in
    Array.iteri
      (fun c m -> if m <> t.modes.(c) && t.active.(c) > 0 then drained := false)
      target;
    if not !drained then false
    else begin
      Array.blit target 0 t.modes 0 (Array.length target);
      t.pending <- None;
      t.esc_seq <- t.esc_seq + 1;
      emit t (T.Escalation { seq = t.esc_seq; modes = Array.to_list t.modes });
      true
    end

let request_modes t target =
  if Array.length target <> Array.length t.modes then
    invalid_arg "Hybrid_sched.request_modes: vector length";
  Array.iteri
    (fun c m ->
      if m <> 0 && m <> 1 then
        invalid_arg "Hybrid_sched.request_modes: modes are 0 or 1";
      if m = 1 && not t.eligible.(c) then
        invalid_arg
          (Printf.sprintf
             "Hybrid_sched.request_modes: class %d reads outside its root \
              segment and may not escalate"
             c))
    target;
  t.pending <- Some (Array.copy target);
  ignore (apply_pending t)

let class_of (txn : Txn.t) =
  match txn.Txn.kind with Txn.Update c -> Some c | _ -> None

let begin_update t ~class_id =
  ignore (apply_pending t);
  let txn = Scheduler.begin_update t.sched ~class_id in
  t.active.(class_id) <- t.active.(class_id) + 1;
  if t.modes.(class_id) <> 0 then Table.join t.table txn;
  txn

let begin_read_only t = Scheduler.begin_read_only t.sched

let begin_adhoc_update t ~writes ~reads =
  List.iter
    (fun s ->
      if s >= 0 && s < Array.length t.modes && t.modes.(s) <> 0 then
        invalid_arg
          (Printf.sprintf
             "Hybrid_sched: ad-hoc transaction touches escalated class %d" s))
    (writes @ reads);
  Scheduler.begin_adhoc_update t.sched ~writes ~reads

(* The Read record of an escalated read carries threshold = version + 1:
   nothing committed can sit between a latest-committed version and its
   successor timestamp, which is the shape the monitor's invariant 3
   checks. *)
let esc_read t (txn : Txn.t) g =
  match Table.read t.table txn g with
  | Table.Own v -> Granted v
  | Table.Latest v ->
    Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:v.Chain.ts;
    emit t
      (T.Read
         { txn = txn.Txn.id; protocol = T.B; segment = g.Granule.segment;
           key = g.Granule.key; threshold = v.Chain.ts + 1;
           version = v.Chain.ts });
    Granted v.Chain.value
  | Table.Missing -> Rejected "no committed version"

let esc_write t (txn : Txn.t) g value =
  match Table.write t.table txn g value with
  | Blocked on as blocked ->
    emit t
      (T.Block
         { txn = txn.Txn.id; protocol = T.B; segment = g.Granule.segment;
           key = g.Granule.key; on });
    blocked
  | outcome -> outcome

(* An escalated transaction's operation on its own root segment, the
   only part of its work the table orders. *)
let on_table t (txn : Txn.t) g =
  txn.Txn.kind = Txn.Update g.Granule.segment && Table.mem t.table txn

let read t txn g =
  if on_table t txn g then esc_read t txn g else Scheduler.read t.sched txn g

let write t txn g value =
  if on_table t txn g then esc_write t txn g value
  else Scheduler.write t.sched txn g value

(* The commit-point admission check the driver polls: an escalated
   transaction may commit only once every recorded predecessor has
   finished.  Plain transactions are always admissible — the scheduler
   already enforced everything at operation time. *)
let try_commit t txn =
  if Table.mem t.table txn then Table.admit t.table txn else Granted ()

let finish_active t txn =
  match class_of txn with
  | Some c -> t.active.(c) <- t.active.(c) - 1
  | None -> ()

let commit t txn =
  if Table.mem t.table txn then begin
    (* version order = commit order: one fresh stamp for the whole
       write set, strictly above every active initiation — invisible
       to every outstanding threshold and wall by construction *)
    let stamp = Time.Clock.tick t.clock in
    Table.install t.table txn ~stamp (fun g ->
        Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g
          ~version:stamp;
        emit t
          (T.Write
             { txn = txn.Txn.id; segment = g.Granule.segment;
               key = g.Granule.key; ts = stamp }))
  end;
  Scheduler.commit t.sched txn;
  finish_active t txn;
  ignore (apply_pending t)

let abort t txn =
  (* nothing installed: the buffer just drops *)
  if Table.mem t.table txn then Table.release t.table txn;
  Scheduler.abort t.sched txn;
  finish_active t txn;
  ignore (apply_pending t)

(* --- the simulator face --- *)

(* the escalated classes' table counts no begins, commits or aborts *)
let snapshot t () =
  Hdd_obs.Counters.add (Scheduler.metrics t.sched) (Table.metrics t.table)

let controller t : Hdd_sim.Controller.t =
  { name = "Hybrid";
    begin_txn =
      (function
      | Hdd_sim.Controller.Update class_id -> begin_update t ~class_id
      | Hdd_sim.Controller.Read_only -> begin_read_only t
      | Hdd_sim.Controller.Adhoc { writes; reads } ->
        begin_adhoc_update t ~writes ~reads);
    read = read t;
    write = write t;
    commit = commit t;
    abort = abort t;
    try_commit = Some (try_commit t);
    snapshot = snapshot t }

(* --- the closed policy loop --- *)

(* The policy decides after every fourth finished transaction. *)
let decide_every = 4

let auto ?policy t ~trace =
  let classes = P.segment_count t.partition in
  let contention = Contention.create ~classes () in
  Contention.attach contention trace;
  let pol = Policy.create ?config:policy ~eligible:t.eligible () in
  let finished = ref 0 in
  let c =
    Hdd_sim.Controller.with_hooks
      ~on_finish:(fun _ ~commit:_ ->
        incr finished;
        if !finished mod decide_every = 0 then
          match Policy.decide pol contention with
          | Some target -> request_modes t target
          | None -> ())
      (controller t)
  in
  (c, contention, pol)

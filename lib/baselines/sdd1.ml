module Sv = Hdd_mvstore.Sv_store
module Partition = Hdd_core.Partition
module Spec = Hdd_core.Spec
open Hdd_core.Outcome

type 'a undo = { granule : Granule.t; old_value : 'a; old_wts : Time.t }

type 'a txn_state = {
  txn : Txn.t;
  class_id : int;  (** the ad-hoc class is index [segment_count] *)
  updates : bool;  (** ad-hoc members only: may this one write? *)
  mutable undo : 'a undo list;
}

type 'a t = {
  clock : Time.Clock.clock;
  store : 'a Sv.t;
  states : (Txn.id, 'a txn_state) Hashtbl.t;
  active : (Txn.id, 'a txn_state) Hashtbl.t array;
      (** per class; the last slot is the ad-hoc class *)
  accessors : int list array;  (** classes whose access set meets segment *)
  writers : int list array;  (** classes writing the segment *)
  adhoc : int;  (** index of the ad-hoc class *)
  log : Sched_log.t option;
  m : Cc_metrics.t;
  mutable next_id : int;
}

(* Static conflict analysis over the declared transaction types.  Ad-hoc
   transactions get a synthetic class whose access set covers every
   segment: SDD-1 gives them no special handling, so conflict analysis
   must assume they may read anything — and, for ad-hoc updates, write
   anything.  The class joins every [writers] list too; reads filter out
   its read-only members dynamically, since only updaters conflict. *)
let analyse (partition : Partition.t) =
  let spec = partition.Partition.spec in
  let n = Spec.segment_count spec in
  let adhoc = n in
  let accessors = Array.make n [ adhoc ] in
  let writers = Array.make n [ adhoc ] in
  Array.iter
    (fun (ty : Spec.txn_type) ->
      let cls =
        match ty.Spec.writes with [ w ] -> w | _ -> assert false
      in
      (* a class may read any higher segment on its critical path, not
         only the ones its declared type lists: HDD routing and the
         workload generators both rely on {!Partition.may_read} *)
      List.iter
        (fun s ->
          if
            (List.mem s (Spec.access_set ty)
            || Partition.may_read partition ~class_id:cls ~segment:s)
            && not (List.mem cls accessors.(s))
          then accessors.(s) <- cls :: accessors.(s))
        (List.init n Fun.id);
      List.iter
        (fun s ->
          if not (List.mem cls writers.(s)) then
            writers.(s) <- cls :: writers.(s))
        ty.Spec.writes)
    spec.Spec.types;
  (accessors, writers, adhoc)

let create ?log ~clock ~partition ~init () =
  let accessors, writers, adhoc = analyse partition in
  { clock; store = Sv.create ~init; states = Hashtbl.create 64;
    active = Array.init (adhoc + 1) (fun _ -> Hashtbl.create 16);
    accessors; writers; adhoc; log; m = Cc_metrics.create (); next_id = 1 }

let metrics t = t.m

let state_of t (txn : Txn.t) =
  match Hashtbl.find_opt t.states txn.Txn.id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Sdd1: unknown transaction %d" txn.Txn.id)

let begin_in_class t class_id ~updates =
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn =
    Txn.make ~id ~kind:(Txn.Update class_id) ~init:(Time.Clock.tick t.clock)
  in
  let st = { txn; class_id; updates; undo = [] } in
  Hashtbl.replace t.states id st;
  Hashtbl.replace t.active.(class_id) id st;
  t.m.begins <- t.m.begins + 1;
  txn

let begin_txn t ~class_id =
  if class_id < 0 || class_id >= t.adhoc then
    invalid_arg (Printf.sprintf "Sdd1.begin_txn: class %d" class_id);
  begin_in_class t class_id ~updates:true

let begin_adhoc ?(updates = false) t = begin_in_class t t.adhoc ~updates

(* Older active transactions in any of the given classes that satisfy
   [keep]. *)
let older_actives t classes ~than ~self ~keep =
  List.concat_map
    (fun c ->
      Hashtbl.fold
        (fun id st acc ->
          if
            id <> self && st.txn.Txn.init < than && Txn.is_active st.txn
            && keep st
          then id :: acc
          else acc)
        t.active.(c) [])
    classes
  |> List.sort_uniq compare

let any _ = true

let read t txn g =
  let st = state_of t txn in
  t.m.reads <- t.m.reads + 1;
  let seg = g.Granule.segment in
  let conflicting = List.sort_uniq compare (st.class_id :: t.writers.(seg)) in
  (* a read conflicts with an older ad-hoc member only if it may write *)
  let keep st' = st'.class_id <> t.adhoc || st'.updates in
  match older_actives t conflicting ~than:txn.Txn.init ~self:txn.Txn.id ~keep with
  | [] ->
    let value, wts = Sv.read t.store g in
    (* conflict analysis replaces registration: nothing is recorded *)
    Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:wts;
    Granted value
  | blockers ->
    t.m.blocks <- t.m.blocks + 1;
    Blocked blockers

let write t txn g value =
  let st = state_of t txn in
  t.m.writes <- t.m.writes + 1;
  if st.class_id = t.adhoc && not st.updates then begin
    t.m.rejects <- t.m.rejects + 1;
    Rejected "read-only ad-hoc transaction may not write"
  end
  else begin
  let seg = g.Granule.segment in
  let conflicting =
    List.sort_uniq compare
      (st.class_id :: (t.accessors.(seg) @ t.writers.(seg)))
  in
  match
    older_actives t conflicting ~than:txn.Txn.init ~self:txn.Txn.id ~keep:any
  with
  | [] ->
    let old_value, old_wts = Sv.read t.store g in
    let already = List.exists (fun u -> Granule.equal u.granule g) st.undo in
    if not already then
      st.undo <- { granule = g; old_value; old_wts } :: st.undo;
    let wts = Time.Clock.tick t.clock in
    Sv.write t.store g ~value ~wts;
    Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g ~version:wts;
    Granted ()
  | blockers ->
    t.m.blocks <- t.m.blocks + 1;
    Blocked blockers
  end

let finish t (st : 'a txn_state) =
  Hashtbl.remove t.active.(st.class_id) st.txn.Txn.id;
  Hashtbl.remove t.states st.txn.Txn.id

let commit t txn =
  let st = state_of t txn in
  Txn.commit txn ~at:(Time.Clock.tick t.clock);
  finish t st;
  t.m.commits <- t.m.commits + 1

let abort t txn =
  let st = state_of t txn in
  List.iter
    (fun u -> Sv.write t.store u.granule ~value:u.old_value ~wts:u.old_wts)
    st.undo;
  Sched_log.drop_txn_opt t.log txn.Txn.id;
  Txn.abort txn ~at:(Time.Clock.tick t.clock);
  finish t st;
  t.m.aborts <- t.m.aborts + 1

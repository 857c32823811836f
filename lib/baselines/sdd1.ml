module Sv = Hdd_mvstore.Sv_store
module Partition = Hdd_core.Partition
module Spec = Hdd_core.Spec
open Hdd_core.Outcome

type member = {
  class_id : int;  (** the ad-hoc class is index [segment_count] *)
  updates : bool;  (** ad-hoc members only: may this one write? *)
}

type 'a t = {
  tx : member Txn_table.t;
  store : 'a Sv.t;
  accessors : int list array;  (** classes whose access set meets segment *)
  writers : int list array;  (** classes writing the segment *)
  adhoc : int;  (** index of the ad-hoc class *)
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
  { tx = Txn_table.create ?log ~name:"Sdd1" ~clock (); store = Sv.create ~init;
    accessors; writers; adhoc }

let metrics t = Txn_table.metrics t.tx

let begin_in_class t class_id ~updates =
  Txn_table.begin_txn t.tx ~kind:(Txn.Update class_id) { class_id; updates }

let begin_txn t ~class_id =
  if class_id < 0 || class_id >= t.adhoc then
    invalid_arg (Printf.sprintf "Sdd1.begin_txn: class %d" class_id);
  begin_in_class t class_id ~updates:true

let begin_adhoc ?(updates = false) t = begin_in_class t t.adhoc ~updates

(* The older live transactions [txn] must wait for: those whose
   membership [conflicts] with the access, by id. *)
let older_conflicting t (txn : Txn.t) conflicts =
  Txn_table.fold
    (fun o m acc ->
      if o.Txn.init < txn.Txn.init && conflicts m then o.Txn.id :: acc
      else acc)
    t.tx []
  |> List.sort compare

let read t txn g =
  let st = Txn_table.reading t.tx txn in
  let writers = t.writers.(g.Granule.segment) in
  (* a read conflicts with an older ad-hoc member only if it may write *)
  let conflicts o =
    (o.class_id = st.class_id || List.mem o.class_id writers)
    && (o.class_id <> t.adhoc || o.updates)
  in
  match older_conflicting t txn conflicts with
  | [] ->
    let value, wts = Sv.read t.store g in
    (* conflict analysis replaces registration: nothing is recorded *)
    Txn_table.log_read t.tx txn g wts;
    Granted value
  | blockers -> Txn_table.block t.tx blockers

let write t txn g value =
  let st = Txn_table.writing t.tx txn in
  if st.class_id = t.adhoc && not st.updates then
    Txn_table.reject t.tx "read-only ad-hoc transaction may not write"
  else
    let seg = g.Granule.segment in
    let conflicts o =
      o.class_id = st.class_id
      || List.mem o.class_id t.accessors.(seg)
      || List.mem o.class_id t.writers.(seg)
    in
    match older_conflicting t txn conflicts with
    | [] ->
      let wts = Txn_table.tick t.tx in
      Sv.write_undoable t.store txn.Txn.id g ~value ~wts;
      Txn_table.log_write t.tx txn g wts;
      Granted ()
    | blockers -> Txn_table.block t.tx blockers

let commit t txn =
  Txn_table.commit t.tx txn;
  Sv.forget t.store txn.Txn.id

let abort t txn =
  Txn_table.abort t.tx txn;
  Sv.undo t.store txn.Txn.id

module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
open Hdd_core.Outcome

type 'a t = {
  tx : (Granule.t * 'a) list ref Txn_table.t;
      (** per transaction, its deferred writes, newest first *)
  store : 'a Store.t;
  locks : Lock_table.t;
}

let create ?log ~clock ~segments ~init () =
  let tx = Txn_table.create ?log ~name:"Mv2pl" ~clock () in
  { tx; store = Store.create ~segments ~init;
    locks = Lock_table.create (Txn_table.metrics tx) }

let metrics t = Txn_table.metrics t.tx
let store t = t.store

let begin_txn t ~read_only =
  let kind = if read_only then Txn.Read_only else Txn.Update 0 in
  Txn_table.begin_txn t.tx ~kind (ref [])

let read_version t txn g ~none = function
  | Some v ->
    Txn_table.log_read t.tx txn g v.Chain.ts;
    Granted v.Chain.value
  | None -> Txn_table.reject t.tx none

(* Read-only transactions read the latest versions committed before
   their start, with no lock. *)
let read t txn g =
  let b = Txn_table.reading t.tx txn in
  if not (Txn.is_update txn) then
    read_version t txn g ~none:"snapshot version collected"
      (Store.committed_before t.store g ~ts:txn.Txn.init)
  else
    match List.assoc_opt g !b with
    | Some v -> Granted v (* own deferred write; no cross-txn dependency *)
    | None -> (
      match Lock_table.shared t.locks txn.Txn.id g with
      | [] ->
        read_version t txn g ~none:"no committed version"
          (Store.latest_committed t.store g)
      | holders -> Blocked holders)

let write t txn g value =
  let b = Txn_table.writing t.tx txn in
  if not (Txn.is_update txn) then
    Txn_table.reject t.tx "read-only transaction may not write"
  else
    match Lock_table.exclusive t.locks txn.Txn.id g with
    | [] ->
      b := (g, value) :: List.remove_assoc g !b;
      Granted ()
    | holders -> Blocked holders

let commit t txn =
  let b = Txn_table.state t.tx txn in
  let at = Txn_table.tick t.tx in
  (* install deferred writes stamped with the commit instant: the version
     order on each granule equals the commit order the X locks serialise *)
  List.iter
    (fun (g, value) ->
      ignore (Store.install t.store g ~ts:at ~writer:txn.Txn.id ~value);
      Store.commit_version t.store g ~ts:at;
      Txn_table.log_write t.tx txn g at)
    (List.rev !b);
  Txn_table.commit t.tx txn ~at;
  Lock_table.release t.locks txn.Txn.id

let abort t txn =
  Txn_table.abort t.tx txn;
  Lock_table.release t.locks txn.Txn.id

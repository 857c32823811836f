module Sv = Hdd_mvstore.Sv_store
open Hdd_core.Outcome

type 'a t = {
  tx : unit Txn_table.t;
  store : 'a Sv.t;
  locks : Lock_table.t;
  read_locks : bool;
}

let create ?log ?(read_locks = true) ~clock ~init () =
  let tx = Txn_table.create ?log ~name:"S2pl" ~clock () in
  { tx; store = Sv.create ~init;
    locks = Lock_table.create (Txn_table.metrics tx); read_locks }

let metrics t = Txn_table.metrics t.tx

(* every 2PL transaction is "class 0": classes play no role here, but a
   concrete class keeps the record usable by shared reporting *)
let begin_txn t ~read_only =
  ignore read_only;
  Txn_table.begin_txn t.tx ~kind:(Txn.Update 0) ()

let read t txn g =
  Txn_table.reading t.tx txn;
  match
    if t.read_locks then Lock_table.shared t.locks txn.Txn.id g else []
  with
  | [] ->
    let value, wts = Sv.read t.store g in
    Txn_table.log_read t.tx txn g wts;
    Granted value
  | holders -> Blocked holders

let write t txn g value =
  Txn_table.writing t.tx txn;
  match Lock_table.exclusive t.locks txn.Txn.id g with
  | [] ->
    (* stamp with the write instant, not I(t): under 2PL the version order
       on a granule is the lock order, which initiation times need not
       follow, and the certifier orders versions by their stamps *)
    let wts = Txn_table.tick t.tx in
    Sv.write_undoable t.store txn.Txn.id g ~value ~wts;
    Txn_table.log_write t.tx txn g wts;
    Granted ()
  | holders -> Blocked holders

let commit t txn =
  Txn_table.commit t.tx txn;
  Sv.forget t.store txn.Txn.id;
  Lock_table.release t.locks txn.Txn.id

let abort t txn =
  Txn_table.abort t.tx txn;
  Sv.undo t.store txn.Txn.id;
  Lock_table.release t.locks txn.Txn.id

let lock_count t = Lock_table.count t.locks

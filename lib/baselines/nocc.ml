module Sv = Hdd_mvstore.Sv_store
open Hdd_core.Outcome

type 'a t = { tx : unit Txn_table.t; store : 'a Sv.t }

let create ?log ~clock ~init () =
  { tx = Txn_table.create ?log ~name:"Nocc" ~clock (); store = Sv.create ~init }

let metrics t = Txn_table.metrics t.tx
let begin_txn t = Txn_table.begin_txn t.tx ~kind:(Txn.Update 0) ()

let read t txn g =
  Txn_table.reading t.tx txn;
  let value, wts = Sv.read t.store g in
  Txn_table.log_read t.tx txn g wts;
  Granted value

let write t txn g value =
  Txn_table.writing t.tx txn;
  let wts = Txn_table.tick t.tx in
  Sv.write t.store g ~value ~wts;
  Txn_table.log_write t.tx txn g wts;
  Granted ()

let commit t txn = Txn_table.commit t.tx txn
let abort t txn = Txn_table.abort t.tx txn

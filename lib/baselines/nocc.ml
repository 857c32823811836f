module Sv = Hdd_mvstore.Sv_store
open Hdd_core.Outcome

type 'a t = {
  clock : Time.Clock.clock;
  store : 'a Sv.t;
  log : Sched_log.t option;
  m : Cc_metrics.t;
  mutable next_id : int;
}

let create ?log ~clock ~init () =
  { clock; store = Sv.create ~init; log; m = Cc_metrics.create ();
    next_id = 1 }

let metrics t = t.m

let begin_txn t =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.m.begins <- t.m.begins + 1;
  Txn.make ~id ~kind:(Txn.Update 0) ~init:(Time.Clock.tick t.clock)

let read t txn g =
  t.m.reads <- t.m.reads + 1;
  let value, wts = Sv.read t.store g in
  Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:wts;
  Granted value

let write t txn g value =
  t.m.writes <- t.m.writes + 1;
  let wts = Time.Clock.tick t.clock in
  Sv.write t.store g ~value ~wts;
  Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g ~version:wts;
  Granted ()

let commit t txn =
  Txn.commit txn ~at:(Time.Clock.tick t.clock);
  t.m.commits <- t.m.commits + 1

let abort t txn =
  Sched_log.drop_txn_opt t.log txn.Txn.id;
  Txn.abort txn ~at:(Time.Clock.tick t.clock);
  t.m.aborts <- t.m.aborts + 1

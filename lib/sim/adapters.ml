module B = Hdd_baselines
module Scheduler = Hdd_core.Scheduler

let hdd_detailed ?log ?trace ?wall_every_commits ?gc_every_commits ?gc_on_wall
    ~partition ~init () =
  let clock = Time.Clock.create () in
  let store =
    Hdd_mvstore.Store.create
      ~segments:(Hdd_core.Partition.segment_count partition) ~init
  in
  let sched =
    Scheduler.create ?log ?trace ?wall_every_commits ?gc_every_commits
      ?gc_on_wall ~partition ~clock ~store ()
  in
  ( { Controller.name = "HDD";
      begin_txn =
        (function
        | Controller.Update class_id -> Scheduler.begin_update sched ~class_id
        | Controller.Read_only -> Scheduler.begin_read_only sched
        | Controller.Adhoc { writes; reads } ->
          Scheduler.begin_adhoc_update sched ~writes ~reads);
      read = Scheduler.read sched;
      write = Scheduler.write sched;
      commit = Scheduler.commit sched;
      abort = Scheduler.abort sched;
      try_commit = None;
      snapshot = (fun () -> Hdd_obs.Counters.copy (Scheduler.metrics sched)) },
    sched,
    clock )

let hdd ?log ?trace ?wall_every_commits ~partition ~init () =
  let controller, _, _ =
    hdd_detailed ?log ?trace ?wall_every_commits ~partition ~init ()
  in
  controller

(* Every baseline controller through one helper: its name, operations
   and counters.  Each adapter gives its controller a clock of its own. *)
let baseline name ?try_commit ~begin_txn ~read ~write ~commit ~abort m =
  { Controller.name; begin_txn; read; write; commit; abort; try_commit;
    snapshot = (fun () -> Hdd_obs.Counters.copy m) }

let read_only k = k = Controller.Read_only

let s2pl ?log ?read_locks ~init () =
  let clock = Time.Clock.create () in
  let c = B.S2pl.create ?log ?read_locks ~clock ~init () in
  baseline
    (match read_locks with Some false -> "2PL-noRL" | _ -> "2PL")
    ~begin_txn:(fun k -> B.S2pl.begin_txn c ~read_only:(read_only k))
    ~read:(B.S2pl.read c) ~write:(B.S2pl.write c) ~commit:(B.S2pl.commit c)
    ~abort:(B.S2pl.abort c) (B.S2pl.metrics c)

let tso ?log ?read_timestamps ~init () =
  let clock = Time.Clock.create () in
  let c = B.Tso.create ?log ?read_timestamps ~clock ~init () in
  baseline
    (match read_timestamps with Some false -> "TSO-noRTS" | _ -> "TSO")
    ~begin_txn:(fun _ -> B.Tso.begin_txn c)
    ~read:(B.Tso.read c) ~write:(B.Tso.write c) ~commit:(B.Tso.commit c)
    ~abort:(B.Tso.abort c) (B.Tso.metrics c)

let mvto ?log ~segments ~init () =
  let clock = Time.Clock.create () in
  let c = B.Mvto.create ?log ~clock ~segments ~init () in
  baseline "MVTO"
    ~begin_txn:(fun _ -> B.Mvto.begin_txn c)
    ~read:(B.Mvto.read c) ~write:(B.Mvto.write c) ~commit:(B.Mvto.commit c)
    ~abort:(B.Mvto.abort c) (B.Mvto.metrics c)

let mv2pl ?log ~segments ~init () =
  let clock = Time.Clock.create () in
  let c = B.Mv2pl.create ?log ~clock ~segments ~init () in
  baseline "MV2PL"
    ~begin_txn:(fun k -> B.Mv2pl.begin_txn c ~read_only:(read_only k))
    ~read:(B.Mv2pl.read c) ~write:(B.Mv2pl.write c) ~commit:(B.Mv2pl.commit c)
    ~abort:(B.Mv2pl.abort c) (B.Mv2pl.metrics c)

let prudent ?log ~segments ~init () =
  let clock = Time.Clock.create () in
  let c = B.Prudent.create ?log ~clock ~segments ~init () in
  baseline "Prudent" ~try_commit:(B.Prudent.try_commit c)
    ~begin_txn:(fun k -> B.Prudent.begin_txn c ~read_only:(read_only k))
    ~read:(B.Prudent.read c) ~write:(B.Prudent.write c)
    ~commit:(B.Prudent.commit c) ~abort:(B.Prudent.abort c)
    (B.Prudent.metrics c)

let sdd1 ?log ~partition ~init () =
  let clock = Time.Clock.create () in
  let c = B.Sdd1.create ?log ~clock ~partition ~init () in
  baseline "SDD-1"
    ~begin_txn:(function
      | Controller.Update class_id -> B.Sdd1.begin_txn c ~class_id
      | Controller.Read_only -> B.Sdd1.begin_adhoc c
      | Controller.Adhoc _ -> B.Sdd1.begin_adhoc ~updates:true c)
    ~read:(B.Sdd1.read c) ~write:(B.Sdd1.write c) ~commit:(B.Sdd1.commit c)
    ~abort:(B.Sdd1.abort c) (B.Sdd1.metrics c)

let nocc ?log ~init () =
  let clock = Time.Clock.create () in
  let c = B.Nocc.create ?log ~clock ~init () in
  baseline "NoCC"
    ~begin_txn:(fun _ -> B.Nocc.begin_txn c)
    ~read:(B.Nocc.read c) ~write:(B.Nocc.write c) ~commit:(B.Nocc.commit c)
    ~abort:(B.Nocc.abort c) (B.Nocc.metrics c)

(* E15 — §7.5: inter-level synchronization traffic.

   The paper's motivating platform is INFOPLEX, a multi-processor
   database computer with one processing level per hierarchy level; the
   proposal is that HDD "reduc[es] inter-level synchronization
   communications".  The simulator is centralized, so messages are
   *modelled*: every operation against a segment controller costs one
   request/reply round trip (2 messages); a read registration costs one
   additional message (the persistent read-lock/read-timestamp write the
   paper prices); every block costs one wake-up message; every restart
   replays its transaction's round trips.

   The model is deliberately simple and stated here so the table can be
   recomputed by hand from E10's counters; the point is the *ratio*
   between protocols, which the paper predicts in HDD's favour because
   cross-level reads carry no registration message at all. *)

module Harness = Hdd_sim.Harness
module Runner = Hdd_sim.Runner
module Workload = Hdd_sim.Workload
module Controller = Hdd_sim.Controller
module Table = Hdd_util.Table

let config =
  { Runner.default_config with Runner.mpl = 8; target_commits = 1500; seed = 11 }

let messages (r : Runner.result) =
  let c = r.Runner.counters in
  let round_trips = 2 * (Hdd_obs.Counters.reads c + c.writes) in
  let registrations = c.read_registrations in
  let wakeups = c.blocks in
  round_trips + registrations + wakeups

let run () =
  let wl = Workload.inventory ~ro_weight:0.15 () in
  let rows =
    List.map
      (fun spec -> Runner.run config wl (Harness.make spec wl))
      Harness.all_controlled
  in
  let table =
    Table.create
      ~title:
        "E15 (§7.5): modelled inter-level synchronization messages \
         (inventory, 1500 commits)"
      ~columns:
        [ "protocol"; "round trips"; "registration msgs"; "wakeup msgs";
          "total msgs/txn" ]
  in
  List.iter
    (fun (r : Runner.result) ->
      let c = r.Runner.counters in
      Table.add_row table
        [ r.Runner.controller;
          string_of_int (2 * (Hdd_obs.Counters.reads c + c.writes));
          string_of_int c.read_registrations;
          string_of_int c.blocks;
          Table.cell_float
            (float_of_int (messages r) /. float_of_int r.Runner.committed) ])
    rows;
  let per spec =
    let r =
      List.find (fun (r : Runner.result) ->
          r.Runner.controller = Harness.spec_name spec)
        rows
    in
    float_of_int (messages r) /. float_of_int r.Runner.committed
  in
  { Exp_types.id = "E15";
    title = "Inter-level synchronization message model";
    source = "§7.5 (database computer applications)";
    tables = [ table ];
    checks =
      [ ("HDD carries fewer modelled messages per transaction than 2PL, \
          TSO and MVTO",
         per Harness.Hdd < per Harness.S2pl
         && per Harness.Hdd < per Harness.Tso
         && per Harness.Hdd < per Harness.Mvto);
        ("SDD-1's saved registrations are spent on wake-ups",
         per Harness.Sdd1 > per Harness.Hdd) ];
    notes =
      [ "Cost model: 2 messages per operation round trip, +1 per read \
         registration, +1 per block wake-up; restarts replay their round \
         trips (already included in the operation counters)." ] }

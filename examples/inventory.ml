(* The paper's §1.2.1 retail inventory application, end to end.

   Type 1 transactions log sales / sales-modification / merchandise-
   arrival events; type 2 transactions periodically recompute inventory
   levels from the events; type 3 transactions read events and levels to
   decide reorders.  The example first replays the motivating Figure 3
   timing interactively, then runs the full mixed workload through the
   simulator under HDD and the classical baselines, printing the
   comparison.

   Run with: dune exec examples/inventory.exe *)

module Scheduler = Hdd_core.Scheduler
module Outcome = Hdd_core.Outcome
module Certifier = Hdd_core.Certifier
module Store = Hdd_mvstore.Store
module Workload = Hdd_sim.Workload
module Runner = Hdd_sim.Runner
module Harness = Hdd_sim.Harness
module Controller = Hdd_sim.Controller
module Table = Hdd_util.Table

let ok = function
  | Outcome.Granted v -> v
  | Outcome.Blocked _ -> failwith "unexpected block"
  | Outcome.Rejected why -> failwith ("unexpected rejection: " ^ why)

let granule segment key = Granule.make ~segment ~key

(* --- part 1: the Figure 3 walkthrough --- *)

let walkthrough () =
  print_endline "--- Figure 3 walkthrough under HDD ---";
  let wl = Workload.inventory () in
  let log = Sched_log.create () in
  let clock = Time.Clock.create () in
  let store = Store.create ~segments:3 ~init:(fun _ -> 0) in
  let s = Scheduler.create ~log ~partition:wl.Workload.partition ~clock ~store () in
  let arrival = granule 2 0 and level = granule 1 0 and order = granule 0 0 in
  (* the reorder decision (type 3) begins and scans arrivals: no y yet *)
  let t3 = Scheduler.begin_update s ~class_id:0 in
  let y_seen = ok (Scheduler.read s t3 arrival) in
  Printf.printf "t3 scans arrivals, sees %d units\n" y_seen;
  (* the arrival of 40 units is logged (type 1) and committed *)
  let t1 = Scheduler.begin_update s ~class_id:2 in
  ok (Scheduler.write s t1 arrival 40);
  Scheduler.commit s t1;
  print_endline "t1 logs an arrival of 40 units and commits";
  (* the level recompute (type 2) sees the arrival and posts a new level *)
  let t2 = Scheduler.begin_update s ~class_id:1 in
  let arrived = ok (Scheduler.read s t2 arrival) in
  ok (Scheduler.write s t2 level arrived);
  Scheduler.commit s t2;
  Printf.printf "t2 recomputes the level from %d arrived units and commits\n"
    arrived;
  (* t3 now reads the level: protocol A serves the state consistent with
     its earlier scan *)
  let level_seen = ok (Scheduler.read s t3 level) in
  ok (Scheduler.write s t3 order (100 - level_seen));
  Scheduler.commit s t3;
  Printf.printf
    "t3 reads level %d (not %d!) and orders %d units; serializable: %b\n"
    level_seen arrived (100 - level_seen)
    (Certifier.serializable log);
  Printf.printf "read registrations left by the three transactions: %d\n\n"
    (Scheduler.metrics s).Scheduler.read_registrations

(* --- part 2: the mixed workload across protocols --- *)

let comparison () =
  print_endline "--- mixed inventory workload, 1000 commits, mpl 8 ---";
  let wl = Workload.inventory ~ro_weight:0.15 () in
  let config =
    { Runner.default_config with Runner.mpl = 8; target_commits = 1000 }
  in
  let table =
    Table.create ~title:"inventory workload"
      ~columns:
        [ "protocol"; "read regs"; "blocks"; "rejects"; "restarts";
          "throughput"; "serializable" ]
  in
  List.iter
    (fun spec ->
      let r, serializable = Harness.certified_run ~config spec wl in
      Table.add_row table
        [ r.Runner.controller;
          string_of_int r.Runner.counters.read_registrations;
          string_of_int r.Runner.counters.blocks;
          string_of_int r.Runner.counters.rejects;
          string_of_int r.Runner.restarts;
          Table.cell_float ~decimals:3 r.Runner.throughput;
          (if serializable then "yes" else "NO") ])
    Harness.all_controlled;
  Table.print table

let () =
  walkthrough ();
  comparison ()

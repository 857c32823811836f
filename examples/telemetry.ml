(* A four-level telemetry pipeline: the deepest hierarchy in the
   examples, exercising multi-hop activity links.

   D3 readings (highest): sensors append raw samples;
   D2 rollups: minute aggregation over readings;
   D1 alerts: threshold detection over rollups (and raw readings);
   D0 tickets: incident tickets opened from alerts.

   The pipeline runs as a concurrent simulated workload; afterwards the
   activity-link thresholds for a ticket-writer are printed hop by hop —
   the longest composition in the repository (three I_old hops). *)

module Spec = Hdd_core.Spec
module Partition = Hdd_core.Partition
module Scheduler = Hdd_core.Scheduler
module Activity = Hdd_core.Activity
module Workload = Hdd_sim.Workload
module Runner = Hdd_sim.Runner
module Controller = Hdd_sim.Controller
module Adapters = Hdd_sim.Adapters
module Prng = Hdd_util.Prng
module Table = Hdd_util.Table

let granule segment key = Granule.make ~segment ~key

let partition =
  Partition.build_exn
    (Spec.make
       ~segments:[ "tickets"; "alerts"; "rollups"; "readings" ]
       ~types:
         [ Spec.txn_type ~name:"sample" ~writes:[ 3 ] ~reads:[];
           Spec.txn_type ~name:"rollup" ~writes:[ 2 ] ~reads:[ 2; 3 ];
           Spec.txn_type ~name:"alert" ~writes:[ 1 ] ~reads:[ 1; 2; 3 ];
           Spec.txn_type ~name:"ticket" ~writes:[ 0 ] ~reads:[ 0; 1 ] ])

let keys = 64

let workload =
  let key rng = Prng.int rng keys in
  { Workload.wl_name = "telemetry";
    partition;
    templates =
      [ { Workload.tpl_name = "sample"; kind = Controller.Update 3;
          weight = 0.4;
          gen =
            (fun rng ->
              [ Workload.Write (granule 3 (key rng), Prng.int rng 100) ]) };
        { Workload.tpl_name = "rollup"; kind = Controller.Update 2;
          weight = 0.25;
          gen =
            (fun rng ->
              let k = key rng in
              [ Workload.Read (granule 3 (key rng));
                Workload.Read (granule 3 (key rng));
                Workload.Read (granule 2 k);
                Workload.Write (granule 2 k, Prng.int rng 100) ]) };
        { Workload.tpl_name = "alert"; kind = Controller.Update 1;
          weight = 0.2;
          gen =
            (fun rng ->
              let k = key rng in
              [ Workload.Read (granule 2 (key rng));
                Workload.Read (granule 3 (key rng));
                Workload.Read (granule 1 k);
                Workload.Write (granule 1 k, Prng.int rng 2) ]) };
        { Workload.tpl_name = "ticket"; kind = Controller.Update 0;
          weight = 0.1;
          gen =
            (fun rng ->
              let k = key rng in
              [ Workload.Read (granule 1 (key rng));
                Workload.Read (granule 0 k);
                Workload.Write (granule 0 k, 1) ]) };
        { Workload.tpl_name = "dashboard"; kind = Controller.Read_only;
          weight = 0.05;
          gen =
            (fun rng ->
              [ Workload.Read (granule 0 (key rng));
                Workload.Read (granule 1 (key rng));
                Workload.Read (granule 2 (key rng));
                Workload.Read (granule 3 (key rng)) ]) } ];
    init = (fun _ -> 0) }

let () =
  let controller, sched, _clock =
    Adapters.hdd_detailed ~partition ~init:workload.Workload.init ()
  in
  let config =
    { Runner.default_config with Runner.mpl = 10; target_commits = 2000 }
  in
  let r = Runner.run config workload controller in
  Printf.printf
    "telemetry pipeline: %d commits, throughput %.3f, %d restarts\n"
    r.Runner.committed r.Runner.throughput r.Runner.restarts;
  let c = r.Runner.counters in
  Printf.printf
    "reads %d (registrations %d), writes %d, blocks %d, rejects %d\n"
    (Hdd_obs.Counters.reads c) c.read_registrations c.writes c.blocks
    c.rejects;

  (* trace the longest activity link: a ticket-writer reading raw
     readings would compose three I_old hops (tickets -> alerts ->
     rollups -> readings); the declared pattern stops at alerts, so we
     print the full composition explicitly *)
  let ctx = Scheduler.activity_ctx sched in
  let m = 50 in
  let table =
    Table.create ~title:"activity-link composition from the ticket class"
      ~columns:[ "hop"; "class"; "threshold" ]
  in
  List.iteri
    (fun idx (cls, v) ->
      Table.add_row table
        [ string_of_int idx;
          Printf.sprintf "T%d (%s)" cls
            (Hdd_core.Spec.segment_name
               partition.Hdd_core.Partition.spec cls);
          string_of_int v ])
    (Activity.a_fn_trace ctx ~from_class:0 ~to_class:3 m);
  Table.print table;
  Printf.printf "wall releases so far: %d\n"
    (Hdd_core.Timewall.release_count (Scheduler.wall_manager sched))

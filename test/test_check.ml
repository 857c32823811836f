(* The schedule-space explorer and the property-based conformance
   harness: exhaustive certification of the anomaly scenarios, sleep-set
   soundness cross-checks, counterexample shrinking, and seeded
   properties for the paper's protocol guarantees. *)

module Explore = Hdd_check.Explore
module Scenarios = Hdd_check.Scenarios
module Shrink = Hdd_check.Shrink
module Gen = Hdd_check.Gen
module Certifier = Hdd_core.Certifier
module Scheduler = Hdd_core.Scheduler
module Timewall = Hdd_core.Timewall
module Outcome = Hdd_core.Outcome
module Adapters = Hdd_sim.Adapters
module Controller = Hdd_sim.Controller
module Prng = Hdd_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- the conformance sweep: every scenario, every system --- *)

let test_scenario_conformance () =
  List.iter
    (fun (sc : Scenarios.t) ->
      List.iter
        (fun (sys : Explore.system) ->
          let s = Explore.explore sys sc.Scenarios.workload in
          let expected =
            List.mem sys.Explore.sys_name sc.Scenarios.expect_anomaly
          in
          checkb
            (Printf.sprintf "%s/%s not capped" sc.Scenarios.sc_name
               sys.Explore.sys_name)
            false s.Explore.capped;
          checkb
            (Printf.sprintf "%s/%s anomalies %s" sc.Scenarios.sc_name
               sys.Explore.sys_name
               (if expected then "found" else "absent"))
            expected
            (s.Explore.anomalies > 0);
          checki
            (Printf.sprintf "%s/%s totals add up" sc.Scenarios.sc_name
               sys.Explore.sys_name)
            s.Explore.schedules
            (s.Explore.serializable + s.Explore.anomalies))
        Explore.all_systems)
    Scenarios.all

(* --- the Figure 1 lost update, exhaustively --- *)

let test_fig1_exhaustive_counts () =
  let wl = Scenarios.fig1.Scenarios.workload in
  (* no concurrency control: every schedule runs to completion, so the
     leaf count is the number of interleavings of two 4-step programs:
     C(8,4) = 70 *)
  let s = Explore.explore ~prune:false (Explore.system "NoCC") wl in
  checki "NoCC leaves" 70 s.Explore.schedules;
  checki "nothing pruned" 0 s.Explore.pruned;
  checkb "lost updates rediscovered" true (s.Explore.anomalies > 0);
  (* HDD certifies every single interleaving.  Its leaf count is below
     70: a protocol-B write rejection aborts the program early, so the
     rejected branch has fewer remaining steps to interleave. *)
  let h = Explore.explore ~prune:false Explore.hdd wl in
  checki "HDD anomalies" 0 h.Explore.anomalies;
  checkb "HDD explored" true (h.Explore.schedules > 0);
  checkb "HDD rejection path exercised" true (h.Explore.rejections > 0)

let test_fig1_witness_cycle () =
  let wl = Scenarios.fig1.Scenarios.workload in
  let s = Explore.explore (Explore.system "NoCC") wl in
  match s.Explore.examples with
  | [] -> Alcotest.fail "expected an anomalous example"
  | tr :: _ -> (
    checkb "verdict refused" false tr.Explore.t_verdict.Certifier.serializable;
    match tr.Explore.t_verdict.Certifier.cycle with
    | Some cycle -> checkb "witness cycle" true (List.length cycle >= 2)
    | None -> Alcotest.fail "expected a witness cycle")

let test_fig1_2pl_deadlocks () =
  let wl = Scenarios.fig1.Scenarios.workload in
  let s = Explore.explore (Explore.system "2PL") wl in
  checkb "2PL deadlocks somewhere" true (s.Explore.deadlocks > 0);
  checki "2PL stays serializable" 0 s.Explore.anomalies

(* --- sleep-set pruning is sound: same behaviours, fewer runs --- *)

let signature (tr : Explore.trial) =
  ( List.sort compare tr.Explore.t_committed,
    List.sort compare tr.Explore.t_aborted,
    tr.Explore.t_deadlock,
    tr.Explore.t_verdict.Certifier.serializable )

let behaviours ~prune sys wl =
  let set = Hashtbl.create 64 in
  let s =
    Explore.explore ~prune ~on_trial:(fun tr ->
        Hashtbl.replace set (signature tr) ())
      sys wl
  in
  let sigs = Hashtbl.fold (fun k () acc -> k :: acc) set [] in
  (s, List.sort compare sigs)

let test_pruning_preserves_behaviours () =
  let wl = Scenarios.fig1.Scenarios.workload in
  List.iter
    (fun name ->
      let sys = Explore.system name in
      let full, sig_full = behaviours ~prune:false sys wl in
      let pruned, sig_pruned = behaviours ~prune:true sys wl in
      checkb (name ^ ": same behaviour set") true (sig_full = sig_pruned);
      checkb
        (name ^ ": pruning only removes runs")
        true
        (pruned.Explore.schedules <= full.Explore.schedules);
      checki
        (name ^ ": same anomaly presence")
        (min 1 full.Explore.anomalies)
        (min 1 pruned.Explore.anomalies))
    [ "HDD"; "2PL"; "TSO-noRTS"; "Prudent"; "NoCC" ]

(* --- tolerant replay --- *)

let test_run_schedule_tolerant () =
  let wl = Scenarios.fig1.Scenarios.workload in
  (* junk indices are skipped; quiesce completes the rest *)
  let tr = Explore.run_schedule Explore.hdd wl [ 9; -3; 0; 0; 7; 1; 0 ] in
  checki "all programs finished" 2
    (List.length tr.Explore.t_committed + List.length tr.Explore.t_aborted);
  checkb "serializable" true tr.Explore.t_verdict.Certifier.serializable;
  let tr2 = Explore.run_schedule Explore.hdd wl [ 9; -3; 0; 0; 7; 1; 0 ] in
  checkb "deterministic replay" true
    (tr.Explore.t_events = tr2.Explore.t_events)

(* --- shrinking --- *)

let first_anomaly sys wl =
  let s = Explore.explore sys wl in
  match s.Explore.examples with
  | tr :: _ -> tr
  | [] -> Alcotest.fail "expected an anomalous trial"

let test_shrink_lost_update () =
  let wl = Scenarios.fig1.Scenarios.workload in
  let sys = Explore.system "NoCC" in
  let tr = first_anomaly sys wl in
  match Shrink.minimize sys wl tr.Explore.t_schedule with
  | None -> Alcotest.fail "minimize lost the failure"
  | Some r ->
    checkb "still failing" false
      r.Shrink.r_trial.Explore.t_verdict.Certifier.serializable;
    (* the lost update needs both programs and all four operations *)
    checki "both programs survive" 2
      (List.length r.Shrink.r_workload.Explore.progs);
    checki "irreducible op count" 4
      (List.fold_left
         (fun acc (p : Explore.prog) -> acc + List.length p.Explore.ops)
         0 r.Shrink.r_workload.Explore.progs);
    (* a second pass finds nothing more to delete *)
    (match
       Shrink.minimize sys r.Shrink.r_workload r.Shrink.r_schedule
     with
    | None -> Alcotest.fail "shrunk schedule no longer fails"
    | Some r2 -> checki "fixpoint" 0 r2.Shrink.r_deleted);
    (* the report renders and names the witness *)
    let report = Format.asprintf "%a" Shrink.pp_report r in
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
      at 0
    in
    checkb "report shows witness" true (contains report "witness")

let test_shrink_none_on_success () =
  let wl = Scenarios.fig1.Scenarios.workload in
  (* a serial schedule is serializable everywhere *)
  let serial = [ 0; 0; 0; 0; 1; 1; 1; 1 ] in
  checkb "nothing to shrink" true
    (Shrink.minimize (Explore.system "NoCC") wl serial = None)

(* --- seeded properties --- *)

let prop_tst_specs_build =
  QCheck2.Test.make ~name:"gen: tst specs validate" ~count:200
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create seed in
      match Hdd_core.Partition.build (Gen.tst_spec g) with
      | Ok _ -> true
      | Error _ -> false)

let prop_non_tst_specs_rejected =
  QCheck2.Test.make ~name:"gen: non-tst specs rejected" ~count:200
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create seed in
      match Hdd_core.Partition.build (Gen.non_tst_spec g) with
      | Ok _ -> false
      | Error _ -> true)

(* One seed of the explorer properties: a random workload (every other
   seed with ad-hoc transactions) and a random schedule over it. *)
let random_case seed =
  let g = Prng.create seed in
  let wl = Gen.workload ~adhoc:(seed mod 2 = 0) g in
  (wl, Gen.schedule g wl)

let certifies sys (wl, sched) =
  (Explore.run_schedule sys wl sched).Explore.t_verdict.Certifier.serializable

let hdd_seed_certifies seed = certifies Explore.hdd (random_case seed)

(* the baselines that fail to certify the seed's schedule *)
let baselines_failing seed =
  let case = random_case seed in
  List.filter
    (fun name -> not (certifies (Explore.system name) case))
    [ "2PL"; "TSO"; "MVTO"; "MV2PL"; "SDD-1"; "Prudent" ]

let prop_hdd_random_schedules_serializable =
  QCheck2.Test.make
    ~name:"explore: HDD certifies random workloads and schedules"
    ~count:150
    QCheck2.Gen.(int_range 0 100000)
    hdd_seed_certifies

let prop_baselines_random_schedules_serializable =
  QCheck2.Test.make
    ~name:"explore: full-strength baselines certify random schedules"
    ~count:40
    QCheck2.Gen.(int_range 0 100000)
    (fun seed -> baselines_failing seed = [])

(* The same two properties over every seed 0..N-1 in order, so a
   counterexample the random draws hit once in a while fails every run
   that covers it.  N is HDD_EXPLORE_SEEDS (nightly: 600001). *)
let test_explore_seed_sweep () =
  let n = Fixtures.seeds_from_env ~default:2000 "HDD_EXPLORE_SEEDS" in
  let failing = ref [] in
  for seed = 0 to n - 1 do
    if not (hdd_seed_certifies seed) then
      failing := Printf.sprintf "%d HDD" seed :: !failing;
    List.iter
      (fun name -> failing := Printf.sprintf "%d %s" seed name :: !failing)
      (baselines_failing seed)
  done;
  Alcotest.(check (list string))
    (Printf.sprintf "seeds 0..%d that fail to certify" (n - 1))
    [] (List.rev !failing)

(* --- counterexamples the sweep found, pinned as shrunk schedules --- *)

(* D0 is the top: t1 reads D0, t2 reads D1 — and D0 through its
   critical path, though its type does not declare it *)
let chain3 =
  let ty = Hdd_core.Spec.txn_type in
  Hdd_core.Partition.build_exn
    (Hdd_core.Spec.make ~segments:[ "D0"; "D1"; "D2" ]
       ~types:
         [ ty ~name:"t0" ~writes:[ 0 ] ~reads:[ 0 ];
           ty ~name:"t1" ~writes:[ 1 ] ~reads:[ 0; 1 ];
           ty ~name:"t2" ~writes:[ 2 ] ~reads:[ 1; 2 ] ])

let d seg key = Granule.make ~segment:seg ~key

let pinned_trial sys progs schedule =
  let wl =
    { Explore.name = "pinned"; partition = chain3; init = (fun _ -> 0); progs }
  in
  Explore.run_schedule sys wl schedule

(* Seed 78432, shrunk (§7.1.1 retention hole): u1 in T0 stays active, so
   I_old(T0) stays at I(u1); an ad-hoc update writes D0/1, reads D1/0 and
   commits; u0 in T1 begins after the ad-hoc window and reads D0/1 at
   A_1^0(I(u0)) = I(u1), below the ad-hoc's timestamp, then writes D1/0:
   adhoc -> u0 -> adhoc.  The read must be refused. *)
let test_pinned_adhoc_retention () =
  let tr =
    pinned_trial Explore.hdd
      [ { Explore.label = "u1"; kind = Controller.Update 0; ops = [] };
        { label = "adhoc";
          kind = Controller.Adhoc { writes = [ 0 ]; reads = [ 0; 1 ] };
          ops = [ Write (d 0 1, 5); Read (d 1 0) ] };
        { label = "u0"; kind = Controller.Update 1;
          ops = [ Read (d 0 1); Write (d 1 0, 6) ] } ]
      [ 0; 1; 1; 1; 1; 2; 2; 2; 2; 0 ]
  in
  checkb "certifies" true tr.Explore.t_verdict.Certifier.serializable;
  checkb "u0's read refused" true (List.mem 2 tr.Explore.t_aborted)

(* Seed 27330, shrunk (SDD-1 conflict analysis): u1 in T2 reads D0/1 —
   allowed by T2's critical path, not by its declared type — and u0 in
   T0 writes D0/1 and commits before u1 reads it again.  The younger
   writer must wait for the older reader. *)
let test_pinned_sdd1_transitive_read () =
  let tr =
    pinned_trial (Explore.system "SDD-1")
      [ { Explore.label = "u1"; kind = Controller.Update 2;
          ops = [ Read (d 0 1); Read (d 0 1) ] };
        { label = "u0"; kind = Controller.Update 0;
          ops = [ Write (d 0 1, 7) ] } ]
      [ 0; 0; 1; 1; 1; 0; 0 ]
  in
  checkb "certifies" true tr.Explore.t_verdict.Certifier.serializable;
  checkb "both commit" true
    (List.sort compare tr.Explore.t_committed = [ 0; 1 ])

(* Protocols A and C: reads outside the root segment never block and
   never reject — in ad-hoc-free workloads for updates (the §7.1.1
   barrier may reject an updater inside an ad-hoc window), and
   unconditionally for read-only transactions. *)
let watched_hdd violations ~adhoc_free =
  { Explore.sys_name = "HDD+watch";
    build =
      (fun ~log wl ->
        let ctrl =
          Adapters.hdd ~log ~partition:wl.Explore.partition
            ~init:wl.Explore.init ()
        in
        Controller.with_hooks
          ~on_read:(fun txn g outcome ->
            let cross =
              match txn.Txn.kind with
              | Txn.Read_only -> true
              | Txn.Update c -> adhoc_free && g.Granule.segment <> c
            in
            match outcome with
            | Outcome.Granted _ -> ()
            | Outcome.Blocked _ | Outcome.Rejected _ ->
              if cross then incr violations)
          ctrl) }

let prop_protocol_a_c_no_wait_no_reject =
  QCheck2.Test.make
    ~name:"scheduler: protocol A/C reads never wait, never reject"
    ~count:150
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create seed in
      let adhoc = seed mod 3 = 0 in
      let wl = Gen.workload ~adhoc g in
      let violations = ref 0 in
      let sys = watched_hdd violations ~adhoc_free:(not adhoc) in
      let _ = Explore.run_schedule sys wl (Gen.schedule g wl) in
      !violations = 0)

(* Protocol C consistency: the threshold a read-only transaction gets in
   every segment is exactly the matching component of the latest wall
   released strictly before its initiation. *)
let prop_read_only_thresholds_match_wall =
  QCheck2.Test.make
    ~name:"scheduler: read-only thresholds equal the governing wall"
    ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create seed in
      let wl = Gen.workload g in
      let n = Hdd_core.Partition.segment_count wl.Explore.partition in
      let ok = ref true in
      let sys =
        { Explore.sys_name = "HDD+walls";
          build =
            (fun ~log wl ->
              let ctrl, sched, _clock =
                Adapters.hdd_detailed ~log ~wall_every_commits:1
                  ~partition:wl.Explore.partition ~init:wl.Explore.init ()
              in
              let mgr = Scheduler.wall_manager sched in
              Controller.with_hooks
                ~on_begin:(fun kind txn ->
                  match kind with
                  | Controller.Read_only -> (
                    match Timewall.latest_before mgr txn.Txn.init with
                    | None -> ok := false
                    | Some wall ->
                      for s = 0 to n - 1 do
                        match Scheduler.read_threshold sched txn ~segment:s with
                        | Some th ->
                          if th <> Timewall.threshold wall ~class_id:s then
                            ok := false
                        | None -> ok := false
                      done)
                  | _ -> ())
                ctrl) }
      in
      let _ = Explore.run_schedule sys wl (Gen.schedule g wl) in
      !ok)

(* Clock domination: successive walls dominate each other component-wise
   and never reference the future. *)
let prop_walls_monotone =
  QCheck2.Test.make ~name:"scheduler: released walls are monotone"
    ~count:100
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let g = Prng.create seed in
      let wl = Gen.workload ~adhoc:(seed mod 2 = 0) g in
      let n = Hdd_core.Partition.segment_count wl.Explore.partition in
      let captured = ref None in
      let sys =
        { Explore.sys_name = "HDD+monotone";
          build =
            (fun ~log wl ->
              let ctrl, sched, clock =
                Adapters.hdd_detailed ~log ~wall_every_commits:1
                  ~partition:wl.Explore.partition ~init:wl.Explore.init ()
              in
              captured := Some (sched, clock);
              ctrl) }
      in
      let _ = Explore.run_schedule sys wl (Gen.schedule g wl) in
      match !captured with
      | None -> false
      | Some (sched, clock) ->
        let walls = Timewall.released (Scheduler.wall_manager sched) in
        let now = Time.Clock.now clock in
        let dominated = ref true in
        let rec pairs = function
          | w1 :: (w2 :: _ as rest) ->
            if not (w1.Timewall.released_at < w2.Timewall.released_at) then
              dominated := false;
            for c = 0 to n - 1 do
              if
                Timewall.threshold w1 ~class_id:c
                > Timewall.threshold w2 ~class_id:c
              then dominated := false
            done;
            pairs rest
          | _ -> ()
        in
        pairs walls;
        List.iter
          (fun w ->
            if w.Timewall.released_at > now then dominated := false;
            for c = 0 to n - 1 do
              if Timewall.threshold w ~class_id:c > now then
                dominated := false
            done)
          walls;
        List.length walls >= 1 && !dominated)

let suite =
  [ Alcotest.test_case "conformance: all scenarios, all systems" `Quick
      test_scenario_conformance;
    Alcotest.test_case "fig1: exhaustive interleaving counts" `Quick
      test_fig1_exhaustive_counts;
    Alcotest.test_case "fig1: anomaly carries a witness cycle" `Quick
      test_fig1_witness_cycle;
    Alcotest.test_case "fig1: 2PL deadlocks instead of corrupting" `Quick
      test_fig1_2pl_deadlocks;
    Alcotest.test_case "pruning: sleep sets preserve behaviours" `Quick
      test_pruning_preserves_behaviours;
    Alcotest.test_case "replay: tolerant and deterministic" `Quick
      test_run_schedule_tolerant;
    Alcotest.test_case "shrink: lost update minimizes to 4 ops" `Quick
      test_shrink_lost_update;
    Alcotest.test_case "shrink: serializable runs yield None" `Quick
      test_shrink_none_on_success;
    QCheck_alcotest.to_alcotest prop_tst_specs_build;
    QCheck_alcotest.to_alcotest prop_non_tst_specs_rejected;
    QCheck_alcotest.to_alcotest prop_hdd_random_schedules_serializable;
    QCheck_alcotest.to_alcotest prop_baselines_random_schedules_serializable;
    QCheck_alcotest.to_alcotest prop_protocol_a_c_no_wait_no_reject;
    QCheck_alcotest.to_alcotest prop_read_only_thresholds_match_wall;
    QCheck_alcotest.to_alcotest prop_walls_monotone;
    Alcotest.test_case "explore: seed sweep, HDD and baselines" `Quick
      test_explore_seed_sweep;
    Alcotest.test_case "explore: pinned ad-hoc retention hole" `Quick
      test_pinned_adhoc_retention;
    Alcotest.test_case "explore: pinned SDD-1 transitive read" `Quick
      test_pinned_sdd1_transitive_read ]

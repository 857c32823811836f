(* The dynamic-decomposition layer (DESIGN.md §17): the
   repartition-equivalence property (live ownership migrations behind
   park barriers are invisible to the four-check differential oracle
   and to per-descriptor outcomes), the TST-ness mutation property
   (advisor moves can never produce an illegal hierarchy — on failure
   the shrinker prints the violating DHG edge), the drift detector's
   hotspot and tst-break signals, exact state carry across executor
   swaps, the monitor's Partition-epoch invariant shown to fire on
   forged traces, and byte-stable goldens for the two drift scenarios.

   Reduced seed count in-tree; nightly raises HDD_ADAPT_SEEDS. *)

module T = Hdd_obs.Trace
module Monitor = Hdd_obs.Monitor
module Spec = Hdd_core.Spec
module P = Hdd_core.Partition
module Sched = Hdd_core.Scheduler
module E = Hdd_runtime.Engine
module D = Hdd_runtime.Differential
module Drift = Hdd_adapt.Drift
module Advise = Hdd_adapt.Advise
module Exec = Hdd_adapt.Exec
module Scenario = Hdd_adapt.Scenario
module Gen = Hdd_check.Gen
module Prng = Hdd_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains = Fixtures.contains
let adapt_seeds () = Fixtures.seeds_from_env "HDD_ADAPT_SEEDS"

(* --- the repartition-equivalence property --- *)

(* Same script, same engine config, twice: once plan-free, once with a
   whole-map ownership rotation available at every coordinator wall
   opportunity.  Outcomes must match descriptor by descriptor, both
   runs must pass the four-check oracle, and the plan run must actually
   have repartitioned. *)
let test_repartition_equivalence () =
  let seeds = adapt_seeds () in
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
  for seed = 1 to seeds do
    let workers = Fixtures.scaled_workers seed in
    let prng = Prng.create (seed * 2 + 1) in
    let partition =
      if seed land 1 = 0 then D.chain_partition (4 + Prng.int prng 5)
      else D.tree_partition (3 + Prng.int prng 3)
    in
    let script =
      D.gen_script ~partition ~seed ~txns:60 ~ro_frac:0.25 ~abort_frac:0.15 ()
    in
    let config = E.default_config ~workers in
    let init = D.default_init in
    let run0 = E.run_script ~partition ~init config ~script in
    let plan =
      D.rotation_plan ~segments:(P.segment_count partition) ~workers 8
    in
    let run1 = E.run_script ~partition ~init ~plan config ~script in
    if run1.E.stats.E.repartitions < 1 then
      fail "seed %d (%d workers): no repartition ran" seed workers;
    if run0.E.outcomes <> run1.E.outcomes then
      fail "seed %d (%d workers): outcomes diverge under repartitions" seed
        workers;
    let r0 = D.check_run ~partition ~init ~script run0 in
    let r1 = D.check_run ~partition ~init ~script run1 in
    if not (D.ok r0) then
      fail "seed %d (%d workers) plan-free: %a" seed workers D.pp_report r0;
    if not (D.ok r1) then
      fail "seed %d (%d workers) with plan: %a" seed workers D.pp_report r1
  done;
  if !failures <> [] then
    Alcotest.failf "%d equivalence failures:@.%s" (List.length !failures)
      (String.concat "\n" (List.rev !failures))

(* The ISSUE's acceptance shape, pinned explicitly: oracle green at 2,
   4 and 8 domains with at least one live repartition per run. *)
let test_oracle_under_migration_2_4_8 () =
  List.iter
    (fun workers ->
      let r =
        D.stress_one ~repartitions:3 ~seed:(100 + workers) ~workers ~txns:80
          ~profile:D.Mixed ()
      in
      checkb
        (Printf.sprintf "oracle green at %d domains" workers)
        true (D.ok r);
      checkb
        (Printf.sprintf "repartitioned at %d domains" workers)
        true
        (r.D.r_stats.repartitions >= 1))
    [ 2; 4; 8 ]

(* --- the TST-ness mutation property --- *)

let pp_moves moves =
  String.concat "; "
    (List.rev_map (Format.asprintf "%a" Advise.pp_move) moves)

(* Random TST specs mutated by random advisor moves stay
   TST-hierarchical at every step.  Splits must always validate;
   merges are drawn from the advisor's own candidate enumeration, so a
   candidate that fails to build is an advisor bug.  The failure
   output is the shrunk witness: the exact move sequence and the DHG
   edge the build error names. *)
let test_advisor_moves_preserve_tst () =
  let seeds = Int.max 100 (adapt_seeds ()) in
  for seed = 1 to seeds do
    let prng = Prng.create (seed * 7 + 3) in
    let spec = ref (Gen.tst_spec prng) in
    let applied = ref [] in
    for _step = 1 to 4 do
      let n = Spec.segment_count !spec in
      let candidates = Advise.merge_candidates !spec in
      let pick_merge = candidates <> [] && Prng.bool prng in
      let move =
        if pick_merge then begin
          let a, b = List.nth candidates (Prng.int prng (List.length candidates)) in
          Advise.Merge { a; b }
        end
        else Advise.Split { segment = Prng.int prng n; pivot = 8 }
      in
      let next =
        match move with
        | Advise.Merge { a; b } -> fst (Advise.merge_spec !spec ~a ~b)
        | Advise.Split { segment; _ } -> Advise.split_spec !spec ~segment
        | Advise.Migrate _ -> !spec
      in
      applied := move :: !applied;
      (match P.build next with
      | Ok _ -> ()
      | Error e ->
        let a, b = Drift.witness_edge e in
        Alcotest.failf
          "seed %d: advisor move broke TST-ness at DHG edge (%d, %d)@.moves: \
           %s@.error: %s"
          seed a b (pp_moves !applied) (P.error_to_string e));
      spec := next
    done
  done

(* --- the drift detector --- *)

let chain_spec depth =
  Spec.make
    ~segments:(List.init depth (fun i -> Printf.sprintf "D%d" i))
    ~types:
      (List.init depth (fun i ->
           Spec.txn_type
             ~name:(Printf.sprintf "t%d" i)
             ~writes:[ i ]
             ~reads:(if i < depth - 1 then [ i; i + 1 ] else [ i ])))

let rcd =
  let seq = ref 0 in
  fun ev ->
    incr seq;
    { T.seq = !seq; at = !seq; dom = 0; ev }

let commit_burst ~cls ~n ~from =
  List.concat
    (List.init n (fun i ->
         let txn = from + i in
         [ rcd (T.Begin { txn; kind = T.Update cls; init = txn });
           rcd (T.Commit { txn; at = txn }) ]))

let test_drift_hotspot () =
  let cfg = { Drift.default_config with min_commits = 16 } in
  let d = Drift.create ~config:cfg ~spec:(chain_spec 4) () in
  (* below min_commits: silent even at 100% share *)
  Drift.observe d (commit_burst ~cls:1 ~n:8 ~from:1);
  checki "silent below min_commits" 0 (List.length (Drift.signals d));
  (* past the threshold the hottest class is flagged with its share *)
  Drift.observe d (commit_burst ~cls:1 ~n:16 ~from:100);
  (match Drift.signals d with
  | [ Drift.Hotspot { class_id; share; commits } ] ->
    checki "hot class" 1 class_id;
    checki "window commits" 24 commits;
    checkb "share is total" true (share = 1.0)
  | sigs ->
    Alcotest.failf "expected one hotspot, got %d signals" (List.length sigs));
  (* a balanced tail dilutes the share below threshold *)
  Drift.observe d (commit_burst ~cls:0 ~n:20 ~from:200);
  Drift.observe d (commit_burst ~cls:2 ~n:20 ~from:300);
  checki "balanced window is silent" 0 (List.length (Drift.signals d))

let test_drift_tst_break () =
  let cfg = { Drift.default_config with adhoc_promote = 3 } in
  let d = Drift.create ~config:cfg ~spec:(chain_spec 3) () in
  (* a recurring ad-hoc writer of D2 reading D0 bends the chain
     0 -> 1 -> 2 into a cycle *)
  let adhoc txn =
    [ rcd
        (T.Begin
           { txn;
             kind = T.Adhoc { wsegs = [ 2 ]; rsegs = [ 0; 2 ] };
             init = txn });
      rcd (T.Commit { txn; at = txn }) ]
  in
  Drift.observe d (adhoc 1);
  Drift.observe d (adhoc 2);
  checki "below promotion threshold" 0 (List.length (Drift.signals d));
  Drift.observe d (adhoc 3);
  (match Drift.signals d with
  | [ Drift.Tst_break { edge; wsegs; rsegs; error } ] ->
    checkb "footprint recorded" true (wsegs = [ 2 ] && rsegs = [ 0; 2 ]);
    let a, b = edge in
    checkb "edge names real segments" true (a >= 0 && b >= 0 && a <> b);
    (match error with
    | P.Cyclic _ | P.Not_semi_tree _ -> ()
    | e -> Alcotest.failf "unexpected error: %s" (P.error_to_string e))
  | sigs ->
    Alcotest.failf "expected one tst-break, got %d signals"
      (List.length sigs));
  (* the observed spec admits the promoted footprint as a real type *)
  let ospec = Drift.observed_spec d in
  checki "promoted type joined the analysis" 4
    (Array.length ospec.Spec.types);
  (* and the advisor's repair restores legality *)
  match Advise.propose ~workers:2 d with
  | { Advise.move = Advise.Merge _; spec = Some repaired; _ } :: _ ->
    checkb "repaired spec validates" true
      (match P.build repaired with Ok _ -> true | Error _ -> false)
  | _ -> Alcotest.fail "expected a merge repair first"

(* --- the executor: exact state carry across swaps --- *)

let test_executor_carries_state () =
  let seeds = Int.max 50 (adapt_seeds () / 2) in
  for seed = 1 to seeds do
    let prng = Prng.create (seed * 11 + 5) in
    let depth = 3 + Prng.int prng 3 in
    let trace = T.create ~capacity:65536 () in
    let x =
      Exec.create ~trace ~spec:(chain_spec depth) ~init:(fun _ -> 0) ()
    in
    (* keys are disjoint per original segment, so the executor's remap
       stays injective through merges and the carried values must match
       the writes exactly — no newest-wins collision resolution hides a
       loss *)
    let keyspace = 8 in
    let written = Hashtbl.create 32 in
    let run_updates n =
      for _ = 1 to n do
        let cls = Prng.int prng (Spec.segment_count (Exec.spec x)) in
        let key = (cls * keyspace) + Prng.int prng keyspace in
        let v = Prng.int prng 10000 in
        let s = Exec.scheduler x in
        let t = Sched.begin_update s ~class_id:cls in
        let g = Granule.make ~segment:cls ~key in
        ignore (Sched.read s t g);
        match Sched.write s t g v with
        | Hdd_core.Outcome.Granted () ->
          Sched.commit s t;
          Hashtbl.replace written (cls, key) v
        | _ -> Sched.abort s t
      done
    in
    (* phase 1 writes against the original decomposition; granules keep
       their original addresses through every later repair *)
    run_updates 30;
    let snapshot () =
      Hashtbl.fold
        (fun (seg, key) _ acc ->
          ((seg, key), Exec.value x (Granule.make ~segment:seg ~key)) :: acc)
        written []
      |> List.sort compare
    in
    let before = snapshot () in
    List.iter
      (fun ((seg, key), v) ->
        match Hashtbl.find_opt written (seg, key) with
        | Some w when w <> v ->
          Alcotest.failf "seed %d: wrote %d to D%d/%d but read %d" seed w seg
            key v
        | _ -> ())
      before;
    (* 1-3 random repairs, each validated then applied at quiescence *)
    let repairs = 1 + Prng.int prng 3 in
    for _ = 1 to repairs do
      let spec = Exec.spec x in
      let n = Spec.segment_count spec in
      let candidates = Advise.merge_candidates spec in
      let move =
        if candidates <> [] && Prng.bool prng then begin
          let a, b =
            List.nth candidates (Prng.int prng (List.length candidates))
          in
          Advise.Merge { a; b }
        end
        else Advise.Split { segment = Prng.int prng n; pivot = keyspace / 2 }
      in
      (match Exec.apply x move with
      | Ok () -> ()
      | Error e ->
        Alcotest.failf "seed %d: %a rejected: %s" seed
          (fun ppf -> Format.fprintf ppf "%a" Advise.pp_move)
          move e);
      let after = snapshot () in
      if before <> after then
        Alcotest.failf "seed %d: values drifted across %a" seed
          (fun ppf -> Format.fprintf ppf "%a" Advise.pp_move)
          move
    done;
    checki (Printf.sprintf "seed %d: epoch counts repairs" seed) repairs
      (Exec.epoch x);
    (* the repaired decomposition still serves traffic, and the whole
       trace replays clean through the monitor *)
    run_updates 10;
    let m = Monitor.create ~raise_on_violation:false ~wall_rule:`Any_released () in
    List.iter (Monitor.feed m) (T.records trace);
    (match Monitor.violations m with
    | [] -> ()
    | vs ->
      Alcotest.failf "seed %d: monitor violations:@.%s" seed
        (String.concat "\n" vs));
    checki
      (Printf.sprintf "seed %d: monitor saw every epoch" seed)
      repairs (Monitor.last_epoch m)
  done

(* --- the monitor's Partition-epoch invariant, shown to fire --- *)

let repart ~epoch ?(kind = "migrate") ?(fresh_store = false) () =
  rcd (T.Repartition { epoch; kind; moved = [ 0 ]; fresh_store })

let violations_of records =
  let m = Monitor.create ~raise_on_violation:false ~wall_rule:`Any_released () in
  List.iter (Monitor.feed m) records;
  Monitor.violations m

let test_monitor_epoch_monotonic () =
  (* forward motion is clean *)
  checki "increasing epochs pass" 0
    (List.length
       (violations_of [ repart ~epoch:1 (); repart ~epoch:2 () ]));
  (* backwards and repeated epochs fire *)
  (match violations_of [ repart ~epoch:2 (); repart ~epoch:1 () ] with
  | [ v ] ->
    checkb "violation names the epochs" true
      (contains v "epoch" && contains v "1" && contains v "2")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  checki "equal epoch fires" 1
    (List.length (violations_of [ repart ~epoch:3 (); repart ~epoch:3 () ]))

let test_monitor_no_active_at_repartition () =
  let active_then_repart =
    [ rcd (T.Begin { txn = 7; kind = T.Update 0; init = 1 });
      repart ~epoch:1 () ]
  in
  (match violations_of active_then_repart with
  | [ v ] ->
    checkb "violation names the straggler" true
      (contains v "[7]")
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs));
  (* committed-before is fine *)
  checki "quiescent repartition passes" 0
    (List.length
       (violations_of
          [ rcd (T.Begin { txn = 7; kind = T.Update 0; init = 1 });
            rcd (T.Commit { txn = 7; at = 2 });
            repart ~epoch:1 () ]))

let test_monitor_fresh_store_reset () =
  (* a committed version, then a repartition, then a bootstrap read
     below the old version: legal only if the swap declared a fresh
     store (the shadow DB must reset with it) *)
  let stream ~fresh_store =
    [ rcd (T.Begin { txn = 1; kind = T.Update 0; init = 5 });
      rcd (T.Write { txn = 1; segment = 0; key = 0; ts = 5 });
      rcd (T.Commit { txn = 1; at = 6 });
      repart ~epoch:1 ~kind:"split" ~fresh_store ();
      rcd (T.Begin { txn = 2; kind = T.Update 0; init = 10 });
      rcd
        (T.Read
           { txn = 2; protocol = T.B; segment = 0; key = 0; threshold = 10;
             version = 0 });
      rcd (T.Commit { txn = 2; at = 11 }) ]
  in
  checki "stale read fires without a fresh store" 1
    (List.length (violations_of (stream ~fresh_store:false)));
  checki "fresh store resets the shadow" 0
    (List.length (violations_of (stream ~fresh_store:true)))

(* --- golden traces for the two drift scenarios --- *)

let golden_file (gl : Scenario.golden) =
  Filename.concat "golden" ("adapt_" ^ gl.Scenario.g_name ^ ".trace")

let read_file = Fixtures.read_file

let golden_text gl = T.text_of_records (Scenario.golden_records gl)

let test_golden_traces () =
  match Fixtures.golden_update_dir () with
  | Some dir ->
    List.iter
      (fun (gl : Scenario.golden) ->
        let path =
          Filename.concat dir ("adapt_" ^ gl.Scenario.g_name ^ ".trace")
        in
        let oc = open_out_bin path in
        output_string oc (golden_text gl);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      Scenario.goldens
  | _ ->
    List.iter
      (fun (gl : Scenario.golden) ->
        let name = gl.Scenario.g_name in
        let current = golden_text gl in
        checks
          (Printf.sprintf "adapt %s: run-to-run stable" name)
          current (golden_text gl);
        checkb
          (Printf.sprintf "adapt %s: contains a repartition" name)
          true
          (contains current "repartition");
        let path = golden_file gl in
        if not (Sys.file_exists path) then
          Alcotest.failf
            "%s missing — regenerate with HDD_GOLDEN_UPDATE=test/golden" path;
        checks
          (Printf.sprintf "adapt %s: matches golden" name)
          (read_file path) current)
      Scenario.goldens

let test_golden_scenarios_replay_clean () =
  List.iter
    (fun gl ->
      let records = Scenario.golden_records gl in
      match violations_of records with
      | [] -> ()
      | vs ->
        Alcotest.failf "%s: monitor violations:@.%s" gl.Scenario.g_name
          (String.concat "\n" vs))
    Scenario.goldens

(* --- the adapt benchmark's structure --- *)

let test_adaptbench_quick () =
  let r =
    Hdd_adapt.Adaptbench.run ~workers:2 ~seconds:0.2 ~rotate_every_s:0.05
      ~depth:4 ()
  in
  checkb "live run repartitioned" true (r.Hdd_adapt.Adaptbench.a_live_repartitions >= 1);
  checkb "steady committed" true (r.Hdd_adapt.Adaptbench.a_steady_committed > 0);
  checkb "live committed" true (r.Hdd_adapt.Adaptbench.a_live_committed > 0);
  checkb "stw committed" true (r.Hdd_adapt.Adaptbench.a_stw_committed > 0);
  let j = Hdd_adapt.Adaptbench.to_json r in
  let module J = Hdd_benchkit.Jsonlite in
  List.iter
    (fun path ->
      match J.path path j with
      | Some _ -> ()
      | None ->
        Alcotest.failf "BENCH_adapt.json missing %s" (String.concat "." path))
    [ [ "retention_live" ];
      [ "retention_floor" ];
      [ "live"; "repartitions" ];
      [ "stop_the_world"; "restarts" ] ]

let suite =
  [ Alcotest.test_case "repartition equivalence: plan vs plan-free" `Quick
      test_repartition_equivalence;
    Alcotest.test_case "oracle green with migrations at 2/4/8 domains"
      `Quick test_oracle_under_migration_2_4_8;
    Alcotest.test_case "advisor moves preserve TST-ness (mutation property)"
      `Quick test_advisor_moves_preserve_tst;
    Alcotest.test_case "drift: hotspot signal" `Quick test_drift_hotspot;
    Alcotest.test_case "drift: tst-break signal and merge repair" `Quick
      test_drift_tst_break;
    Alcotest.test_case "executor: exact state carry across swaps" `Quick
      test_executor_carries_state;
    Alcotest.test_case "monitor: partition epoch monotonicity fires" `Quick
      test_monitor_epoch_monotonic;
    Alcotest.test_case "monitor: no active transactions at a repartition"
      `Quick test_monitor_no_active_at_repartition;
    Alcotest.test_case "monitor: fresh_store resets the shadow DB" `Quick
      test_monitor_fresh_store_reset;
    Alcotest.test_case "golden adapt traces byte-stable" `Quick
      test_golden_traces;
    Alcotest.test_case "golden scenarios replay clean" `Quick
      test_golden_scenarios_replay_clean;
    Alcotest.test_case "adaptbench: structure and gates input" `Quick
      test_adaptbench_quick ]

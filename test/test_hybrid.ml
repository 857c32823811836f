(* Adaptive hybrid CC and the open-loop workload suite (DESIGN.md §18).

   The load-bearing property is escalation equivalence: the same seeded
   script on the multicore engine, with and without forced live CC mode
   flips, must produce identical outcomes and pass the four-check
   differential oracle in both runs — at 2, 4 and 8 worker domains.
   Around it: the serial hybrid scheduler's certification across flips,
   the monitor's escalation invariant on forged traces, a byte-stable
   golden escalation trace, the contention/policy unit layer, the
   prudent-precedence baseline the escalated mode borrows, the
   closed-loop placement controller, and the workload suite's gates.

   Reduced seed count in-tree; nightly raises HDD_HYBRID_SEEDS. *)

module R = Hdd_runtime
module E = Hdd_runtime.Engine
module D = Hdd_runtime.Differential
module T = Hdd_obs.Trace
module Monitor = Hdd_obs.Monitor
module P = Hdd_core.Partition
module Certifier = Hdd_core.Certifier
module Hy = Hdd_hybrid.Hybrid_sched
module Contention = Hdd_hybrid.Contention
module Policy = Hdd_hybrid.Policy
module Prudent = Hdd_baselines.Prudent
module Explore = Hdd_check.Explore
module Scenarios = Hdd_check.Scenarios
module Runner = Hdd_sim.Runner
module Controller = Hdd_sim.Controller
module Tpcc = Hdd_workload.Tpcc
module Prng = Hdd_util.Prng
open Hdd_core.Outcome

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checki = Alcotest.check Alcotest.int

let hybrid_seeds () = Fixtures.seeds_from_env "HDD_HYBRID_SEEDS"

(* --- the escalation-equivalence property --- *)

(* Same script, same engine config, twice: once plan-free, once with a
   forced per-class CC mode flip available at every coordinator poll
   (every class alternating, the last step restoring all-plain).
   Outcomes must match descriptor by descriptor, both runs must pass
   the four-check oracle, and the flip run must actually have
   escalated. *)
let test_escalation_equivalence () =
  let seeds = hybrid_seeds () in
  let failures = ref [] in
  let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt in
  for seed = 1 to seeds do
    let workers = Fixtures.scaled_workers seed in
    let prng = Prng.create ((seed * 2) + 1) in
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
    let mode_plan =
      D.escalation_plan ~segments:(P.segment_count partition) 6
    in
    let run1 = E.run_script ~partition ~init ~mode_plan config ~script in
    if run1.E.stats.E.escalations < 1 then
      fail "seed %d (%d workers): no mode flip ran" seed workers;
    if run0.E.outcomes <> run1.E.outcomes then
      fail "seed %d (%d workers): outcomes diverge under escalations" seed
        workers;
    let r0 = D.check_run ~partition ~init ~script run0 in
    let r1 = D.check_run ~partition ~init ~script run1 in
    if not (D.ok r0) then
      fail "seed %d (%d workers) plan-free: %a" seed workers D.pp_report r0;
    if not (D.ok r1) then
      fail "seed %d (%d workers) with flips: %a" seed workers D.pp_report r1
  done;
  if !failures <> [] then
    Alcotest.failf "%d escalation-equivalence failures:@.%s"
      (List.length !failures)
      (String.concat "\n" (List.rev !failures))

(* The ISSUE's acceptance shape, pinned explicitly: oracle green at 2,
   4 and 8 domains with live mode flips applied in each run. *)
let test_oracle_under_flips_2_4_8 () =
  List.iter
    (fun workers ->
      let r =
        D.stress_one ~escalations:3 ~seed:(200 + workers) ~workers ~txns:80
          ~profile:D.Mixed ()
      in
      checkb
        (Printf.sprintf "oracle green at %d domains" workers)
        true (D.ok r);
      checkb
        (Printf.sprintf "escalated at %d domains" workers)
        true
        (r.D.r_stats.escalations >= 1))
    [ 2; 4; 8 ]

(* Repartitions and escalations composed in one run stay green. *)
let test_flips_compose_with_repartitions () =
  let r =
    D.stress_one ~repartitions:2 ~escalations:2 ~seed:7 ~workers:4 ~txns:80
      ~profile:D.Mixed ()
  in
  checkb "oracle green under both plans" true (D.ok r);
  checkb "repartitioned" true (r.D.r_stats.repartitions >= 1);
  checkb "escalated" true (r.D.r_stats.escalations >= 1)

(* --- forged traces: the escalation invariant bites --- *)

let rec_ at ev = { T.seq = at; at; dom = 0; ev }

let feed_forged records =
  let m = Monitor.create ~raise_on_violation:false ~wall_rule:`Any_released () in
  List.iter (Monitor.feed m) records;
  Monitor.violations m

let test_forged_seq_regression () =
  let vs =
    feed_forged
      [ rec_ 1 (T.Escalation { seq = 1; modes = [ 1 ] });
        rec_ 2 (T.Escalation { seq = 1; modes = [ 0 ] }) ]
  in
  checkb "stale sequence number is a violation" true (vs <> []);
  checkb "message names the sequence" true
    (List.exists (fun v -> Fixtures.contains v "sequence") vs)

let test_forged_flip_with_txn_in_flight () =
  let vs =
    feed_forged
      [ rec_ 1 (T.Begin { txn = 1; kind = T.Update 0; init = 1 });
        rec_ 2 (T.Escalation { seq = 1; modes = [ 1 ] }) ]
  in
  checkb "flip with the class's txn in flight is a violation" true
    (vs <> []);
  checkb "message names the drain barrier" true
    (List.exists (fun v -> Fixtures.contains v "drain") vs)

let test_forged_escalated_write_at_init () =
  let vs =
    feed_forged
      [ rec_ 1 (T.Escalation { seq = 1; modes = [ 1 ] });
        rec_ 2 (T.Begin { txn = 1; kind = T.Update 0; init = 2 });
        rec_ 3 (T.Write { txn = 1; segment = 0; key = 0; ts = 2 }) ]
  in
  checkb "escalated write stamped at init is a violation" true (vs <> [])

let test_forged_legal_escalated_run_is_clean () =
  let vs =
    feed_forged
      [ rec_ 1 (T.Escalation { seq = 1; modes = [ 1 ] });
        rec_ 2 (T.Begin { txn = 1; kind = T.Update 0; init = 2 });
        rec_ 3 (T.Write { txn = 1; segment = 0; key = 0; ts = 3 });
        rec_ 4 (T.Commit { txn = 1; at = 4 });
        rec_ 5 (T.Escalation { seq = 2; modes = [ 0 ] }) ]
  in
  checks "no violations" "" (String.concat "\n" vs)

(* A flip of an unrelated class while another class's txn is in flight
   is legal — the invariant is per changed class, not global. *)
let test_forged_flip_of_other_class_is_legal () =
  let vs =
    feed_forged
      [ rec_ 1 (T.Begin { txn = 1; kind = T.Update 0; init = 1 });
        rec_ 2 (T.Escalation { seq = 1; modes = [ 0; 1 ] }) ]
  in
  checks "no violations" "" (String.concat "\n" vs)

(* --- the serial hybrid scheduler --- *)

let branch2 = Hdd_benchkit.Fixtures.branch_partition 2
let base_g k = Granule.make ~segment:2 ~key:k

let test_eligibility () =
  let el = Hy.eligible_classes branch2 in
  checkb "base class is root-only eligible" true el.(2);
  checkb "branch classes read the base and are not" false (el.(0) || el.(1));
  let h = Hy.create ~partition:branch2 ~init:(fun _ -> 0) () in
  checkb "escalating a branch class is refused" true
    (try
       Hy.request_modes h [| 1; 0; 0 |];
       false
     with Invalid_argument _ -> true);
  checkb "bad vector length is refused" true
    (try
       Hy.request_modes h [| 1 |];
       false
     with Invalid_argument _ -> true)

(* The lazy flip: a staged target waits for the changing class to
   drain, then lands at the next transaction boundary. *)
let test_flip_waits_for_drain () =
  let h = Hy.create ~partition:branch2 ~init:(fun _ -> 0) () in
  let t = Hy.begin_update h ~class_id:2 in
  Hy.request_modes h [| 0; 0; 1 |];
  checkb "flip is pending while the class has a txn in flight" true
    (Hy.pending h <> None);
  checki "mode still plain" 0 (Hy.modes h).(2);
  ignore (Hy.write h t (base_g 0) 1);
  Hy.commit h t;
  checkb "flip landed at the commit boundary" true (Hy.pending h = None);
  checki "mode escalated" 1 (Hy.modes h).(2);
  checki "one escalation applied" 1 (Hy.escalations h)

(* Escalated semantics in one deterministic script: lock-free reads
   with precedence edges, exclusive deferred writes, commit-waits,
   commit-stamped versions visible to the next transaction. *)
let test_escalated_script () =
  let log = Sched_log.create () in
  let h = Hy.create ~log ~partition:branch2 ~init:(fun _ -> 0) () in
  Hy.request_modes h [| 0; 0; 1 |];
  let w = Hy.begin_update h ~class_id:2 in
  (match Hy.write h w (base_g 0) 9 with
  | Granted () -> ()
  | _ -> Alcotest.fail "escalated write should take the free slot");
  let r = Hy.begin_update h ~class_id:2 in
  (match Hy.read h r (base_g 0) with
  | Granted 0 -> ()
  | Granted v -> Alcotest.failf "reader saw uncommitted %d" v
  | _ -> Alcotest.fail "escalated read must not wait");
  (match Hy.try_commit h w with
  | Blocked [ id ] -> checki "writer waits for the reader" id r.Txn.id
  | _ -> Alcotest.fail "writer must commit-wait on the reader");
  (match Hy.try_commit h r with
  | Granted () -> ()
  | _ -> Alcotest.fail "reader has no predecessors");
  Hy.commit h r;
  (match Hy.try_commit h w with
  | Granted () -> ()
  | _ -> Alcotest.fail "writer is free once the reader finished");
  Hy.commit h w;
  let t = Hy.begin_update h ~class_id:2 in
  (match Hy.read h t (base_g 0) with
  | Granted 9 -> ()
  | Granted v -> Alcotest.failf "expected the commit-stamped 9, got %d" v
  | _ -> Alcotest.fail "read failed");
  Hy.commit h t;
  checkb "the whole script certifies" true (Certifier.serializable log)

let test_escalated_writer_blocks_writer () =
  let h = Hy.create ~partition:branch2 ~init:(fun _ -> 0) () in
  Hy.request_modes h [| 0; 0; 1 |];
  let w1 = Hy.begin_update h ~class_id:2 in
  let w2 = Hy.begin_update h ~class_id:2 in
  ignore (Hy.write h w1 (base_g 0) 1);
  (match Hy.write h w2 (base_g 0) 2 with
  | Blocked [ id ] -> checki "second writer waits for the slot" id w1.Txn.id
  | _ -> Alcotest.fail "slot must be exclusive");
  (match Hy.try_commit h w1 with
  | Granted () -> Hy.commit h w1
  | _ -> Alcotest.fail "w1 has no predecessors");
  (match Hy.write h w2 (base_g 0) 2 with
  | Granted () -> ()
  | _ -> Alcotest.fail "slot freed by w1's commit");
  Hy.commit h w2

let test_adhoc_refused_while_escalated () =
  let h = Hy.create ~partition:branch2 ~init:(fun _ -> 0) () in
  Hy.request_modes h [| 0; 0; 1 |];
  checkb "ad hoc touching the escalated class is refused" true
    (try
       ignore (Hy.begin_adhoc_update h ~writes:[ 0 ] ~reads:[ 2 ]);
       false
     with Invalid_argument _ -> true);
  ignore (Hy.begin_adhoc_update h ~writes:[ 0 ] ~reads:[ 1 ])

(* Certification and monitor replay across flips, driven by the
   simulator over the TPC-C-shaped mix: plain, escalated and
   de-escalated phases all in one schedule log. *)
let test_certified_across_flips () =
  let wl = Tpcc.workload ~contention:`High () in
  let log = Sched_log.create () in
  let trace = T.create () in
  let h =
    Hy.create ~log ~trace ~partition:wl.Hdd_sim.Workload.partition
      ~init:wl.Hdd_sim.Workload.init ()
  in
  let stock = Tpcc.stock_class ~branches:Tpcc.default_branches in
  let segments = P.segment_count wl.Hdd_sim.Workload.partition in
  let esc = Array.make segments 0 in
  esc.(stock) <- 1;
  let flips = ref 0 in
  let controller =
    Controller.with_hooks
      ~on_finish:(fun _ ~commit:_ ->
        incr flips;
        if !flips = 40 then Hy.request_modes h esc
        else if !flips = 120 then
          Hy.request_modes h (Array.make segments 0))
      (Hy.controller h)
  in
  let config =
    { Runner.default_config with Runner.mpl = 8; target_commits = 200 }
  in
  let r = Runner.run ~trace config wl controller in
  checki "every commit arrived" 200 r.Runner.committed;
  checkb "both flips were applied" true (Hy.escalations h >= 2);
  checkb "the merged schedule certifies" true (Certifier.serializable log);
  let m =
    Monitor.create ~raise_on_violation:false ~wall_rule:`Any_released ()
  in
  List.iter (Monitor.feed m) (T.records trace);
  checks "monitor replay is clean" ""
    (String.concat "\n" (Monitor.violations m));
  checkb "monitor saw the flips" true (Monitor.last_esc_seq m >= 2)

(* The closed loop end to end: contention detection escalates the hot
   class without help, outcomes stay certified. *)
let test_auto_escalates_under_contention () =
  let wl = Tpcc.workload ~contention:`High () in
  let log = Sched_log.create () in
  let trace = T.create () in
  let h =
    Hy.create ~log ~trace ~partition:wl.Hdd_sim.Workload.partition
      ~init:wl.Hdd_sim.Workload.init ()
  in
  let controller, contention, policy =
    Hy.auto
      ~policy:
        { Policy.default_config with
          Policy.escalate_above = 0.15;
          min_finished = 8 }
      h ~trace
  in
  let config =
    { Runner.default_config with Runner.mpl = 12; target_commits = 300 }
  in
  let r = Runner.run ~trace config wl controller in
  checki "every commit arrived" 300 r.Runner.committed;
  checkb "the policy escalated the stock class" true (Hy.escalations h >= 1);
  checkb "policy counted its flips" true (Policy.flips policy >= 1);
  checkb "contention window saw traffic" true
    (Contention.window_finished contention > 0);
  checkb "schedule stays certified" true (Certifier.serializable log)

(* --- golden escalation trace --- *)

let golden_records () =
  let trace = T.create () in
  let h = Hy.create ~trace ~partition:branch2 ~init:(fun _ -> 0) () in
  let t1 = Hy.begin_update h ~class_id:2 in
  ignore (Hy.read h t1 (base_g 0));
  ignore (Hy.write h t1 (base_g 0) 7);
  Hy.commit h t1;
  Hy.request_modes h [| 0; 0; 1 |];
  let w1 = Hy.begin_update h ~class_id:2 in
  ignore (Hy.read h w1 (base_g 1));
  ignore (Hy.write h w1 (base_g 0) 9);
  let r1 = Hy.begin_update h ~class_id:2 in
  ignore (Hy.read h r1 (base_g 0));
  let w2 = Hy.begin_update h ~class_id:2 in
  ignore (Hy.write h w2 (base_g 0) 11);
  ignore (Hy.try_commit h w1);
  Hy.commit h r1;
  ignore (Hy.try_commit h w1);
  Hy.commit h w1;
  ignore (Hy.write h w2 (base_g 0) 11);
  Hy.commit h w2;
  let d = Hy.begin_update h ~class_id:0 in
  ignore (Hy.read h d (base_g 0));
  ignore (Hy.write h d (Granule.make ~segment:0 ~key:0) 1);
  Hy.commit h d;
  Hy.request_modes h [| 0; 0; 0 |];
  let t2 = Hy.begin_update h ~class_id:2 in
  ignore (Hy.write h t2 (base_g 2) 3);
  Hy.commit h t2;
  T.records trace

let golden_path = Filename.concat "golden" "hybrid_escalation.trace"

let test_golden_escalation_trace () =
  let current = T.text_of_records (golden_records ()) in
  match Fixtures.golden_update_dir () with
  | Some dir ->
    let path = Filename.concat dir "hybrid_escalation.trace" in
    let oc = open_out_bin path in
    output_string oc current;
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None ->
    checks "run-to-run stable" current (T.text_of_records (golden_records ()));
    checkb "contains both escalations" true
      (Fixtures.contains current "escalation");
    if not (Sys.file_exists golden_path) then
      Alcotest.failf
        "%s missing — regenerate with HDD_GOLDEN_UPDATE=test/golden"
        golden_path;
    checks "matches golden" (Fixtures.read_file golden_path) current

let test_golden_replays_clean () =
  let m =
    Monitor.create ~raise_on_violation:false ~wall_rule:`Any_released ()
  in
  List.iter (Monitor.feed m) (golden_records ());
  checks "no violations" "" (String.concat "\n" (Monitor.violations m));
  checki "two escalations seen" 2 (Monitor.last_esc_seq m)

(* --- contention window --- *)

let upd txn cls at = rec_ at (T.Begin { txn; kind = T.Update cls; init = at })

let test_contention_window () =
  let c = Contention.create ~window:4 ~classes:2 () in
  let finish txn at ~abort =
    Contention.feed c
      (rec_ at (if abort then T.Abort { txn; at } else T.Commit { txn; at }))
  in
  Contention.feed c (upd 1 0 1);
  Contention.feed c (rec_ 2 (T.Read { txn = 1; protocol = T.B; segment = 0;
                                      key = 0; threshold = 1; version = 0 }));
  Contention.feed c (rec_ 3 (T.Write { txn = 1; segment = 0; key = 0; ts = 1 }));
  finish 1 4 ~abort:false;
  checki "one finished attempt" 1 (Contention.finished c ~class_id:0);
  check (Alcotest.float 1e-9) "no aborts yet" 0.
    (Contention.abort_rate c ~class_id:0);
  check (Alcotest.float 1e-9) "write share" 0.5
    (Contention.write_share c ~class_id:0);
  Contention.feed c (upd 2 0 5);
  finish 2 6 ~abort:true;
  check (Alcotest.float 1e-9) "per-attempt abort rate" 0.5
    (Contention.abort_rate c ~class_id:0);
  (match Contention.hottest c with
  | Some (0, r) -> check (Alcotest.float 1e-9) "hottest rate" 0.5 r
  | _ -> Alcotest.fail "class 0 is hottest");
  (* roll the window: four clean class-1 finishes evict class 0 *)
  for i = 3 to 6 do
    Contention.feed c (upd i 1 (2 * i));
    finish i ((2 * i) + 1) ~abort:false
  done;
  checki "class 0 evicted from the window" 0
    (Contention.finished c ~class_id:0);
  checki "window holds its size" 4 (Contention.window_finished c)

(* --- policy hysteresis --- *)

let storm c ~classes ~cls ~n ~rate =
  (* feed n finished attempts of class cls at the given abort rate *)
  let aborted = int_of_float (float_of_int n *. rate) in
  for i = 1 to n do
    let id = 1000 + i in
    Contention.feed c (upd id cls i);
    Contention.feed c
      (rec_ (i + 1)
         (if i <= aborted then T.Abort { txn = id; at = i + 1 }
          else T.Commit { txn = id; at = i + 1 }));
  done;
  ignore classes

let test_policy_escalates_with_hold () =
  let c = Contention.create ~classes:2 () in
  let p =
    Policy.create
      ~config:
        { Policy.default_config with
          Policy.min_finished = 10;
          hold = 2;
          cooldown = 0 }
      ~eligible:[| true; true |] ()
  in
  storm c ~classes:2 ~cls:0 ~n:20 ~rate:0.5;
  checkb "first decision only starts the streak" true
    (Policy.decide p c = None);
  (match Policy.decide p c with
  | Some m ->
    checki "class 0 escalated" 1 m.(0);
    checki "class 1 untouched" 0 m.(1)
  | None -> Alcotest.fail "second agreeing decision must flip");
  checki "one flip" 1 (Policy.flips p)

let test_policy_respects_eligibility_and_cooldown () =
  let c = Contention.create ~classes:2 () in
  let p =
    Policy.create
      ~config:
        { Policy.default_config with
          Policy.min_finished = 10;
          hold = 1;
          cooldown = 100 }
      ~eligible:[| false; true |] ()
  in
  storm c ~classes:2 ~cls:0 ~n:30 ~rate:0.9;
  checkb "ineligible class never escalates" true (Policy.decide p c = None);
  let c1 = Contention.create ~classes:2 () in
  storm c1 ~classes:2 ~cls:1 ~n:30 ~rate:0.9;
  (match Policy.decide p c1 with
  | Some m -> checki "eligible class escalated" 1 m.(1)
  | None -> Alcotest.fail "hot eligible class must escalate");
  (* rate collapses but the cooldown pins the mode *)
  let c2 = Contention.create ~classes:2 () in
  storm c2 ~classes:2 ~cls:1 ~n:30 ~rate:0.0;
  checkb "cooldown blocks the immediate de-escalation" true
    (Policy.decide p c2 = None)

(* --- the prudent baseline the escalated mode borrows --- *)

let test_prudent_commit_wait () =
  let clock = Time.Clock.create () in
  let p = Prudent.create ~clock ~segments:1 ~init:(fun _ -> 0) () in
  let g = Granule.make ~segment:0 ~key:0 in
  let r = Prudent.begin_txn p ~read_only:false in
  let w = Prudent.begin_txn p ~read_only:false in
  (match Prudent.read p r g with
  | Granted 0 -> ()
  | _ -> Alcotest.fail "read takes the initial version");
  (match Prudent.write p w g 5 with
  | Granted () -> ()
  | _ -> Alcotest.fail "write takes the free slot");
  (match Prudent.try_commit p w with
  | Blocked [ id ] -> checki "writer waits for the reader" id r.Txn.id
  | _ -> Alcotest.fail "writer must commit-wait");
  (match Prudent.try_commit p r with
  | Granted () -> Prudent.commit p r
  | _ -> Alcotest.fail "reader never waits");
  (match Prudent.try_commit p w with
  | Granted () -> Prudent.commit p w
  | _ -> Alcotest.fail "writer free after the reader");
  let t = Prudent.begin_txn p ~read_only:false in
  match Prudent.read p t g with
  | Granted 5 -> ()
  | _ -> Alcotest.fail "committed value visible"

(* --- the escalated mode under the schedule-space explorer --- *)

(* Every eligible class escalated before the first transaction begins,
   so each escalated class's root-segment work runs on Prudent's
   precedence table for the whole exploration. *)
let escalated_hybrid =
  { Explore.sys_name = "Hybrid-escalated";
    build =
      (fun ~log wl ->
        let h =
          Hy.create ~log ~partition:wl.Explore.partition ~init:wl.Explore.init
            ()
        in
        Hy.request_modes h
          (Array.map (fun ok -> if ok then 1 else 0) (Hy.eligible h));
        Hy.controller h) }

(* The ad-hoc scenario is left out: [begin_adhoc_update] refuses a
   transaction that touches an escalated class, by design. *)
let test_explore_escalated () =
  List.iter
    (fun (sc : Scenarios.t) ->
      let wl = sc.Scenarios.workload in
      let name = sc.Scenarios.sc_name in
      checkb (name ^ ": a class escalates") true
        (Array.mem true (Hy.eligible_classes wl.Explore.partition));
      let s = Explore.explore escalated_hybrid wl in
      checkb (name ^ ": not capped") false s.Explore.capped;
      checki (name ^ ": anomalies") 0 s.Explore.anomalies)
    [ Scenarios.fig1; Scenarios.fig34; Scenarios.wall ];
  (* fig1's one class is eligible: the hybrid is then Prudent itself *)
  let wl = Scenarios.fig1.Scenarios.workload in
  let h = Explore.explore escalated_hybrid wl in
  let p = Explore.explore (Explore.system "Prudent") wl in
  checki "fig1: schedules as Prudent" p.Explore.schedules h.Explore.schedules;
  checki "fig1: deadlocks as Prudent" p.Explore.deadlocks h.Explore.deadlocks

let suite =
  [ Alcotest.test_case "engine: escalation equivalence (seeded)" `Slow
      test_escalation_equivalence;
    Alcotest.test_case "engine: oracle green under flips at 2/4/8" `Slow
      test_oracle_under_flips_2_4_8;
    Alcotest.test_case "engine: flips compose with repartitions" `Quick
      test_flips_compose_with_repartitions;
    Alcotest.test_case "monitor: forged stale escalation seq" `Quick
      test_forged_seq_regression;
    Alcotest.test_case "monitor: forged flip with txn in flight" `Quick
      test_forged_flip_with_txn_in_flight;
    Alcotest.test_case "monitor: forged escalated write at init" `Quick
      test_forged_escalated_write_at_init;
    Alcotest.test_case "monitor: legal escalated run is clean" `Quick
      test_forged_legal_escalated_run_is_clean;
    Alcotest.test_case "monitor: flip of a drained class is legal" `Quick
      test_forged_flip_of_other_class_is_legal;
    Alcotest.test_case "hybrid: eligibility" `Quick test_eligibility;
    Alcotest.test_case "hybrid: flip waits for drain" `Quick
      test_flip_waits_for_drain;
    Alcotest.test_case "hybrid: escalated script" `Quick test_escalated_script;
    Alcotest.test_case "hybrid: exclusive write slots" `Quick
      test_escalated_writer_blocks_writer;
    Alcotest.test_case "hybrid: adhoc refused while escalated" `Quick
      test_adhoc_refused_while_escalated;
    Alcotest.test_case "hybrid: certified across flips" `Quick
      test_certified_across_flips;
    Alcotest.test_case "hybrid: auto loop escalates under contention" `Quick
      test_auto_escalates_under_contention;
    Alcotest.test_case "hybrid: golden escalation trace" `Quick
      test_golden_escalation_trace;
    Alcotest.test_case "hybrid: golden replays clean" `Quick
      test_golden_replays_clean;
    Alcotest.test_case "contention: sliding window" `Quick
      test_contention_window;
    Alcotest.test_case "policy: escalates with hold" `Quick
      test_policy_escalates_with_hold;
    Alcotest.test_case "policy: eligibility and cooldown" `Quick
      test_policy_respects_eligibility_and_cooldown;
    Alcotest.test_case "prudent: commit-wait discipline" `Quick
      test_prudent_commit_wait;
    Alcotest.test_case "hybrid: escalated classes explored" `Quick
      test_explore_escalated ]

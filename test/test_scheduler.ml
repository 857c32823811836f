(* Tests for the HDD scheduler: protocol routing, Protocol A's
   no-registration guarantee, Protocol B's MVTO behaviour, Protocol C
   walls, spec-violation rejection, and the Figure 3 / Figure 4
   counter-example timings which HDD renders serializable. *)

module Scheduler = Hdd_core.Scheduler
module Outcome = Hdd_core.Outcome
module Certifier = Hdd_core.Certifier
module Timewall = Hdd_core.Timewall
module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
module Achain = Hdd_mvstore.Achain

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* inventory hierarchy: D0 reorders <- D1 inventory <- D2 events *)
let partition =
  History_gen.chain_partition 3 |> fun _ ->
  (* use the named inventory spec for readability of failures *)
  Hdd_core.Partition.build_exn
    (Hdd_core.Spec.make
       ~segments:[ "reorders"; "inventory"; "events" ]
       ~types:
         [ Hdd_core.Spec.txn_type ~name:"t1" ~writes:[ 2 ] ~reads:[];
           Hdd_core.Spec.txn_type ~name:"t2" ~writes:[ 1 ] ~reads:[ 1; 2 ];
           Hdd_core.Spec.txn_type ~name:"t3" ~writes:[ 0 ] ~reads:[ 0; 1; 2 ] ])

let mk ?log () =
  let clock = Time.Clock.create () in
  let store = Store.create ~segments:3 ~init:(fun _ -> 0) in
  (Scheduler.create ?log ~partition ~clock ~store (), store)

let gr s k = Granule.make ~segment:s ~key:k

let grant = function
  | Outcome.Granted v -> v
  | Outcome.Blocked _ -> Alcotest.fail "unexpected block"
  | Outcome.Rejected why -> Alcotest.fail ("unexpected rejection: " ^ why)

let test_begin_validation () =
  let s, _ = mk () in
  Alcotest.check_raises "class range"
    (Invalid_argument "Scheduler.begin_update: class 9") (fun () ->
      ignore (Scheduler.begin_update s ~class_id:9))

let test_protocol_b_read_write () =
  let s, _ = mk () in
  let t = Scheduler.begin_update s ~class_id:2 in
  checki "bootstrap value" 0 (grant (Scheduler.read s t (gr 2 0)));
  grant (Scheduler.write s t (gr 2 0) 42);
  Scheduler.commit s t;
  let t2 = Scheduler.begin_update s ~class_id:2 in
  checki "sees committed write" 42 (grant (Scheduler.read s t2 (gr 2 0)));
  Scheduler.commit s t2;
  let m = Scheduler.metrics s in
  checki "protocol B reads" 2 m.Scheduler.reads_b;
  checki "registrations = protocol B reads" 2 m.Scheduler.read_registrations

let test_protocol_b_blocks_on_pending () =
  let s, _ = mk () in
  let w = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s w (gr 2 0) 1);
  let r = Scheduler.begin_update s ~class_id:2 in
  (match Scheduler.read s r (gr 2 0) with
  | Outcome.Blocked [ blocker ] -> checki "blocked on writer" w.Txn.id blocker
  | _ -> Alcotest.fail "expected block on pending version");
  Scheduler.commit s w;
  checki "after commit the read proceeds" 1 (grant (Scheduler.read s r (gr 2 0)));
  Scheduler.commit s r

let test_protocol_b_rejects_late_write () =
  let s, _ = mk () in
  let w1 = Scheduler.begin_update s ~class_id:2 in
  let r = Scheduler.begin_update s ~class_id:2 in
  (* the younger r reads the bootstrap version, registering rts = I(r) *)
  checki "read" 0 (grant (Scheduler.read s r (gr 2 0)));
  (* the older w1 now writes the same granule: its predecessor has been
     read by a younger transaction *)
  (match Scheduler.write s w1 (gr 2 0) 5 with
  | Outcome.Rejected _ -> ()
  | _ -> Alcotest.fail "late write must be rejected");
  Scheduler.abort s w1;
  Scheduler.commit s r;
  checki "one reject" 1 (Scheduler.metrics s).Scheduler.rejects

let test_protocol_a_never_registers () =
  let s, store = mk () in
  let feeder = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s feeder (gr 2 7) 99);
  Scheduler.commit s feeder;
  let t = Scheduler.begin_update s ~class_id:0 in
  checki "cross-class read sees committed" 99 (grant (Scheduler.read s t (gr 2 7)));
  let m = Scheduler.metrics s in
  checki "served by protocol A" 1 m.Scheduler.reads_a;
  checki "no registration for cross-class reads" 0 m.Scheduler.read_registrations;
  (* and the version's rts is untouched *)
  (match Store.latest_committed store (gr 2 7) with
  | Some v -> checki "rts untouched" 0 v.Chain.rts
  | None -> Alcotest.fail "version");
  Scheduler.commit s t

let test_protocol_a_threshold_excludes_active () =
  let s, _ = mk () in
  (* an active class-2 transaction wrote but did not commit *)
  let w = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s w (gr 2 0) 123);
  (* a class-1 reader must not wait and must see the bootstrap version *)
  let t = Scheduler.begin_update s ~class_id:1 in
  checki "never waits, reads below the activity link" 0
    (grant (Scheduler.read s t (gr 2 0)));
  checki "no blocks" 0 (Scheduler.metrics s).Scheduler.blocks;
  Scheduler.commit s w;
  Scheduler.commit s t

let test_protocol_a_threshold_exposed () =
  let s, _ = mk () in
  let w = Scheduler.begin_update s ~class_id:2 in
  let t = Scheduler.begin_update s ~class_id:0 in
  (* the threshold for reading D2 is capped by w's initiation *)
  (match Scheduler.read_threshold s t ~segment:2 with
  | Some th -> checkb "capped by the active writer" true (th <= w.Txn.init)
  | None -> Alcotest.fail "declared read");
  (match Scheduler.read_threshold s t ~segment:0 with
  | Some th -> checki "own segment: own timestamp" t.Txn.init th
  | None -> Alcotest.fail "own segment");
  Scheduler.commit s w;
  Scheduler.abort s t

let test_spec_violations_rejected () =
  let s, _ = mk () in
  let t = Scheduler.begin_update s ~class_id:2 in
  (* class 2 is the top: reading the lower D0 is undeclared *)
  (match Scheduler.read s t (gr 0 0) with
  | Outcome.Rejected _ -> ()
  | _ -> Alcotest.fail "downward read must be rejected");
  (match Scheduler.write s t (gr 1 0) 5 with
  | Outcome.Rejected _ -> ()
  | _ -> Alcotest.fail "cross-segment write must be rejected");
  Scheduler.abort s t;
  let ro = Scheduler.begin_read_only s in
  (match Scheduler.write s ro (gr 2 0) 5 with
  | Outcome.Rejected _ -> ()
  | _ -> Alcotest.fail "read-only write must be rejected");
  Scheduler.commit s ro

let test_read_only_wall_snapshot () =
  let s, _ = mk () in
  (* commit a value, release a wall, commit a newer value *)
  let w1 = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s w1 (gr 2 0) 1);
  Scheduler.commit s w1;
  (match Scheduler.release_wall s with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "wall releasable on idle system");
  let ro = Scheduler.begin_read_only s in
  let w2 = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s w2 (gr 2 0) 2);
  Scheduler.commit s w2;
  (* ro still sees the wall-time snapshot *)
  checki "snapshot below the wall" 1 (grant (Scheduler.read s ro (gr 2 0)));
  checki "served by protocol C" 1 (Scheduler.metrics s).Scheduler.reads_c;
  checki "still no registration" 0
    (Scheduler.metrics s).Scheduler.read_registrations;
  Scheduler.commit s ro

let test_read_only_consistent_across_segments () =
  let s, _ = mk () in
  (* a class-1 transaction derives D1 from D2; the wall must never show a
     D1 state ahead of the D2 state it was derived from *)
  let f = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s f (gr 2 0) 10);
  Scheduler.commit s f;
  let d = Scheduler.begin_update s ~class_id:1 in
  let base = grant (Scheduler.read s d (gr 2 0)) in
  grant (Scheduler.write s d (gr 1 0) (base * 2));
  Scheduler.commit s d;
  ignore (Scheduler.release_wall s);
  let ro = Scheduler.begin_read_only s in
  let derived = grant (Scheduler.read s ro (gr 1 0)) in
  let raw = grant (Scheduler.read s ro (gr 2 0)) in
  Scheduler.commit s ro;
  checkb "derived value consistent with its source" true
    (derived = 0 || derived = raw * 2)

let test_hosted_read_only () =
  let s, _ = mk () in
  let f = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s f (gr 2 0) 5);
  Scheduler.commit s f;
  (* hosted below class 1: may read D1 and D2, not D0 *)
  let ro = Scheduler.begin_read_only_on_path s ~below:1 in
  checki "reads along the path" 5 (grant (Scheduler.read s ro (gr 2 0)));
  checki "reads the path bottom" 0 (grant (Scheduler.read s ro (gr 1 0)));
  (match Scheduler.read s ro (gr 0 0) with
  | Outcome.Rejected _ -> ()
  | _ -> Alcotest.fail "off-path read must be rejected");
  Scheduler.commit s ro;
  checki "no registrations" 0 (Scheduler.metrics s).Scheduler.read_registrations

let test_abort_discards_versions () =
  let s, store = mk () in
  let w = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s w (gr 2 0) 9);
  Scheduler.abort s w;
  checki "only the bootstrap version remains" 1
    (Achain.length (Store.chain store (gr 2 0)));
  let t = Scheduler.begin_update s ~class_id:2 in
  checki "aborted write invisible" 0 (grant (Scheduler.read s t (gr 2 0)));
  Scheduler.commit s t

let test_rewrite_same_granule () =
  let s, _ = mk () in
  let w = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s w (gr 2 0) 1);
  grant (Scheduler.write s w (gr 2 0) 2);
  Scheduler.commit s w;
  let t = Scheduler.begin_update s ~class_id:2 in
  checki "last write wins" 2 (grant (Scheduler.read s t (gr 2 0)));
  Scheduler.commit s t

(* --- Figure 3: the 2PL-without-read-locks anomaly timing, under HDD ---

   y = an arrival record (D2), v = the inventory level (D1).
   Timing: t3 reads arrivals missing y; t1 inserts y and commits; t2 reads
   y, posts v, commits; t3 reads v and commits.  Without read locks this
   is the paper's non-serializable interleaving; under HDD the activity
   link hands t3 the version of v consistent with what it (did not) see
   in the arrivals, and the schedule certifies serializable. *)
let figure3_timing ~log =
  let clock = Time.Clock.create () in
  let store = Store.create ~segments:3 ~init:(fun _ -> 0) in
  let s = Scheduler.create ~log ~partition ~clock ~store () in
  let y = gr 2 0 and v = gr 1 0 and order = gr 0 0 in
  let t3 = Scheduler.begin_update s ~class_id:0 in
  let seen_y_by_t3 = grant (Scheduler.read s t3 y) in
  let t1 = Scheduler.begin_update s ~class_id:2 in
  grant (Scheduler.write s t1 y 1);
  Scheduler.commit s t1;
  let t2 = Scheduler.begin_update s ~class_id:1 in
  let seen_y_by_t2 = grant (Scheduler.read s t2 y) in
  grant (Scheduler.write s t2 v (10 + seen_y_by_t2));
  Scheduler.commit s t2;
  let seen_v_by_t3 = grant (Scheduler.read s t3 v) in
  grant (Scheduler.write s t3 order (seen_y_by_t3 + seen_v_by_t3));
  Scheduler.commit s t3;
  (seen_y_by_t3, seen_y_by_t2, seen_v_by_t3)

let test_figure3_under_hdd () =
  let log = Sched_log.create () in
  let seen_y_by_t3, seen_y_by_t2, seen_v_by_t3 = figure3_timing ~log in
  checki "t3 missed y" 0 seen_y_by_t3;
  checki "t2 saw y" 1 seen_y_by_t2;
  (* the crux: protocol A must NOT hand t3 the inventory version derived
     from the y it never saw — that would be the Figure 3 cycle *)
  checki "t3 sees the pre-t2 inventory" 0 seen_v_by_t3;
  checkb "schedule serializable" true (Certifier.serializable log)

(* Figure 4's TSO variant of the same anomaly uses the identical timing
   with initiation order t3 < t1 < t2; the HDD scheduler assigns
   initiation timestamps in begin order, which figure3_timing already
   does, so the check above covers both counter-examples from the HDD
   side.  The baselines' crippled variants are exercised in
   test_baselines. *)

let test_wall_auto_release () =
  let clock = Time.Clock.create () in
  let store = Store.create ~segments:3 ~init:(fun _ -> 0) in
  let s =
    Scheduler.create ~wall_every_commits:2 ~partition ~clock ~store ()
  in
  let initial = Timewall.release_count (Scheduler.wall_manager s) in
  for _ = 1 to 6 do
    let t = Scheduler.begin_update s ~class_id:2 in
    grant (Scheduler.write s t (gr 2 0) 1);
    Scheduler.commit s t
  done;
  checkb "walls released as commits accumulate" true
    (Timewall.release_count (Scheduler.wall_manager s) > initial)

let test_outcome_helpers () =
  checkb "granted" true (Outcome.is_granted (Outcome.Granted 3));
  Alcotest.check (Alcotest.option Alcotest.int) "granted value" (Some 3)
    (Outcome.granted (Outcome.Granted 3));
  checkb "blocked not granted" false
    (Outcome.is_granted (Outcome.Blocked [ 1; 2 ]));
  Alcotest.check (Alcotest.option Alcotest.int) "rejected empty" None
    (Outcome.granted (Outcome.Rejected "x"));
  let render o = Format.asprintf "%a" (Outcome.pp Format.pp_print_int) o in
  checkb "pp granted" true (render (Outcome.Granted 5) = "granted 5");
  checkb "pp blocked mentions ids" true
    (render (Outcome.Blocked [ 7; 8 ]) = "blocked on 7,8");
  checkb "pp rejected mentions reason" true
    (render (Outcome.Rejected "late") = "rejected: late")

let test_metrics_shape () =
  let s, _ = mk () in
  let t = Scheduler.begin_update s ~class_id:0 in
  ignore (Scheduler.read s t (gr 0 0));
  ignore (Scheduler.read s t (gr 1 0));
  ignore (Scheduler.read s t (gr 2 0));
  ignore (Scheduler.write s t (gr 0 0) 1);
  Scheduler.commit s t;
  let m = Scheduler.metrics s in
  checki "begins" 1 m.Scheduler.begins;
  checki "commits" 1 m.Scheduler.committed;
  checki "1 protocol B read" 1 m.Scheduler.reads_b;
  checki "2 protocol A reads" 2 m.Scheduler.reads_a;
  checki "writes" 1 m.Scheduler.writes

let suite =
  [ Alcotest.test_case "begin validation" `Quick test_begin_validation;
    Alcotest.test_case "protocol B read/write" `Quick test_protocol_b_read_write;
    Alcotest.test_case "protocol B blocks on pending" `Quick test_protocol_b_blocks_on_pending;
    Alcotest.test_case "protocol B rejects late writes" `Quick test_protocol_b_rejects_late_write;
    Alcotest.test_case "protocol A: no registration" `Quick test_protocol_a_never_registers;
    Alcotest.test_case "protocol A: excludes active writers" `Quick test_protocol_a_threshold_excludes_active;
    Alcotest.test_case "protocol A: threshold exposure" `Quick test_protocol_a_threshold_exposed;
    Alcotest.test_case "spec violations rejected" `Quick test_spec_violations_rejected;
    Alcotest.test_case "protocol C: wall snapshot" `Quick test_read_only_wall_snapshot;
    Alcotest.test_case "protocol C: cross-segment consistency" `Quick test_read_only_consistent_across_segments;
    Alcotest.test_case "hosted read-only (fictitious class)" `Quick test_hosted_read_only;
    Alcotest.test_case "abort discards versions" `Quick test_abort_discards_versions;
    Alcotest.test_case "rewrite of the same granule" `Quick test_rewrite_same_granule;
    Alcotest.test_case "Figure 3 timing is serializable under HDD" `Quick test_figure3_under_hdd;
    Alcotest.test_case "wall auto-release" `Quick test_wall_auto_release;
    Alcotest.test_case "outcome helpers" `Quick test_outcome_helpers;
    Alcotest.test_case "metrics" `Quick test_metrics_shape ]

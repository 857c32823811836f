(* Tests for the baseline controllers: strict 2PL, strict TSO, MVTO,
   MV2PL, SDD-1-style pipelining and the no-control strawman — plus the
   paper's Figure 3 and Figure 4 counter-examples exhibited on the
   crippled variants and caught by the certifier. *)

module B = Hdd_baselines
module Outcome = Hdd_core.Outcome
module Certifier = Hdd_core.Certifier

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let gr s k = Granule.make ~segment:s ~key:k

let grant = function
  | Outcome.Granted v -> v
  | Outcome.Blocked _ -> Alcotest.fail "unexpected block"
  | Outcome.Rejected why -> Alcotest.fail ("unexpected rejection: " ^ why)

let blocked = function
  | Outcome.Blocked ids -> ids
  | Outcome.Granted _ -> Alcotest.fail "expected a block, got a grant"
  | Outcome.Rejected why -> Alcotest.fail ("expected a block, got: " ^ why)

(* --- strict 2PL --- *)

let mk_2pl ?read_locks ?log () =
  B.S2pl.create ?read_locks ?log ~clock:(Time.Clock.create ())
    ~init:(fun _ -> 0) ()

let test_2pl_basic () =
  let c = mk_2pl () in
  let t = B.S2pl.begin_txn c ~read_only:false in
  checki "read initial" 0 (grant (B.S2pl.read c t (gr 0 0)));
  grant (B.S2pl.write c t (gr 0 0) 5);
  checki "reads own write" 5 (grant (B.S2pl.read c t (gr 0 0)));
  checki "locks held" 1 (B.S2pl.lock_count c);
  B.S2pl.commit c t;
  checki "locks released at commit" 0 (B.S2pl.lock_count c);
  let t2 = B.S2pl.begin_txn c ~read_only:false in
  checki "committed value visible" 5 (grant (B.S2pl.read c t2 (gr 0 0)));
  B.S2pl.commit c t2

let test_2pl_conflicts () =
  let c = mk_2pl () in
  let t1 = B.S2pl.begin_txn c ~read_only:false in
  let t2 = B.S2pl.begin_txn c ~read_only:false in
  grant (B.S2pl.write c t1 (gr 0 0) 1);
  (* reader blocks behind the exclusive holder *)
  checkb "read blocked by X" true (blocked (B.S2pl.read c t2 (gr 0 0)) = [ t1.Txn.id ]);
  (* shared readers coexist *)
  checki "other granule fine" 0 (grant (B.S2pl.read c t2 (gr 0 1)));
  let t3 = B.S2pl.begin_txn c ~read_only:false in
  checki "shared lock granted" 0 (grant (B.S2pl.read c t3 (gr 0 1)));
  (* writer blocks behind both shared holders *)
  let t4 = B.S2pl.begin_txn c ~read_only:false in
  checki "write blocked by readers" 2
    (List.length (blocked (B.S2pl.write c t4 (gr 0 1) 9)));
  B.S2pl.commit c t1;
  (* t2 can now read the committed value *)
  checki "after release" 1 (grant (B.S2pl.read c t2 (gr 0 0)));
  B.S2pl.commit c t2;
  B.S2pl.commit c t3;
  B.S2pl.commit c t4

let test_2pl_upgrade () =
  let c = mk_2pl () in
  let t1 = B.S2pl.begin_txn c ~read_only:false in
  checki "shared first" 0 (grant (B.S2pl.read c t1 (gr 0 0)));
  grant (B.S2pl.write c t1 (gr 0 0) 7);
  checki "upgrade in place keeps one lock" 1 (B.S2pl.lock_count c);
  B.S2pl.commit c t1

let test_2pl_abort_restores () =
  let c = mk_2pl () in
  let t1 = B.S2pl.begin_txn c ~read_only:false in
  grant (B.S2pl.write c t1 (gr 0 0) 9);
  B.S2pl.abort c t1;
  let t2 = B.S2pl.begin_txn c ~read_only:false in
  checki "undo restored the old value" 0 (grant (B.S2pl.read c t2 (gr 0 0)));
  B.S2pl.commit c t2

let test_2pl_registrations_counted () =
  let c = mk_2pl () in
  let t = B.S2pl.begin_txn c ~read_only:false in
  ignore (B.S2pl.read c t (gr 0 0));
  ignore (B.S2pl.read c t (gr 0 1));
  ignore (B.S2pl.read c t (gr 0 0));
  B.S2pl.commit c t;
  (* re-reads under a held lock do not re-register *)
  checki "one registration per lock" 2
    (B.S2pl.metrics c).Hdd_obs.Counters.read_registrations

(* --- strict TSO --- *)

let mk_tso ?read_timestamps ?thomas_write_rule ?log () =
  B.Tso.create ?read_timestamps ?thomas_write_rule ?log
    ~clock:(Time.Clock.create ()) ~init:(fun _ -> 0) ()

let test_tso_basic () =
  let c = mk_tso () in
  let t = B.Tso.begin_txn c in
  checki "read" 0 (grant (B.Tso.read c t (gr 0 0)));
  grant (B.Tso.write c t (gr 0 0) 4);
  B.Tso.commit c t;
  let t2 = B.Tso.begin_txn c in
  checki "visible" 4 (grant (B.Tso.read c t2 (gr 0 0)));
  B.Tso.commit c t2

let test_tso_rejects_late_read () =
  let c = mk_tso () in
  let old = B.Tso.begin_txn c in
  let young = B.Tso.begin_txn c in
  grant (B.Tso.write c young (gr 0 0) 1);
  B.Tso.commit c young;
  match B.Tso.read c old (gr 0 0) with
  | Outcome.Rejected _ -> B.Tso.abort c old
  | _ -> Alcotest.fail "read below the write stamp must be rejected"

let test_tso_rejects_late_write () =
  let c = mk_tso () in
  let old = B.Tso.begin_txn c in
  let young = B.Tso.begin_txn c in
  checki "young reads" 0 (grant (B.Tso.read c young (gr 0 0)));
  B.Tso.commit c young;
  match B.Tso.write c old (gr 0 0) 1 with
  | Outcome.Rejected _ -> B.Tso.abort c old
  | _ -> Alcotest.fail "write below the read stamp must be rejected"

let test_tso_thomas_write_rule () =
  let c = mk_tso ~thomas_write_rule:true () in
  let old = B.Tso.begin_txn c in
  let young = B.Tso.begin_txn c in
  grant (B.Tso.write c young (gr 0 0) 2);
  B.Tso.commit c young;
  (* the obsolete write is silently skipped *)
  grant (B.Tso.write c old (gr 0 0) 1);
  B.Tso.commit c old;
  let t = B.Tso.begin_txn c in
  checki "newer value survives" 2 (grant (B.Tso.read c t (gr 0 0)));
  B.Tso.commit c t

let test_tso_strictness_blocks_dirty () =
  let c = mk_tso () in
  let w = B.Tso.begin_txn c in
  grant (B.Tso.write c w (gr 0 0) 3);
  let r = B.Tso.begin_txn c in
  checkb "dirty read blocks" true (blocked (B.Tso.read c r (gr 0 0)) = [ w.Txn.id ]);
  B.Tso.commit c w;
  checki "after commit" 3 (grant (B.Tso.read c r (gr 0 0)));
  B.Tso.commit c r

let test_tso_abort_restores () =
  let c = mk_tso () in
  let w = B.Tso.begin_txn c in
  grant (B.Tso.write c w (gr 0 0) 3);
  B.Tso.abort c w;
  let t = B.Tso.begin_txn c in
  checki "undo restored" 0 (grant (B.Tso.read c t (gr 0 0)));
  B.Tso.commit c t

(* --- MVTO --- *)

let mk_mvto ?log () =
  B.Mvto.create ?log ~clock:(Time.Clock.create ()) ~segments:1
    ~init:(fun _ -> 0) ()

let test_mvto_snapshot_read () =
  let c = mk_mvto () in
  let old = B.Mvto.begin_txn c in
  let young = B.Mvto.begin_txn c in
  grant (B.Mvto.write c young (gr 0 0) 9);
  B.Mvto.commit c young;
  (* unlike single-version TSO, the old reader is served the old version *)
  checki "old version served" 0 (grant (B.Mvto.read c old (gr 0 0)));
  B.Mvto.commit c old

let test_mvto_rejects_late_write () =
  let c = mk_mvto () in
  let old = B.Mvto.begin_txn c in
  let young = B.Mvto.begin_txn c in
  checki "young reads bootstrap" 0 (grant (B.Mvto.read c young (gr 0 0)));
  B.Mvto.commit c young;
  match B.Mvto.write c old (gr 0 0) 1 with
  | Outcome.Rejected _ -> B.Mvto.abort c old
  | _ -> Alcotest.fail "predecessor read by a younger txn: reject"

let test_mvto_registers_reads () =
  let c = mk_mvto () in
  let t = B.Mvto.begin_txn c in
  ignore (B.Mvto.read c t (gr 0 0));
  B.Mvto.commit c t;
  checki "every read registered" 1
    (B.Mvto.metrics c).Hdd_obs.Counters.read_registrations

(* --- MV2PL --- *)

let mk_mv2pl ?log () =
  B.Mv2pl.create ?log ~clock:(Time.Clock.create ()) ~segments:1
    ~init:(fun _ -> 0) ()

let test_mv2pl_updaters_lock () =
  let c = mk_mv2pl () in
  let t1 = B.Mv2pl.begin_txn c ~read_only:false in
  let t2 = B.Mv2pl.begin_txn c ~read_only:false in
  grant (B.Mv2pl.write c t1 (gr 0 0) 5);
  checkb "updater read blocks on X" true
    (blocked (B.Mv2pl.read c t2 (gr 0 0)) = [ t1.Txn.id ]);
  checki "t1 reads its buffer" 5 (grant (B.Mv2pl.read c t1 (gr 0 0)));
  B.Mv2pl.commit c t1;
  checki "after commit" 5 (grant (B.Mv2pl.read c t2 (gr 0 0)));
  B.Mv2pl.commit c t2

let test_mv2pl_read_only_never_blocks () =
  let c = mk_mv2pl () in
  let w = B.Mv2pl.begin_txn c ~read_only:false in
  grant (B.Mv2pl.write c w (gr 0 0) 5);
  (* a read-only transaction sails past the exclusive lock *)
  let ro = B.Mv2pl.begin_txn c ~read_only:true in
  checki "snapshot read under X lock" 0 (grant (B.Mv2pl.read c ro (gr 0 0)));
  B.Mv2pl.commit c w;
  (* still the snapshot as of its begin *)
  checki "stable snapshot" 0 (grant (B.Mv2pl.read c ro (gr 0 0)));
  B.Mv2pl.commit c ro;
  let m = B.Mv2pl.metrics c in
  checki "read-only never registers" 0 m.Hdd_obs.Counters.read_registrations;
  checki "read-only never blocks" 0 m.Hdd_obs.Counters.blocks

let test_mv2pl_version_order_is_commit_order () =
  let c = mk_mv2pl () in
  (* t_young begins later but commits first; versions must order by
     commit *)
  let t_old = B.Mv2pl.begin_txn c ~read_only:false in
  ignore t_old;
  let t_young = B.Mv2pl.begin_txn c ~read_only:false in
  grant (B.Mv2pl.write c t_young (gr 0 0) 1);
  B.Mv2pl.commit c t_young;
  grant (B.Mv2pl.write c t_old (gr 0 0) 2);
  B.Mv2pl.commit c t_old;
  let ro = B.Mv2pl.begin_txn c ~read_only:true in
  checki "last committer wins" 2 (grant (B.Mv2pl.read c ro (gr 0 0)));
  B.Mv2pl.commit c ro

let test_mv2pl_ro_rejected_write () =
  let c = mk_mv2pl () in
  let ro = B.Mv2pl.begin_txn c ~read_only:true in
  (match B.Mv2pl.write c ro (gr 0 0) 1 with
  | Outcome.Rejected _ -> ()
  | _ -> Alcotest.fail "read-only write must be rejected");
  B.Mv2pl.commit c ro

(* --- SDD-1 --- *)

let inventory =
  Hdd_core.Partition.build_exn
    (Hdd_core.Spec.make
       ~segments:[ "reorders"; "inventory"; "events" ]
       ~types:
         [ Hdd_core.Spec.txn_type ~name:"t1" ~writes:[ 2 ] ~reads:[];
           Hdd_core.Spec.txn_type ~name:"t2" ~writes:[ 1 ] ~reads:[ 1; 2 ];
           Hdd_core.Spec.txn_type ~name:"t3" ~writes:[ 0 ] ~reads:[ 0; 1; 2 ] ])

let mk_sdd1 ?log () =
  B.Sdd1.create ?log ~clock:(Time.Clock.create ()) ~partition:inventory
    ~init:(fun _ -> 0) ()

let test_sdd1_pipelines_conflicting_classes () =
  let c = mk_sdd1 () in
  (* an older class-2 writer forces a younger class-1 reader of D2 to
     wait *)
  let w = B.Sdd1.begin_txn c ~class_id:2 in
  let r = B.Sdd1.begin_txn c ~class_id:1 in
  checkb "read of D2 waits for the older writer" true
    (blocked (B.Sdd1.read c r (gr 2 0)) = [ w.Txn.id ]);
  grant (B.Sdd1.write c w (gr 2 0) 3);
  B.Sdd1.commit c w;
  checki "after the writer finishes" 3 (grant (B.Sdd1.read c r (gr 2 0)));
  B.Sdd1.commit c r;
  checki "no registrations ever" 0
    (B.Sdd1.metrics c).Hdd_obs.Counters.read_registrations

let test_sdd1_no_wait_for_younger () =
  let c = mk_sdd1 () in
  let older = B.Sdd1.begin_txn c ~class_id:2 in
  let _younger = B.Sdd1.begin_txn c ~class_id:1 in
  (* the older transaction never waits for the younger one *)
  grant (B.Sdd1.write c older (gr 2 0) 1);
  B.Sdd1.commit c older

let test_sdd1_writer_waits_for_older_reader_class () =
  let c = mk_sdd1 () in
  (* class 1 reads D2, so a younger class-2 writer must wait for an older
     active class-1 transaction *)
  let r = B.Sdd1.begin_txn c ~class_id:1 in
  let w = B.Sdd1.begin_txn c ~class_id:2 in
  checkb "write pipelines behind the older reader class" true
    (blocked (B.Sdd1.write c w (gr 2 0) 1) = [ r.Txn.id ]);
  B.Sdd1.commit c r;
  grant (B.Sdd1.write c w (gr 2 0) 1);
  B.Sdd1.commit c w

let test_sdd1_adhoc_covers_everything () =
  let c = mk_sdd1 () in
  let ro = B.Sdd1.begin_adhoc c in
  let w = B.Sdd1.begin_txn c ~class_id:2 in
  (* the younger writer waits even though no named class reads D2 here:
     the ad-hoc class covers every segment *)
  checkb "writer waits for the ad-hoc transaction" true
    (blocked (B.Sdd1.write c w (gr 2 0) 1) = [ ro.Txn.id ]);
  checki "ad-hoc read proceeds (no older writers)" 0
    (grant (B.Sdd1.read c ro (gr 2 0)));
  B.Sdd1.commit c ro;
  grant (B.Sdd1.write c w (gr 2 0) 1);
  B.Sdd1.commit c w

let test_sdd1_class_validation () =
  let c = mk_sdd1 () in
  Alcotest.check_raises "range" (Invalid_argument "Sdd1.begin_txn: class 7")
    (fun () -> ignore (B.Sdd1.begin_txn c ~class_id:7))

(* --- NoCC and the Figure 1 lost update --- *)

let test_nocc_lost_update_certified_cyclic () =
  let log = Sched_log.create () in
  let c = B.Nocc.create ~log ~clock:(Time.Clock.create ()) ~init:(fun _ -> 100) () in
  let acct = gr 0 0 in
  let t1 = B.Nocc.begin_txn c in
  let t2 = B.Nocc.begin_txn c in
  let b1 = grant (B.Nocc.read c t1 acct) in
  let b2 = grant (B.Nocc.read c t2 acct) in
  grant (B.Nocc.write c t1 acct (b1 + 50));
  grant (B.Nocc.write c t2 acct (b2 - 50));
  B.Nocc.commit c t1;
  B.Nocc.commit c t2;
  (* the deposit is lost *)
  let t3 = B.Nocc.begin_txn c in
  checki "final balance reflects only the withdrawal" 50
    (grant (B.Nocc.read c t3 acct));
  B.Nocc.commit c t3;
  checkb "certifier flags the schedule" false (Certifier.serializable log)

(* --- Figure 3: 2PL without read locks admits the anomaly --- *)

let test_figure3_anomaly_2pl_no_read_locks () =
  let log = Sched_log.create () in
  let c = mk_2pl ~read_locks:false ~log () in
  let y = gr 2 0 and v = gr 1 0 and order = gr 0 0 in
  (* t3 starts and reads the arrivals, missing y *)
  let t3 = B.S2pl.begin_txn c ~read_only:false in
  let _missed = grant (B.S2pl.read c t3 y) in
  (* t1 inserts y and commits *)
  let t1 = B.S2pl.begin_txn c ~read_only:false in
  grant (B.S2pl.write c t1 y 1);
  B.S2pl.commit c t1;
  (* t2 reads y, posts the inventory level, commits *)
  let t2 = B.S2pl.begin_txn c ~read_only:false in
  let seen = grant (B.S2pl.read c t2 y) in
  grant (B.S2pl.write c t2 v (10 + seen));
  B.S2pl.commit c t2;
  (* t3 reads the new inventory (no lock conflict: t2 released) *)
  let v_seen = grant (B.S2pl.read c t3 v) in
  checki "t3 sees the post-y inventory" 11 v_seen;
  grant (B.S2pl.write c t3 order v_seen);
  B.S2pl.commit c t3;
  checkb "Figure 3: not serializable" false (Certifier.serializable log)

let test_figure3_full_2pl_serializable () =
  let log = Sched_log.create () in
  let c = mk_2pl ~log () in
  let y = gr 2 0 and v = gr 1 0 and order = gr 0 0 in
  let t3 = B.S2pl.begin_txn c ~read_only:false in
  ignore (grant (B.S2pl.read c t3 y));
  let t1 = B.S2pl.begin_txn c ~read_only:false in
  (* with read locks, t1's insert blocks behind t3 *)
  (match B.S2pl.write c t1 y 1 with
  | Outcome.Blocked ids -> checkb "t1 blocked by t3" true (ids = [ t3.Txn.id ])
  | _ -> Alcotest.fail "t1 must block");
  (* t3 finishes first in this variant *)
  ignore (grant (B.S2pl.read c t3 v));
  grant (B.S2pl.write c t3 order 0);
  B.S2pl.commit c t3;
  grant (B.S2pl.write c t1 y 1);
  B.S2pl.commit c t1;
  checkb "full 2PL stays serializable" true (Certifier.serializable log)

(* --- Figure 4: TSO without read timestamps admits the anomaly --- *)

let test_figure4_anomaly_tso_no_rts_youngest_t3 () =
  let log = Sched_log.create () in
  let c = mk_tso ~read_timestamps:false ~log () in
  let y = gr 2 0 and v = gr 1 0 and order = gr 0 0 in
  (* initiation order: t1 < t2 < t3; t3 reads the arrivals BEFORE t1's
     insert lands, which no read timestamp records *)
  let t1 = B.Tso.begin_txn c in
  let t2 = B.Tso.begin_txn c in
  let t3 = B.Tso.begin_txn c in
  ignore (grant (B.Tso.read c t3 y)) (* sees no y, leaves no trace *);
  grant (B.Tso.write c t1 y 1);
  (* honest TSO would reject t1's write: rts(y) = I(t3) > I(t1) *)
  B.Tso.commit c t1;
  let seen = grant (B.Tso.read c t2 y) in
  grant (B.Tso.write c t2 v (10 + seen));
  B.Tso.commit c t2;
  let v_seen = grant (B.Tso.read c t3 v) in
  checki "t3 sees the inventory derived from the unseen y" 11 v_seen;
  grant (B.Tso.write c t3 order v_seen);
  B.Tso.commit c t3;
  checkb "Figure 4: not serializable" false (Certifier.serializable log)

let test_figure4_honest_tso_prevents () =
  let log = Sched_log.create () in
  let c = mk_tso ~log () in
  let y = gr 2 0 in
  let t1 = B.Tso.begin_txn c in
  let _t2 = B.Tso.begin_txn c in
  let t3 = B.Tso.begin_txn c in
  ignore (grant (B.Tso.read c t3 y));
  (* the read timestamp now stops t1 *)
  (match B.Tso.write c t1 y 1 with
  | Outcome.Rejected _ -> ()
  | _ -> Alcotest.fail "honest TSO must reject t1's late write");
  B.Tso.abort c t1;
  B.Tso.commit c t3;
  checkb "serializable" true (Certifier.serializable log)

let suite =
  [ Alcotest.test_case "2PL: basics" `Quick test_2pl_basic;
    Alcotest.test_case "2PL: conflicts" `Quick test_2pl_conflicts;
    Alcotest.test_case "2PL: lock upgrade" `Quick test_2pl_upgrade;
    Alcotest.test_case "2PL: abort restores" `Quick test_2pl_abort_restores;
    Alcotest.test_case "2PL: read registrations" `Quick test_2pl_registrations_counted;
    Alcotest.test_case "TSO: basics" `Quick test_tso_basic;
    Alcotest.test_case "TSO: rejects late reads" `Quick test_tso_rejects_late_read;
    Alcotest.test_case "TSO: rejects late writes" `Quick test_tso_rejects_late_write;
    Alcotest.test_case "TSO: Thomas write rule" `Quick test_tso_thomas_write_rule;
    Alcotest.test_case "TSO: strictness" `Quick test_tso_strictness_blocks_dirty;
    Alcotest.test_case "TSO: abort restores" `Quick test_tso_abort_restores;
    Alcotest.test_case "MVTO: snapshot reads" `Quick test_mvto_snapshot_read;
    Alcotest.test_case "MVTO: rejects late writes" `Quick test_mvto_rejects_late_write;
    Alcotest.test_case "MVTO: registers reads" `Quick test_mvto_registers_reads;
    Alcotest.test_case "MV2PL: updaters lock" `Quick test_mv2pl_updaters_lock;
    Alcotest.test_case "MV2PL: read-only never blocks" `Quick test_mv2pl_read_only_never_blocks;
    Alcotest.test_case "MV2PL: version order = commit order" `Quick test_mv2pl_version_order_is_commit_order;
    Alcotest.test_case "MV2PL: read-only cannot write" `Quick test_mv2pl_ro_rejected_write;
    Alcotest.test_case "SDD-1: pipelines conflicting classes" `Quick test_sdd1_pipelines_conflicting_classes;
    Alcotest.test_case "SDD-1: never waits for younger" `Quick test_sdd1_no_wait_for_younger;
    Alcotest.test_case "SDD-1: writers wait for reader classes" `Quick test_sdd1_writer_waits_for_older_reader_class;
    Alcotest.test_case "SDD-1: ad-hoc class" `Quick test_sdd1_adhoc_covers_everything;
    Alcotest.test_case "SDD-1: class validation" `Quick test_sdd1_class_validation;
    Alcotest.test_case "Figure 1: lost update under NoCC" `Quick test_nocc_lost_update_certified_cyclic;
    Alcotest.test_case "Figure 3: anomaly without read locks" `Quick test_figure3_anomaly_2pl_no_read_locks;
    Alcotest.test_case "Figure 3: full 2PL prevents it" `Quick test_figure3_full_2pl_serializable;
    Alcotest.test_case "Figure 4: anomaly without read timestamps" `Quick test_figure4_anomaly_tso_no_rts_youngest_t3;
    Alcotest.test_case "Figure 4: honest TSO prevents it" `Quick test_figure4_honest_tso_prevents ]

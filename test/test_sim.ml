(* Tests for the simulation layer: event queue, workload generators, the
   closed-loop runner, and the end-to-end certification runs — every
   controller on every workload must produce a one-copy-serializable
   committed schedule (the empirical Theorems 1 and 2), while the
   no-control strawman must not. *)

module EQ = Hdd_sim.Event_queue
module Workload = Hdd_sim.Workload
module Runner = Hdd_sim.Runner
module Harness = Hdd_sim.Harness
module Controller = Hdd_sim.Controller
module Prng = Hdd_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- event queue --- *)

let test_event_queue_order () =
  let q = EQ.create () in
  EQ.push q ~time:3. "c";
  EQ.push q ~time:1. "a";
  EQ.push q ~time:2. "b";
  let pops = List.init 3 (fun _ -> EQ.pop q) in
  Alcotest.check
    (Alcotest.list (Alcotest.option (Alcotest.pair (Alcotest.float 0.) Alcotest.string)))
    "time order"
    [ Some (1., "a"); Some (2., "b"); Some (3., "c") ]
    pops;
  checkb "drained" true (EQ.pop q = None)

let test_event_queue_fifo_ties () =
  let q = EQ.create () in
  EQ.push q ~time:1. "first";
  EQ.push q ~time:1. "second";
  EQ.push q ~time:1. "third";
  let order = List.init 3 (fun _ -> snd (Option.get (EQ.pop q))) in
  Alcotest.check (Alcotest.list Alcotest.string) "insertion order on ties"
    [ "first"; "second"; "third" ] order

let test_event_queue_growth () =
  let q = EQ.create () in
  for i = 999 downto 0 do
    EQ.push q ~time:(float_of_int i) i
  done;
  checki "size" 1000 (EQ.size q);
  let sorted = ref true in
  let last = ref (-1.) in
  for _ = 1 to 1000 do
    let t, _ = Option.get (EQ.pop q) in
    if t < !last then sorted := false;
    last := t
  done;
  checkb "heap order maintained" true !sorted;
  checkb "empty" true (EQ.is_empty q)

(* The pre-heap implementation was a sorted list with stable insertion:
   new events go after existing ones at the same time.  The heap must
   reproduce its pop order exactly on any interleaved push/pop trace. *)
let test_event_queue_matches_sorted_list () =
  let module Ref = struct
    type 'a t = (float * 'a) list ref

    let create () : 'a t = ref []

    let push (q : 'a t) ~time x =
      let rec ins = function
        | [] -> [ (time, x) ]
        | ((t', _) as hd) :: tl ->
          if t' <= time then hd :: ins tl else (time, x) :: hd :: tl
      in
      q := ins !q

    let pop (q : 'a t) =
      match !q with [] -> None | hd :: tl -> q := tl; Some hd
  end in
  let g = Prng.create 0xE0E0 in
  let q = EQ.create () in
  let r = Ref.create () in
  let mismatch = ref None in
  let pops = ref 0 in
  for step = 1 to 2000 do
    if Prng.int g 3 < 2 || EQ.is_empty q then begin
      (* coarse times force plenty of ties *)
      let time = float_of_int (Prng.int g 50) in
      EQ.push q ~time step;
      Ref.push r ~time step
    end
    else begin
      incr pops;
      if EQ.pop q <> Ref.pop r then mismatch := Some step
    end
  done;
  while not (EQ.is_empty q) do
    incr pops;
    if EQ.pop q <> Ref.pop r then mismatch := Some (-1)
  done;
  (match !mismatch with
  | Some step -> Alcotest.failf "heap diverged from sorted list at step %d" step
  | None -> ());
  checkb "reference drained too" true (Ref.pop r = None);
  checkb "trace exercised pops" true (!pops > 500)

(* --- workloads --- *)

let test_workload_templates_valid () =
  List.iter
    (fun (wl : Workload.t) ->
      let rng = Prng.create 1 in
      List.iter
        (fun (tpl : Workload.template) ->
          let ops = tpl.Workload.gen rng in
          checkb
            (wl.Workload.wl_name ^ "/" ^ tpl.Workload.tpl_name ^ " nonempty")
            true (ops <> []);
          (* every access must respect the declared pattern *)
          List.iter
            (fun op ->
              let seg, is_write =
                match op with
                | Workload.Read g -> (g.Granule.segment, false)
                | Workload.Write (g, _) -> (g.Granule.segment, true)
              in
              match tpl.Workload.kind with
              | Controller.Read_only ->
                checkb "read-only templates never write" false is_write
              | Controller.Adhoc { writes; reads } ->
                if is_write then
                  checkb "adhoc writes declared" true (List.mem seg writes)
                else
                  checkb "adhoc reads declared" true
                    (List.mem seg reads || List.mem seg writes)
              | Controller.Update cls ->
                if is_write then checki "writes in the root segment" cls seg
                else
                  checkb "reads declared"
                    true
                    (Hdd_core.Partition.may_read wl.Workload.partition
                       ~class_id:cls ~segment:seg))
            ops)
        wl.Workload.templates)
    [ Workload.inventory (); Workload.chain ~depth:4 (); Workload.tree () ]

let test_workload_pick_deterministic () =
  let wl = Workload.inventory () in
  let a = Workload.pick_template wl (Prng.create 9) in
  let b = Workload.pick_template wl (Prng.create 9) in
  Alcotest.check Alcotest.string "same seed same pick" a.Workload.tpl_name
    b.Workload.tpl_name

let test_tree_ro_spans_branches () =
  let wl = Workload.tree ~branches:3 () in
  let ro =
    List.find (fun t -> t.Workload.kind = Controller.Read_only)
      wl.Workload.templates
  in
  let rng = Prng.create 3 in
  let ops = ro.Workload.gen rng in
  let segs =
    List.filter_map
      (function Workload.Read g -> Some g.Granule.segment | _ -> None)
      ops
    |> List.sort_uniq compare
  in
  checkb "two distinct branches plus the base" true (List.length segs = 3)

(* --- runner --- *)

let small_config =
  { Runner.default_config with
    Runner.mpl = 6;
    target_commits = 300;
    seed = 7 }

let test_runner_reaches_target () =
  let wl = Workload.inventory () in
  let r = Runner.run small_config wl (Harness.make Harness.Hdd wl) in
  checki "committed exactly the target" 300 r.Runner.committed;
  checkb "virtual time advanced" true (r.Runner.vtime > 0.);
  checkb "throughput positive" true (r.Runner.throughput > 0.);
  checkb "mean response sane" true (r.Runner.mean_response > 0.)

let test_runner_deterministic () =
  let wl = Workload.inventory () in
  let r1 = Runner.run small_config wl (Harness.make Harness.Hdd wl) in
  let r2 = Runner.run small_config wl (Harness.make Harness.Hdd wl) in
  checki "same commits" r1.Runner.committed r2.Runner.committed;
  checkb "same vtime" true (r1.Runner.vtime = r2.Runner.vtime);
  checki "same restarts" r1.Runner.restarts r2.Runner.restarts

let test_runner_counters_flow () =
  let wl = Workload.inventory () in
  let r = Runner.run small_config wl (Harness.make Harness.S2pl wl) in
  let c = r.Runner.counters in
  checkb "reads happened" true (Hdd_obs.Counters.reads c > 0);
  checkb "2PL registers reads" true (c.Hdd_obs.Counters.read_registrations > 0);
  checki "commit counter matches" r.Runner.committed c.Hdd_obs.Counters.committed

(* --- end-to-end certification: the heart of the reproduction --- *)

let certify_all wl =
  List.iter
    (fun spec ->
      let result, serializable =
        Harness.certified_run ~config:small_config spec wl
      in
      checkb
        (Printf.sprintf "%s on %s serializable" (Harness.spec_name spec)
           result.Runner.workload)
        true serializable;
      checki
        (Printf.sprintf "%s reached the target" (Harness.spec_name spec))
        300 result.Runner.committed)
    Harness.all_controlled

let test_certified_inventory () = certify_all (Workload.inventory ())
let test_certified_chain () = certify_all (Workload.chain ~depth:4 ())
let test_certified_tree () = certify_all (Workload.tree ~branches:3 ())

let prop_random_hierarchies_certify =
  QCheck2.Test.make
    ~name:"random hierarchies: HDD (and MVTO) certify on random shapes"
    ~count:15
    QCheck2.Gen.(int_range 0 10000)
    (fun seed ->
      let wl = Workload.random_hierarchy ~seed () in
      let config =
        { Runner.default_config with
          Runner.mpl = 6;
          target_commits = 150;
          seed }
      in
      let _, hdd_ok = Harness.certified_run ~config Harness.Hdd wl in
      let _, mvto_ok = Harness.certified_run ~config Harness.Mvto wl in
      hdd_ok && mvto_ok)

let test_open_loop_light_load () =
  (* far below capacity: no queueing, response ~ ops x op_cost *)
  let wl = Workload.inventory ~ro_weight:0. () in
  let config =
    { Runner.default_config with Runner.mpl = 8; target_commits = 300; seed = 2 }
  in
  let r =
    Runner.run_open ~arrival_rate:0.05 config wl (Harness.make Harness.Hdd wl)
  in
  checki "reaches the target" 300 r.Runner.committed;
  checkb "no queueing at light load" true (r.Runner.mean_response < 10.);
  (* throughput tracks the arrival rate, not the capacity *)
  checkb "throughput ~ arrival rate" true
    (r.Runner.throughput > 0.03 && r.Runner.throughput < 0.08)

let test_open_loop_overload_queues () =
  let wl = Workload.inventory ~ro_weight:0. () in
  let config =
    { Runner.default_config with Runner.mpl = 4; target_commits = 300; seed = 2 }
  in
  let light =
    Runner.run_open ~arrival_rate:0.1 config wl (Harness.make Harness.Hdd wl)
  in
  let heavy =
    Runner.run_open ~arrival_rate:5.0 config wl (Harness.make Harness.Hdd wl)
  in
  checkb "overload inflates response times" true
    (heavy.Runner.mean_response > 5. *. light.Runner.mean_response)

let test_open_loop_validation () =
  let wl = Workload.inventory () in
  checkb "non-positive rate rejected" true
    (try
       ignore
         (Runner.run_open ~arrival_rate:0. Runner.default_config wl
            (Harness.make Harness.Hdd wl));
       false
     with Invalid_argument _ -> true)

let test_deadlock_detection_resolves () =
  (* a single hot granule with read-then-write templates under 2PL: the
     classic shared-lock upgrade deadlock; the driver must detect it,
     abort a victim and still reach the commit target *)
  let partition =
    Hdd_core.Partition.build_exn
      (Hdd_core.Spec.make ~segments:[ "hot" ]
         ~types:[ Hdd_core.Spec.txn_type ~name:"rmw" ~writes:[ 0 ] ~reads:[ 0 ] ])
  in
  let g = Granule.make ~segment:0 ~key:0 in
  let wl =
    { Workload.wl_name = "deadlock";
      partition;
      templates =
        [ { Workload.tpl_name = "rmw"; kind = Controller.Update 0;
            weight = 1.0;
            gen = (fun _ -> [ Workload.Read g; Workload.Write (g, 1) ]) } ];
      init = (fun _ -> 0) }
  in
  let config =
    { Runner.default_config with Runner.mpl = 4; target_commits = 200; seed = 3 }
  in
  let log = Sched_log.create () in
  let r = Runner.run config wl (Harness.make ~log Harness.S2pl wl) in
  checki "target reached despite deadlocks" 200 r.Runner.committed;
  checkb "deadlocks detected and broken" true (r.Runner.deadlocks > 0);
  checkb "still serializable" true (Hdd_core.Certifier.serializable log)

let test_gc_under_concurrency_certifies () =
  (* long HDD run with aggressive collection: versions stay bounded and
     the schedule still certifies *)
  let wl = Workload.inventory ~items:8 ~base_keys:16 () in
  let log = Sched_log.create () in
  let clock = Time.Clock.create () in
  let store =
    Hdd_mvstore.Store.create ~segments:3 ~init:wl.Workload.init
  in
  let sched =
    Hdd_core.Scheduler.create ~log ~gc_every_commits:16
      ~partition:wl.Workload.partition ~clock ~store ()
  in
  let controller =
    { Controller.name = "HDD+GC";
      begin_txn =
        (function
        | Controller.Update class_id ->
          Hdd_core.Scheduler.begin_update sched ~class_id
        | Controller.Read_only -> Hdd_core.Scheduler.begin_read_only sched
        | Controller.Adhoc { writes; reads } ->
          Hdd_core.Scheduler.begin_adhoc_update sched ~writes ~reads);
      read = Hdd_core.Scheduler.read sched;
      write = Hdd_core.Scheduler.write sched;
      commit = Hdd_core.Scheduler.commit sched;
      abort = Hdd_core.Scheduler.abort sched;
      try_commit = None;
      snapshot = Hdd_obs.Counters.create }
  in
  let config =
    { Runner.default_config with Runner.mpl = 8; target_commits = 1500; seed = 5 }
  in
  let r = Runner.run config wl controller in
  checki "completed" 1500 r.Runner.committed;
  checkb "versions bounded by collection" true
    (Hdd_mvstore.Store.version_count store < 2000);
  checkb "serializable with GC running" true
    (Hdd_core.Certifier.serializable log)

let test_nocc_not_serializable_under_contention () =
  (* few granules, many workers: conflicts guaranteed *)
  let wl =
    Workload.chain ~depth:2 ~keys_per_segment:2 ~cross_read_fraction:0.5
      ~ro_weight:0. ()
  in
  let config = { small_config with Runner.mpl = 8; target_commits = 400 } in
  let _, serializable = Harness.certified_run ~config Harness.Nocc wl in
  checkb "no control, contended: anomalies appear" false serializable

let test_hdd_zero_cross_class_registrations () =
  (* the paper's headline claim, measured end to end: registrations come
     only from root-segment (protocol B) reads.  In a workload whose
     writes are blind and whose every read is cross-class or read-only,
     HDD registers nothing at all. *)
  let partition =
    Hdd_core.Partition.build_exn
      (Hdd_core.Spec.make ~segments:[ "derived"; "events" ]
         ~types:
           [ Hdd_core.Spec.txn_type ~name:"feed" ~writes:[ 1 ] ~reads:[];
             Hdd_core.Spec.txn_type ~name:"derive" ~writes:[ 0 ] ~reads:[ 1 ] ])
  in
  let gr s k = Granule.make ~segment:s ~key:k in
  let wl =
    { Workload.wl_name = "blind-writes";
      partition;
      templates =
        [ { Workload.tpl_name = "feed"; kind = Controller.Update 1;
            weight = 0.4;
            gen = (fun rng -> [ Workload.Write (gr 1 (Prng.int rng 32), 1) ]) };
          { Workload.tpl_name = "derive"; kind = Controller.Update 0;
            weight = 0.4;
            gen =
              (fun rng ->
                [ Workload.Read (gr 1 (Prng.int rng 32));
                  Workload.Write (gr 0 (Prng.int rng 32), 1) ]) };
          { Workload.tpl_name = "audit"; kind = Controller.Read_only;
            weight = 0.2;
            gen =
              (fun rng ->
                [ Workload.Read (gr 0 (Prng.int rng 32));
                  Workload.Read (gr 1 (Prng.int rng 32)) ]) } ];
      init = (fun _ -> 0) }
  in
  let log = Sched_log.create () in
  let c = Harness.make ~log Harness.Hdd wl in
  let r = Runner.run small_config wl c in
  checkb "reads happened" true (Hdd_obs.Counters.reads r.Runner.counters > 0);
  checki "zero read registrations" 0
    r.Runner.counters.Hdd_obs.Counters.read_registrations;
  checkb "still serializable" true (Hdd_core.Certifier.serializable log)

let test_hdd_never_blocks_or_rejects_cross_reads () =
  let wl = Workload.tree ~branches:3 ~ro_weight:0.4 () in
  let r = Runner.run small_config wl (Harness.make Harness.Hdd wl) in
  (* blocks can only come from protocol B (root-segment) reads; in the
     tree workload feeders write blind and derivers read-modify-write
     their own granule, so root conflicts are the only source *)
  checkb "hdd commits everything it starts eventually" true
    (r.Runner.committed = 300)

(* --- retry policy --- *)

module Retry = Hdd_sim.Retry

let test_retry_backoff_shape () =
  let p = { Retry.default with Retry.jitter = 0.0 } in
  let rng = Prng.create 1 in
  Alcotest.check (Alcotest.float 1e-9) "first backoff is base" p.Retry.base
    (Retry.backoff p rng ~attempt:1);
  Alcotest.check (Alcotest.float 1e-9) "doubles per restart"
    (p.Retry.base *. 2.)
    (Retry.backoff p rng ~attempt:2);
  Alcotest.check (Alcotest.float 1e-9) "caps" p.Retry.cap
    (Retry.backoff p rng ~attempt:40);
  Alcotest.check_raises "attempt 0 rejected"
    (Invalid_argument "Retry.backoff: attempt must be >= 1") (fun () ->
      ignore (Retry.backoff p rng ~attempt:0))

let test_retry_jitter_bounded_and_deterministic () =
  let p = Retry.default in
  for attempt = 1 to 10 do
    let d = Retry.backoff p (Prng.create 5) ~attempt in
    let det =
      Float.min p.Retry.cap
        (p.Retry.base *. (p.Retry.multiplier ** float_of_int (attempt - 1)))
    in
    checkb "at least the deterministic part" true (d >= det);
    checkb "jitter bounded" true (d < det *. (1. +. p.Retry.jitter));
    Alcotest.check (Alcotest.float 1e-9) "same seed, same draw" d
      (Retry.backoff p (Prng.create 5) ~attempt)
  done

let test_retry_fixed_matches_legacy () =
  let p = Retry.fixed 4.0 in
  let rng = Prng.create 2 in
  for attempt = 1 to 5 do
    Alcotest.check (Alcotest.float 1e-9) "constant" 4.0
      (Retry.backoff p rng ~attempt)
  done;
  checkb "never gives up" false (Retry.exhausted p ~attempt:1_000_000);
  let m = Retry.monitor p in
  for _ = 1 to 1_000_000 do
    Retry.note_restart m
  done;
  checkb "never livelocked" false (Retry.livelocked m)

let test_retry_exhaustion_and_livelock () =
  let p = { Retry.default with Retry.max_restarts = 3; livelock_window = 5 } in
  checkb "below the cap" false (Retry.exhausted p ~attempt:2);
  checkb "at the cap" true (Retry.exhausted p ~attempt:3);
  let m = Retry.monitor p in
  for _ = 1 to 4 do
    Retry.note_restart m
  done;
  checkb "four restarts: not yet" false (Retry.livelocked m);
  Retry.note_commit m;
  checki "a commit resets the streak" 0 (Retry.consecutive_restarts m);
  for _ = 1 to 5 do
    Retry.note_restart m
  done;
  checkb "five consecutive restarts trip the detector" true
    (Retry.livelocked m)

let test_runner_restart_cap_gives_up () =
  (* TSO on the contended inventory workload restarts plenty; with an
     immediate give-up policy every restart becomes an abandonment and
     the run still terminates *)
  let wl = Workload.inventory () in
  let config =
    { small_config with
      Runner.retry = { (Retry.fixed 4.0) with Retry.max_restarts = 1 } }
  in
  let r = Runner.run config wl (Harness.make Harness.Tso wl) in
  checki "target still reached" 300 r.Runner.committed;
  checkb "transactions were abandoned" true (r.Runner.gave_up > 0);
  checki "every restart gave up" r.Runner.restarts r.Runner.gave_up;
  Alcotest.check (Alcotest.float 1e-9) "no backoff was ever scheduled" 0.
    r.Runner.total_backoff

let test_runner_backoff_accumulates () =
  let wl = Workload.inventory () in
  let r =
    Runner.run small_config wl (Harness.make Harness.Tso wl)
  in
  checkb "some restarts happened" true (r.Runner.restarts > 0);
  checkb "give-ups are rare under the default cap" true
    (r.Runner.gave_up * 10 < r.Runner.restarts + 10);
  checkb "backoff time accumulated" true
    (r.Runner.total_backoff >= 4.0 *. float_of_int (r.Runner.restarts - r.Runner.gave_up));
  checkb "streak recorded" true
    (r.Runner.max_restart_streak > 0
     && r.Runner.max_restart_streak <= r.Runner.restarts)

let suite =
  [ Alcotest.test_case "event queue: time order" `Quick test_event_queue_order;
    Alcotest.test_case "event queue: fifo on ties" `Quick test_event_queue_fifo_ties;
    Alcotest.test_case "event queue: growth" `Quick test_event_queue_growth;
    Alcotest.test_case "event queue: matches sorted-list reference" `Quick
      test_event_queue_matches_sorted_list;
    Alcotest.test_case "workloads: templates respect the spec" `Quick test_workload_templates_valid;
    Alcotest.test_case "workloads: deterministic pick" `Quick test_workload_pick_deterministic;
    Alcotest.test_case "workloads: tree RO spans branches" `Quick test_tree_ro_spans_branches;
    Alcotest.test_case "runner: reaches the target" `Quick test_runner_reaches_target;
    Alcotest.test_case "runner: deterministic" `Quick test_runner_deterministic;
    Alcotest.test_case "runner: counters flow" `Quick test_runner_counters_flow;
    Alcotest.test_case "certified: inventory, all protocols" `Slow test_certified_inventory;
    Alcotest.test_case "certified: chain-4, all protocols" `Slow test_certified_chain;
    Alcotest.test_case "certified: tree-3, all protocols" `Slow test_certified_tree;
    QCheck_alcotest.to_alcotest prop_random_hierarchies_certify;
    Alcotest.test_case "runner: open loop, light load" `Quick test_open_loop_light_load;
    Alcotest.test_case "runner: open loop, overload" `Quick test_open_loop_overload_queues;
    Alcotest.test_case "runner: open loop validation" `Quick test_open_loop_validation;
    Alcotest.test_case "runner: deadlock detection" `Quick test_deadlock_detection_resolves;
    Alcotest.test_case "gc: under concurrency, certified" `Slow test_gc_under_concurrency_certifies;
    Alcotest.test_case "NoCC under contention is not serializable" `Quick test_nocc_not_serializable_under_contention;
    Alcotest.test_case "HDD: zero registrations on cross-class reads" `Quick test_hdd_zero_cross_class_registrations;
    Alcotest.test_case "HDD: full completion on the tree" `Quick test_hdd_never_blocks_or_rejects_cross_reads;
    Alcotest.test_case "retry: backoff shape" `Quick test_retry_backoff_shape;
    Alcotest.test_case "retry: jitter bounded, deterministic" `Quick test_retry_jitter_bounded_and_deterministic;
    Alcotest.test_case "retry: fixed matches legacy" `Quick test_retry_fixed_matches_legacy;
    Alcotest.test_case "retry: exhaustion and livelock" `Quick test_retry_exhaustion_and_livelock;
    Alcotest.test_case "runner: restart cap gives up" `Quick test_runner_restart_cap_gives_up;
    Alcotest.test_case "runner: backoff accumulates" `Quick test_runner_backoff_accumulates ]

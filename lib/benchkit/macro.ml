module Partition = Hdd_core.Partition
module Activity = Hdd_core.Activity
module Scheduler = Hdd_core.Scheduler
module Outcome = Hdd_core.Outcome
module Chain = Hdd_mvstore.Chain
module Achain = Hdd_mvstore.Achain
module Store = Hdd_mvstore.Store
module Prng = Hdd_util.Prng
module J = Jsonlite

(* --- timing --- *)

let ns_per_op f =
  for _ = 1 to 100 do
    ignore (Sys.opaque_identity (f ()))
  done;
  let rec go iters =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt < 0.02 && iters < 50_000_000 then go (iters * 10)
    else dt *. 1e9 /. float_of_int iters
  in
  go 1000

let ops_per_sec ns = 1e9 /. ns

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(Int.min (n - 1) (p * n / 100))

(* --- the pre-PR cross-class threshold: per-call DFS + registry scan --- *)

let legacy_a_fn (ctx : Activity.ctx) ~from_class ~to_class m =
  if from_class = to_class then m
  else
    match
      Partition.critical_path_search ctx.Activity.partition from_class
        to_class
    with
    | None -> invalid_arg "legacy_a_fn: no critical path"
    | Some [] | Some [ _ ] -> m
    | Some (_ :: rest) ->
      List.fold_left
        (fun acc cls ->
          Registry.i_old_scan ctx.Activity.registry ~class_id:cls ~at:acc)
        m rest

(* --- before/after micro comparisons on the four optimized paths --- *)

let pair_json ~before_ns ~after_ns =
  J.Obj
    [ ("before_ns", J.Num before_ns);
      ("after_ns", J.Num after_ns);
      ("speedup", J.Num (before_ns /. after_ns)) ]

let hot_paths ~quick =
  let depth = 8 in
  let finished = if quick then 400 else 2000 in
  let chain_versions = if quick then 64 else 256 in
  let ctx, now = Fixtures.populated_ctx ~finished ~depth () in
  (* a query point inside class 0's busy interval, so the scan walks the
     class log instead of falling off either end *)
  let m = now / depth in
  let reg = ctx.Activity.registry in
  (* sanity: the fast paths must agree with the references before we
     time them *)
  assert (
    Registry.i_old reg ~class_id:0 ~at:m
    = Registry.i_old_scan reg ~class_id:0 ~at:m);
  assert (
    Activity.a_fn ctx ~from_class:0 ~to_class:(depth - 1) m
    = legacy_a_fn ctx ~from_class:0 ~to_class:(depth - 1) m);
  let registry_before =
    ns_per_op (fun () -> Registry.i_old_scan reg ~class_id:0 ~at:m)
  in
  let registry_after =
    ns_per_op (fun () -> Registry.i_old reg ~class_id:0 ~at:m)
  in
  let p = ctx.Activity.partition in
  let cp_before =
    ns_per_op (fun () -> Partition.critical_path_search p 0 (depth - 1))
  in
  let cp_after =
    ns_per_op (fun () -> Partition.critical_path p 0 (depth - 1))
  in
  let act_before =
    ns_per_op (fun () ->
        legacy_a_fn ctx ~from_class:0 ~to_class:(depth - 1) m)
  in
  let act_after =
    ns_per_op (fun () ->
        Activity.a_fn ctx ~from_class:0 ~to_class:(depth - 1) m)
  in
  (* chains whose timestamps span the registry's clock, as they would
     after a long run; the threshold lands deep in the history *)
  let stride = Int.max 1 (now / chain_versions) in
  let lchain = Fixtures.list_chain ~stride ~versions:chain_versions () in
  let achain = Fixtures.array_chain ~stride ~versions:chain_versions () in
  let th = Activity.a_fn ctx ~from_class:0 ~to_class:(depth - 1) m in
  let chain_before =
    ns_per_op (fun () -> Chain.committed_before lchain ~ts:th)
  in
  let chain_after =
    ns_per_op (fun () -> Achain.committed_before achain ~ts:th)
  in
  (* the acceptance path: full cross-class read — threshold composition
     plus version lookup — before vs after *)
  let read_before =
    ns_per_op (fun () ->
        Chain.committed_before lchain
          ~ts:(legacy_a_fn ctx ~from_class:0 ~to_class:(depth - 1) m))
  in
  let read_after =
    ns_per_op (fun () ->
        Achain.committed_before achain
          ~ts:(Activity.a_fn ctx ~from_class:0 ~to_class:(depth - 1) m))
  in
  J.Obj
    [ ("registry_i_old", pair_json ~before_ns:registry_before ~after_ns:registry_after);
      ("partition_critical_path", pair_json ~before_ns:cp_before ~after_ns:cp_after);
      ("activity_links", pair_json ~before_ns:act_before ~after_ns:act_after);
      ("chain_lookup", pair_json ~before_ns:chain_before ~after_ns:chain_after);
      ( "cross_class_read",
        J.Obj
          [ ("before_ops_per_sec", J.Num (ops_per_sec read_before));
            ("after_ops_per_sec", J.Num (ops_per_sec read_after));
            ("speedup", J.Num (read_before /. read_after)) ] ) ]

(* --- the closed-loop macro-benchmark --- *)

type kind = A_heavy | B_update of int | C_readonly

type live = {
  txn : Txn.t;
  kind : kind;
  mutable ops : (bool * Granule.t) list;  (** (is_write, granule) *)
  started : float;
}

type bucket = {
  mutable lat : float list;
  mutable txns : int;
  mutable ops_done : int;
}

let bucket () = { lat = []; txns = 0; ops_done = 0 }

let bucket_json b =
  let lat = Array.of_list b.lat in
  Array.sort compare lat;
  let us x = x *. 1e6 in
  J.Obj
    [ ("txns", J.num_of_int b.txns);
      ("ops", J.num_of_int b.ops_done);
      ("p50_us", J.Num (us (percentile lat 50)));
      ("p99_us", J.Num (us (percentile lat 99))) ]

let macro ?trace ~quick () =
  let depth = 8 in
  let keys = 4 in
  let target = if quick then 3_000 else 30_000 in
  let mpl = 6 in
  let partition = Fixtures.chain_partition depth in
  let store = Store.create ~segments:depth ~init:(fun _ -> 0) in
  let clock = Time.Clock.create () in
  let sched = Scheduler.create ?trace ~partition ~clock ~store () in
  (* benchmark telemetry goes through the metrics registry; with [trace]
     the standard event bridge feeds the same registry, which is the
     "metrics on" configuration the obs-overhead gate measures *)
  let bm = Hdd_obs.Metrics.create () in
  (match trace with
  | Some tr -> Hdd_obs.Metrics.attach bm tr
  | None -> ());
  let g = Prng.create 42 in
  let gran seg = Granule.make ~segment:seg ~key:(Prng.int g keys) in
  let spawn () =
    let roll = Prng.int g 100 in
    if roll < 55 then begin
      let cls = Prng.int g depth in
      { txn = Scheduler.begin_update sched ~class_id:cls;
        kind = B_update cls;
        ops =
          [ (false, gran cls); (true, gran cls); (false, gran cls);
            (true, gran cls) ];
        started = Unix.gettimeofday () }
    end
    else if roll < 85 then
      { txn = Scheduler.begin_update sched ~class_id:0;
        kind = A_heavy;
        ops =
          (List.init 4 (fun k -> (false, gran (depth - 1 - (k mod 4))))
          @ [ (true, gran 0) ]);
        started = Unix.gettimeofday () }
    else
      { txn = Scheduler.begin_read_only sched;
        kind = C_readonly;
        ops = List.init depth (fun s -> (false, gran s));
        started = Unix.gettimeofday () }
  in
  let a_bucket = bucket ()
  and b_bucket = bucket ()
  and c_bucket = bucket () in
  let bucket_of = function
    | A_heavy -> a_bucket
    | B_update _ -> b_bucket
    | C_readonly -> c_bucket
  in
  let blocked_aborts = Hdd_obs.Metrics.counter bm "bench.blocked_aborts"
  and rejected_aborts = Hdd_obs.Metrics.counter bm "bench.rejected_aborts"
  and committed = Hdd_obs.Metrics.counter bm "bench.committed" in
  let pool : live option array = Array.make mpl None in
  let t0 = Unix.gettimeofday () in
  let stalled = ref 0 in
  while Hdd_obs.Metrics.value committed < target && !stalled < 1_000_000 do
    incr stalled;
    let slot = Prng.int g mpl in
    match pool.(slot) with
    | None ->
      pool.(slot) <- Some (spawn ());
      stalled := 0
    | Some l -> (
      match l.ops with
      | [] ->
        Scheduler.commit sched l.txn;
        let b = bucket_of l.kind in
        b.txns <- b.txns + 1;
        b.lat <- (Unix.gettimeofday () -. l.started) :: b.lat;
        Hdd_obs.Metrics.incr committed;
        pool.(slot) <- None;
        stalled := 0
      | (is_write, gr) :: rest -> (
        let outcome =
          if is_write then
            match Scheduler.write sched l.txn gr 1 with
            | Outcome.Granted () -> `Ok
            | Outcome.Blocked _ -> `Blocked
            | Outcome.Rejected _ -> `Rejected
          else
            match Scheduler.read sched l.txn gr with
            | Outcome.Granted _ -> `Ok
            | Outcome.Blocked _ -> `Blocked
            | Outcome.Rejected _ -> `Rejected
        in
        match outcome with
        | `Ok ->
          (bucket_of l.kind).ops_done <- (bucket_of l.kind).ops_done + 1;
          l.ops <- rest;
          stalled := 0
        | (`Blocked | `Rejected) as why ->
          (* either way the driver aborts and the closed loop replaces
             the transaction; the split is reported as telemetry *)
          (match why with
          | `Blocked -> Hdd_obs.Metrics.incr blocked_aborts
          | `Rejected -> Hdd_obs.Metrics.incr rejected_aborts);
          Scheduler.abort sched l.txn;
          pool.(slot) <- None))
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  let total_ops =
    a_bucket.ops_done + b_bucket.ops_done + c_bucket.ops_done
  in
  let reg = Scheduler.registry sched in
  let records = ref 0
  and windows = ref 0 in
  for cls = 0 to depth - 1 do
    records := !records + Registry.record_count reg ~class_id:cls;
    windows := !windows + Registry.window_count reg ~class_id:cls
  done;
  let m = Scheduler.metrics sched in
  J.Obj
    [ ("elapsed_sec", J.Num elapsed);
      ("ops_per_sec", J.Num (float_of_int total_ops /. elapsed));
      ( "txns_per_sec",
        J.Num (float_of_int (Hdd_obs.Metrics.value committed) /. elapsed) );
      ("protocol_A", bucket_json a_bucket);
      ("protocol_B", bucket_json b_bucket);
      ("protocol_C", bucket_json c_bucket);
      ("blocked_aborts", J.num_of_int (Hdd_obs.Metrics.value blocked_aborts));
      ("rejected_aborts", J.num_of_int (Hdd_obs.Metrics.value rejected_aborts));
      ("metrics", Obs_export.metrics_json bm);
      ( "telemetry",
        J.Obj
          [ ("max_chain_length", J.num_of_int (Store.max_chain_length store));
            ("store_versions", J.num_of_int (Store.version_count store));
            ("registry_records", J.num_of_int !records);
            ("registry_windows", J.num_of_int !windows);
            ("reads_a", J.num_of_int m.Scheduler.reads_a);
            ("reads_b", J.num_of_int m.Scheduler.reads_b);
            ("reads_c", J.num_of_int m.Scheduler.reads_c);
            ("read_registrations", J.num_of_int m.Scheduler.read_registrations)
          ] ) ]

let run ?(quick = false) () =
  J.with_schema
    [ ( "meta",
        J.Obj
          [ ("schema", J.num_of_int 1);
            ("quick", J.Bool quick);
            ("depth", J.num_of_int 8);
            ( "note",
              J.Str
                "before numbers come from the retained pre-PR reference \
                 implementations (Registry.*_scan, \
                 Partition.*_search, list-backed Chain)" ) ] );
      ("hot_paths", hot_paths ~quick);
      ("macro", macro ~quick ()) ]

(* --- the observability-overhead gate --- *)

let obs_overhead ?(quick = false) ?(runs = 3) () =
  let tps ?trace () = J.num_at [ "txns_per_sec" ] (macro ?trace ~quick ()) in
  (* best-of-N per side, the rounds interleaved off/disabled/on so a
     machine-load swing degrades every side alike instead of whichever
     block it lands on: the gate measures systematic emission cost, not
     scheduler noise *)
  let off = ref 0.
  and disabled = ref 0.
  and on = ref 0. in
  for _ = 1 to runs do
    off := Float.max !off (tps ());
    (disabled :=
       let trace = Hdd_obs.Trace.create () in
       Hdd_obs.Trace.disable trace;
       Float.max !disabled (tps ~trace ()));
    on :=
      let trace = Hdd_obs.Trace.create () in
      Float.max !on (tps ~trace ())
  done;
  let off = !off
  and disabled = !disabled
  and on = !on in
  let frac x = if off > 0. then 1. -. (x /. off) else 0. in
  J.with_schema
    [ ("off_txns_per_sec", J.Num off);
      ("disabled_txns_per_sec", J.Num disabled);
      ("on_txns_per_sec", J.Num on);
      ("disabled_overhead_frac", J.Num (frac disabled));
      ("overhead_frac", J.Num (frac on)) ]

let obs_limit = 0.03

let obs_gates report =
  let frac = J.num_at [ "disabled_overhead_frac" ] report in
  if frac > obs_limit then
    [ Printf.sprintf
        "disabled_overhead_frac = %.2f%%: the always-on profile may cost \
         at most %.0f%% of closed-loop throughput"
        (100. *. frac) (100. *. obs_limit) ]
  else []

let pp_obs ppf report =
  let v keys = J.num_at keys report in
  Format.fprintf ppf
    "observability off: %.0f txns/sec, compiled-in disabled: %.0f \
     txns/sec (overhead %.2f%%, limit %.2f%%), fully on: %.0f txns/sec \
     (overhead %.2f%%, ungated)@."
    (v [ "off_txns_per_sec" ])
    (v [ "disabled_txns_per_sec" ])
    (100. *. v [ "disabled_overhead_frac" ])
    (100. *. obs_limit)
    (v [ "on_txns_per_sec" ])
    (100. *. v [ "overhead_frac" ])

(* --- reporting --- *)

let tracked =
  Baseline.metrics
    [ [ "macro"; "ops_per_sec" ];
      [ "macro"; "txns_per_sec" ];
      [ "hot_paths"; "cross_class_read"; "after_ops_per_sec" ] ]

let pp ppf report =
  let v keys = J.num_at keys report in
  Format.fprintf ppf "cross-class read: %.0f -> %.0f ops/sec (%.1fx)@."
    (v [ "hot_paths"; "cross_class_read"; "before_ops_per_sec" ])
    (v [ "hot_paths"; "cross_class_read"; "after_ops_per_sec" ])
    (v [ "hot_paths"; "cross_class_read"; "speedup" ]);
  List.iter
    (fun path ->
      Format.fprintf ppf "%-26s %.1fx@." ("hot_paths." ^ path)
        (v [ "hot_paths"; path; "speedup" ]))
    [ "registry_i_old"; "partition_critical_path"; "activity_links";
      "chain_lookup" ];
  Format.fprintf ppf
    "macro: %.0f ops/sec, %.0f txns/sec (A p99 %.1fus, B p99 %.1fus, C \
     p99 %.1fus)@."
    (v [ "macro"; "ops_per_sec" ])
    (v [ "macro"; "txns_per_sec" ])
    (v [ "macro"; "protocol_A"; "p99_us" ])
    (v [ "macro"; "protocol_B"; "p99_us" ])
    (v [ "macro"; "protocol_C"; "p99_us" ])

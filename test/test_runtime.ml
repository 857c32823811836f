(* The parallel runtime: unit tests for the multicore primitives, the
   1000-seed registry snapshot-vs-live equivalence property, JSON schema
   versioning, and the randomized multicore differential stress
   (reduced seed count in-tree; CI nightly raises HDD_PAR_SEEDS to the
   full 500). *)

module R = Hdd_runtime
module T = Hdd_obs.Trace
module J = Hdd_benchkit.Jsonlite
module P = Hdd_core.Partition

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- global logical clock --- *)

let test_gclock_unique () =
  let clock = R.Gclock.create () in
  let domains = 4 and per = 2000 in
  let spawned =
    Array.init domains (fun _ ->
        Domain.spawn (fun () -> Array.init per (fun _ -> R.Gclock.tick clock)))
  in
  let all =
    Array.to_list spawned
    |> List.concat_map (fun d -> Array.to_list (Domain.join d))
  in
  let sorted = List.sort_uniq compare all in
  checki "all ticks distinct" (domains * per) (List.length sorted);
  checki "clock advanced exactly once per tick" (domains * per)
    (R.Gclock.now clock);
  List.iter (fun t -> checkb "tick positive" true (t > 0)) sorted

(* --- bounded MPSC mailbox --- *)

let test_mailbox_fifo () =
  let mb = R.Mailbox.create ~capacity:8 in
  for i = 1 to 5 do
    checkb "push accepted" true (R.Mailbox.push mb i)
  done;
  checki "length" 5 (R.Mailbox.length mb);
  for i = 1 to 5 do
    check (Alcotest.option Alcotest.int) "fifo order" (Some i)
      (R.Mailbox.try_pop mb)
  done;
  check (Alcotest.option Alcotest.int) "empty" None (R.Mailbox.try_pop mb);
  for i = 1 to 6 do
    ignore (R.Mailbox.push mb i)
  done;
  let buf = Array.make 4 0 in
  checki "pop_into bounded by max" 4 (R.Mailbox.pop_into mb buf ~max:4);
  checkb "pop_into kept order" true (buf = [| 1; 2; 3; 4 |]);
  checki "pop_into drains the rest" 2 (R.Mailbox.pop_into mb buf ~max:4);
  checki "pop_into on empty" 0 (R.Mailbox.pop_into mb buf ~max:4);
  (* a push never waits: a full box refuses and keeps what it holds *)
  for i = 1 to 8 do
    checkb "push accepted up to capacity" true (R.Mailbox.push mb i)
  done;
  checkb "a full box refuses" false (R.Mailbox.push mb 9);
  checki "nothing queued by the refused push" 8 (R.Mailbox.length mb);
  check (Alcotest.option Alcotest.int) "pop from the full box" (Some 1)
    (R.Mailbox.try_pop mb);
  checkb "accepts again after a pop" true (R.Mailbox.push mb 9);
  let all = Array.make 8 0 in
  checki "eight queued" 8 (R.Mailbox.pop_into mb all ~max:8);
  checkb "fifo across the refusal" true (all = [| 2; 3; 4; 5; 6; 7; 8; 9 |]);
  R.Mailbox.close mb;
  checkb "push to closed refused" false (R.Mailbox.push mb 99);
  checkb "drained" true (R.Mailbox.is_drained mb)

let test_mailbox_backpressure () =
  (* a tiny ring forces the producer to wait for the consumer *)
  let n = 500 in
  let mb = R.Mailbox.create ~capacity:4 in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to n do
          while not (R.Mailbox.push mb i) do
            Domain.cpu_relax ()
          done
        done;
        R.Mailbox.close mb)
  in
  let received = ref [] in
  let rec drain () =
    match R.Mailbox.try_pop mb with
    | Some v ->
      received := v :: !received;
      drain ()
    | None -> if not (R.Mailbox.is_drained mb) then (Domain.cpu_relax (); drain ())
  in
  drain ();
  Domain.join producer;
  checki "all delivered" n (List.length !received);
  check
    (Alcotest.list Alcotest.int)
    "in order" (List.init n (fun i -> i + 1))
    (List.rev !received)

(* --- seqlock-published wall --- *)

let test_seqwall_no_tearing () =
  (* every published wall has all components equal to its anchor; a torn
     read would mix two publications and break the uniformity *)
  let mk m =
    Hdd_core.Timewall.make ~s:0 ~m ~components:(Array.make 6 m)
      ~released_at:(m + 1)
  in
  let sw = R.Seqwall.create (mk 0) in
  let rounds = 2000 in
  let writer =
    Domain.spawn (fun () ->
        for m = 1 to rounds do
          R.Seqwall.publish sw (mk m)
        done)
  in
  let torn = ref 0 and seen_m = ref (-1) in
  let reads = ref 0 in
  while !seen_m < rounds do
    let w = R.Seqwall.read sw in
    incr reads;
    let m = w.Hdd_core.Timewall.m in
    Array.iter
      (fun c -> if c <> m then incr torn)
      w.Hdd_core.Timewall.components;
    if w.Hdd_core.Timewall.released_at <> m + 1 then incr torn;
    if m > !seen_m then seen_m := m
  done;
  Domain.join writer;
  checki "no torn reads" 0 !torn;
  checkb "reader made progress" true (!reads > 0)

(* --- the packed version store --- *)

module Ps = Hdd_mvstore.Pstore

let raises_negative_key label f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" label
  | exception Invalid_argument msg ->
    check Alcotest.string label "Pstore: negative key" msg

(* owner face: reads at, below and above every version, the bootstrap,
   refused timestamps and negative keys *)
let test_pstore_owner () =
  let t = Ps.create () in
  checki "empty store serves the bootstrap" Time.zero
    (Ps.latest_before t ~key:3 ~ts:100);
  List.iter (fun (ts, v) -> Ps.add_commit t ~key:3 ~ts ~value:v)
    [ (5, 50); (9, 90); (12, 120) ];
  List.iter
    (fun (ts, want) ->
      checki (Printf.sprintf "latest below %d" ts) want
        (Ps.latest_before t ~key:3 ~ts))
    [ (1, 0); (5, 0); (6, 5); (9, 5); (10, 9); (12, 9); (13, 12);
      (max_int, 12) ];
  List.iter
    (fun (ts, want) ->
      checki (Printf.sprintf "value of %d" ts) want
        (Ps.value_of t ~key:3 ~ts ~fallback:(-1)))
    [ (4, -1); (5, 50); (6, -1); (9, 90); (11, -1); (12, 120); (13, -1) ];
  checki "untouched lower key" Time.zero (Ps.latest_before t ~key:0 ~ts:100);
  checki "key beyond the range" Time.zero
    (Ps.latest_before t ~key:1000 ~ts:100);
  check
    (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
    "pair below 12" (Some (9, 90))
    (Ps.latest_before_pair t ~key:3 ~ts:12);
  checkb "pair at the bootstrap" true
    (Ps.latest_before_pair t ~key:3 ~ts:5 = None);
  List.iter
    (fun ts ->
      checkb (Printf.sprintf "ts %d refused" ts) true
        (try
           Ps.add_commit t ~key:3 ~ts ~value:0;
           false
         with Invalid_argument _ -> true))
    [ 12; 11; 1 ];
  checki "a refused commit leaves no trace" 12
    (Ps.latest_before t ~key:3 ~ts:max_int);
  let v = Ps.publish t in
  List.iter
    (fun key ->
      let l = Printf.sprintf "key %d" key in
      raises_negative_key (l ^ " latest_before") (fun () ->
          Ps.latest_before t ~key ~ts:10);
      raises_negative_key (l ^ " value_of") (fun () ->
          Ps.value_of t ~key ~ts:10 ~fallback:0);
      raises_negative_key (l ^ " latest_before_pair") (fun () ->
          Ps.latest_before_pair t ~key ~ts:10);
      raises_negative_key (l ^ " view") (fun () ->
          Ps.view_latest_before v ~key ~ts:10);
      raises_negative_key (l ^ " add_commit") (fun () ->
          Ps.add_commit t ~key ~ts:100 ~value:0))
    [ -1; -2; -1_000_000; min_int ]

(* compaction below the watermark keeps the newest version under it —
   what a read exactly at the watermark serves, and what the engine's
   allocation probe relies on to stay at steady capacity *)
let test_pstore_compaction () =
  let t = Ps.create () in
  for ts = 1 to 4 do
    Ps.add_commit t ~key:0 ~ts ~value:(10 * ts)
  done;
  Ps.set_watermark t 4;
  Ps.set_watermark t 2;  (* monotone: ignored *)
  (* the fifth version overflows the first buffer and compacts it *)
  Ps.add_commit t ~key:0 ~ts:5 ~value:50;
  checki "read at the watermark keeps its version" 3
    (Ps.latest_before t ~key:0 ~ts:4);
  checki "its value" 30 (Ps.value_of t ~key:0 ~ts:3 ~fallback:(-1));
  checki "versions below it are gone" (-1)
    (Ps.value_of t ~key:0 ~ts:2 ~fallback:(-1));
  checki "reads above the watermark unchanged" 4
    (Ps.latest_before t ~key:0 ~ts:5);
  checki "newest" 5 (Ps.latest_before t ~key:0 ~ts:max_int);
  (* a long run behind an advancing watermark: every read at or above
     the watermark is still exact *)
  for ts = 6 to 2_000 do
    Ps.add_commit t ~key:0 ~ts ~value:(10 * ts);
    if ts mod 7 = 0 then Ps.set_watermark t (ts - 3)
  done;
  for ts = 1_997 to 2_001 do
    checki (Printf.sprintf "latest below %d" ts) (ts - 1)
      (Ps.latest_before t ~key:0 ~ts);
    checki (Printf.sprintf "value of %d" (ts - 1)) (10 * (ts - 1))
      (Ps.value_of t ~key:0 ~ts:(ts - 1) ~fallback:(-1))
  done

(* A view answers every read at or below the newest published version
   exactly as the owner face does — also after later commits,
   publications and table growth — and never shows an unpublished
   version.  Timestamps rise across keys, as under one clock. *)
let test_pstore_views () =
  for seed = 1 to 100 do
    let prng = Hdd_util.Prng.create seed in
    let t = Ps.create () in
    let views = ref [] and ts = ref 0 and range = ref 2 in
    for _ = 1 to 150 do
      if !range < 64 && Hdd_util.Prng.int prng 20 = 0 then
        range := !range * 2;
      incr ts;
      let key = Hdd_util.Prng.int prng !range in
      Ps.add_commit t ~key ~ts:!ts ~value:(!ts * 3);
      if Hdd_util.Prng.int prng 6 = 0 then begin
        let v = Ps.publish t in
        views := (v, !ts) :: !views;
        if Ps.dirty_count t <> 0 then
          Alcotest.failf "seed %d: publish left keys dirty" seed
      end;
      (* the newest view hides every version above its publication *)
      match !views with
      | (v, upto) :: _ ->
        for key = 0 to !range do
          if Ps.view_latest_before v ~key ~ts:max_int
             <> Ps.latest_before t ~key ~ts:(upto + 1)
          then
            Alcotest.failf "seed %d: view shows an unpublished version of %d"
              seed key
        done
      | [] -> ()
    done;
    List.iter
      (fun (v, upto) ->
        for key = 0 to !range do
          for th = 0 to upto + 1 do
            let got = Ps.view_latest_before v ~key ~ts:th
            and want = Ps.latest_before t ~key ~ts:th in
            if got <> want then
              Alcotest.failf
                "seed %d: view published at %d reads key %d below %d as %d, \
                 owner %d"
                seed upto key th got want
          done
        done)
      !views
  done

(* One domain commits to a growing key range, publishes every few
   commits and then raises an [Atomic] upto, as an engine owner sets
   its store view before its activity publication; the other loads
   upto, then the view, and must find the newest version <= upto of a
   random key.  The key written at each timestamp is a pure function of
   it, so the reader knows the answer. *)
let test_pstore_two_domain () =
  let commits = 60_000 in
  let range_at ts = 1 + (ts / 32) in
  let key_at ts = (ts * 7919) mod range_at ts in
  let rec newest_at_or_below key ts =
    if ts <= 0 then Time.zero
    else if key_at ts = key then ts
    else newest_at_or_below key (ts - 1)
  in
  let t = Ps.create () in
  let view = Atomic.make Ps.empty_view and upto = Atomic.make 0 in
  let writer =
    Domain.spawn (fun () ->
        for ts = 1 to commits do
          Ps.add_commit t ~key:(key_at ts) ~ts ~value:ts;
          if ts mod 5 = 0 || ts = commits then begin
            Atomic.set view (Ps.publish t);
            Atomic.set upto ts
          end
        done)
  in
  let prng = Hdd_util.Prng.create 17 in
  let checked = ref 0 and wrong = ref [] in
  while Atomic.get upto < commits || !checked < 1_000 do
    let u = Atomic.get upto in
    let v = Atomic.get view in
    let key = Hdd_util.Prng.int prng (range_at u + 2) in
    let got = Ps.view_latest_before v ~key ~ts:(u + 1) in
    let want = newest_at_or_below key u in
    incr checked;
    if got <> want && List.length !wrong < 5 then
      wrong := Printf.sprintf "upto %d key %d: %d, want %d" u key got want
               :: !wrong
  done;
  Domain.join writer;
  if !wrong <> [] then Alcotest.failf "%s" (String.concat "\n" !wrong);
  checkb "reader made progress" true (!checked > 0)

(* --- per-domain traces merge by logical time --- *)

let test_trace_merge () =
  let t1 = T.create ~domain:1 () and t2 = T.create ~domain:2 () in
  T.emit t1 ~at:3 (T.Note "a");
  T.emit t2 ~at:1 (T.Note "b");
  T.emit t1 ~at:5 (T.Note "c");
  T.emit t2 ~at:4 (T.Note "d");
  let merged = T.merged [ t1; t2 ] in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "sorted by (at, dom)"
    [ (1, 2); (3, 1); (4, 2); (5, 1) ]
    (List.map (fun (r : T.record) -> (r.at, r.dom)) merged);
  checki "domain tag" 1 (T.domain t1)

(* --- monitor wall rules --- *)

let test_monitor_any_released () =
  let mk_records () =
    let wall1 = T.Wall_release { m = 1; released_at = 2; components = [| 5; 5 |] } in
    let wall2 = T.Wall_release { m = 3; released_at = 4; components = [| 7; 7 |] } in
    let begin_ro = T.Begin { txn = 9; kind = T.Read_only; init = 6 } in
    let read_old =
      T.Read { txn = 9; protocol = T.C; segment = 1; key = 0; threshold = 5;
               version = 0 }
    in
    List.mapi
      (fun i ev -> { T.seq = i; at = i + 1; dom = 0; ev })
      [ wall1; wall2; begin_ro; read_old ]
  in
  (* under the serial rule the reader must hold the newest wall (7) *)
  let strict =
    Hdd_obs.Monitor.create ~raise_on_violation:false ~wall_rule:`Latest ()
  in
  List.iter (Hdd_obs.Monitor.feed strict) (mk_records ());
  checkb "Latest flags the stale wall" true
    (Hdd_obs.Monitor.violations strict <> []);
  (* the parallel rule accepts any wall released before initiation *)
  let relaxed =
    Hdd_obs.Monitor.create ~raise_on_violation:false
      ~wall_rule:`Any_released ()
  in
  List.iter (Hdd_obs.Monitor.feed relaxed) (mk_records ());
  check (Alcotest.list Alcotest.string) "Any_released accepts it" []
    (Hdd_obs.Monitor.violations relaxed);
  (* but still rejects a threshold no released wall ever had *)
  let bogus =
    Hdd_obs.Monitor.create ~raise_on_violation:false
      ~wall_rule:`Any_released ()
  in
  List.iter (Hdd_obs.Monitor.feed bogus)
    (List.map
       (fun (r : T.record) ->
         match r.ev with
         | T.Read p -> { r with ev = T.Read { p with threshold = 6 } }
         | _ -> r)
       (mk_records ()));
  checkb "Any_released rejects invented threshold" true
    (Hdd_obs.Monitor.violations bogus <> [])

(* --- registry snapshot-vs-live equivalence, 1000 seeds --- *)

let test_registry_snapshot_property () =
  let seeds = 1000 in
  for seed = 1 to seeds do
    let prng = Hdd_util.Prng.create seed in
    let classes = 1 + Hdd_util.Prng.int prng 4 in
    let reg = Registry.create ~classes () in
    let now = ref 0 in
    let tick () = incr now; !now in
    let actives = ref [] in
    let steps = 10 + Hdd_util.Prng.int prng 40 in
    let next_id = ref 0 in
    let mutate () =
      if !actives <> [] && Hdd_util.Prng.float prng 1. < 0.45 then begin
        let arr = Array.of_list !actives in
        let t = Hdd_util.Prng.pick prng arr in
        actives := List.filter (fun u -> u != t) !actives;
        if Hdd_util.Prng.bool prng then Txn.commit t ~at:(tick ())
        else Txn.abort t ~at:(tick ())
      end
      else begin
        incr next_id;
        let c = Hdd_util.Prng.int prng classes in
        let t =
          Txn.make ~id:!next_id ~kind:(Txn.Update c) ~init:(tick ())
        in
        Registry.register reg t;
        actives := t :: !actives
      end
    in
    for _ = 1 to steps do mutate () done;
    let capture = !now in
    let snap = Registry.snapshot reg in
    let queries =
      List.init 20 (fun _ ->
          (Hdd_util.Prng.int prng classes, Hdd_util.Prng.int prng (capture + 1)))
    in
    let expect =
      List.map
        (fun (c, at) ->
          ( Registry.i_old reg ~class_id:c ~at,
            Registry.c_late reg ~class_id:c ~at ))
        queries
    in
    let compare_snap () =
      List.iter2
        (fun (c, at) (io, cl) ->
          if Registry.snap_i_old snap ~class_id:c ~at <> io then
            Alcotest.failf "seed %d: snap_i_old(%d, %d) diverges" seed c at;
          if Registry.snap_c_late snap ~class_id:c ~at <> cl then
            Alcotest.failf "seed %d: snap_c_late(%d, %d) diverges" seed c at)
        queries expect
    in
    compare_snap ();
    (* the snapshot is immutable: later registry activity on fresh
       transactions must not change any answer at or below capture *)
    for _ = 1 to 10 do mutate () done;
    compare_snap ();
    List.iter
      (fun c ->
        checki "generation frozen at capture"
          (Registry.snap_generation snap ~class_id:c)
          (Registry.snap_generation snap ~class_id:c))
      (List.init classes Fun.id)
  done

(* --- registry snapshot reuse, 1000 seeds --- *)

(* Register/commit/abort, packed register_active/finish_active and
   prune, interleaved at random ([Fixtures.registry_history]), with a
   snapshot after every step.  Every snapshot must answer
   [i_old]/[c_late] as the live registry did at its capture, at every
   argument, and keep doing so to the end.  Between two consecutive
   snapshots, a class nobody touched must share its frozen view
   physically; a class that changed or lost windows to [prune] must
   not. *)
let test_registry_snapshot_reuse () =
  for seed = 1 to 1000 do
    let prng = Hdd_util.Prng.create seed in
    let { Fixtures.reg; classes; now; touched; step } =
      Fixtures.registry_history prng
    in
    let answers snap_or_live =
      Array.init classes (fun c ->
          Array.init (!now + 2) (fun at -> snap_or_live c at))
    in
    let live c at =
      ( Registry.i_old reg ~class_id:c ~at,
        Registry.c_late reg ~class_id:c ~at )
    in
    let of_snap snap c at =
      ( Registry.snap_i_old snap ~class_id:c ~at,
        Registry.snap_c_late snap ~class_id:c ~at )
    in
    let taken = ref [] in
    let prev = ref (Registry.snapshot reg) in
    for k = 1 to 10 + Hdd_util.Prng.int prng 40 do
      Array.fill touched 0 classes false;
      step ();
      let snap = Registry.snapshot reg in
      let expect = answers live in
      if answers (of_snap snap) <> expect then
        Alcotest.failf "seed %d step %d: snapshot answers differ from live"
          seed k;
      taken := (k, snap, expect) :: !taken;
      for c = 0 to classes - 1 do
        let shared = Registry.same_view !prev snap ~class_id:c in
        if touched.(c) && shared then
          Alcotest.failf "seed %d step %d: class %d changed, view reused"
            seed k c
        else if (not touched.(c)) && not shared then
          Alcotest.failf "seed %d step %d: class %d untouched, view copied"
            seed k c
      done;
      prev := snap
    done;
    (* later steps never change what an earlier snapshot answers *)
    List.iter
      (fun (k, snap, expect) ->
        let n = Array.length expect.(0) in
        let again =
          Array.init classes (fun c ->
              Array.init n (fun at -> of_snap snap c at))
        in
        if again <> expect then
          Alcotest.failf "seed %d: snapshot of step %d changed" seed k)
      !taken
  done

(* --- JSON schema versioning --- *)

let test_jsonlite_schema () =
  let doc = J.with_schema [ ("x", J.num_of_int 1) ] in
  check (Alcotest.option Alcotest.int) "stamped" (Some J.schema_version)
    (J.schema_of doc);
  check (Alcotest.option Alcotest.int) "survives round-trip"
    (Some J.schema_version)
    (J.schema_of (J.of_string (J.to_string doc)));
  check (Alcotest.option Alcotest.int) "pre-versioning doc" None
    (J.schema_of (J.Obj [ ("x", J.Num 1.) ]));
  (* unknown fields are kept by the parser and ignored by accessors *)
  let fancy =
    J.of_string
      {|{"schema_version": 99, "future_blob": {"deep": [1, 2, {"k": true}]},
         "x": 7}|}
  in
  check (Alcotest.option Alcotest.int) "future version readable" (Some 99)
    (J.schema_of fancy);
  check
    (Alcotest.option (Alcotest.float 0.))
    "known fields still reachable" (Some 7.)
    (Option.bind (J.member "x" fancy) J.number)

(* --- the engine itself --- *)

let ok_or_fail label r =
  if not (R.Differential.ok r) then
    Alcotest.failf "%s:@.%a" label R.Differential.pp_report r

let test_engine_single_worker () =
  let partition = R.Differential.chain_partition 4 in
  let script =
    R.Differential.gen_script ~partition ~seed:7 ~txns:60 ()
  in
  let config = R.Engine.default_config ~workers:1 in
  let r = R.Differential.check ~partition ~init:R.Differential.default_init ~config script in
  ok_or_fail "single worker" r;
  checki "every descriptor got a verdict" 60
    (r.R.Differential.r_stats.committed + r.R.Differential.r_stats.aborted);
  checkb "traced events present" true
    (r.R.Differential.r_oracle.Hdd_core.Oracle.events > 0);
  checkb "walls released" true (r.R.Differential.r_stats.wall_releases >= 1)

let cross_class_check ~publish_every =
  let partition = R.Differential.chain_partition 2 in
  let g1 = Granule.make ~segment:1 ~key:0 in
  let script =
    [| { R.Engine.d_id = 1; d_kind = `Update 1;
         d_ops = [ R.Engine.Write (g1, 111); R.Engine.Read g1 ];
         d_abort = false };
       { R.Engine.d_id = 2; d_kind = `Update 1;
         d_ops = [ R.Engine.Write (g1, 222) ]; d_abort = true };
       { R.Engine.d_id = 3; d_kind = `Update 0;
         d_ops =
           [ R.Engine.Write (Granule.make ~segment:0 ~key:0, 9);
             R.Engine.Read g1 ];
         d_abort = false } |]
  in
  let config =
    { (R.Engine.default_config ~workers:2) with publish_every }
  in
  let r = R.Differential.check ~partition ~init:R.Differential.default_init ~config script in
  ok_or_fail (Printf.sprintf "two-class script at K=%d" publish_every) r;
  checki "aborts" 1 r.R.Differential.r_stats.aborted;
  checki "commits" 2 r.R.Differential.r_stats.committed

(* deterministic two-class script: the cross-class reader must see the
   initial value while the writer is uncommitted, then the committed
   value once the writer's activity has cleared *)
let test_engine_cross_class_values () = cross_class_check ~publish_every:1

(* the PR 5 drain-deadlock shape — a worker going idle while a peer
   still needs its publication — re-run at every batch K: with K > 1 the
   blocked reader must get unstuck through a republication request, not
   by luck of the next commit *)
let test_drain_deadlock_every_k () =
  List.iter (fun k -> cross_class_check ~publish_every:k) [ 1; 4; 16; 64 ]

let stress_seeds () = Fixtures.seeds_from_env "HDD_PAR_SEEDS"

let test_multicore_stress () =
  let seeds = stress_seeds () in
  let failures = ref [] in
  for seed = 1 to seeds do
    let workers = Fixtures.scaled_workers seed
    and profile = Fixtures.stress_profile seed in
    let r = R.Differential.stress_one ~seed ~workers ~txns:40 ~profile () in
    if not (R.Differential.ok r) then
      failures :=
        Format.asprintf "seed %d workers %d: %a" seed workers
          R.Differential.pp_report r
        :: !failures
  done;
  if !failures <> [] then
    Alcotest.failf "%d/%d stress runs diverged:@.%s"
      (List.length !failures) seeds
      (String.concat "\n" !failures)

let test_run_timed_smoke () =
  let partition = R.Differential.chain_partition 4 in
  let t =
    R.Engine.run_timed ~partition ~init:R.Differential.default_init
      ~workers:2 ~seconds:0.1
      ~mix:
        { R.Engine.ro_frac = 0.1; abort_frac = 0.05; cross_reads = 2;
          own_ops = 2; keys_per_segment = 4 }
      ~seed:3 ()
  in
  let s = t.R.Engine.t_stats in
  checkb "made progress" true (s.R.Engine.committed > 0);
  checkb "cross-class reads happened" true (s.R.Engine.reads_a > 0);
  let hist =
    Hdd_obs.Metrics.histogram t.R.Engine.t_latency "commit_latency_us"
  in
  let samples = Hdd_obs.Metrics.hist_count hist in
  checkb "latency samples for update commits" true
    (samples > 0 && samples <= s.R.Engine.committed)

let test_parbench_json () =
  let r =
    R.Parbench.run ~workers_list:[ 1; 2 ] ~depth:4 ~seconds:0.05 ~seed:1 ()
  in
  let json = R.Parbench.to_json r in
  check (Alcotest.option Alcotest.int) "schema stamped"
    (Some J.schema_version) (J.schema_of json);
  let parsed = J.of_string (J.to_string json) in
  (match J.member "points" parsed with
  | Some (J.List pts) -> checki "two points" 2 (List.length pts)
  | _ -> Alcotest.fail "points missing");
  checkb "no 1->4 ratio without a 4-worker point" true
    (r.R.Parbench.r_scaling_1_to_4 = None)

(* --- activity board: the seqlocked per-class fast path --- *)

let test_actboard_registry_equivalence () =
  (* 1000 random single-owner histories, driven into the registry and
     the board in lockstep: whenever the board's record decides (returns
     >= 0) it must equal Registry.i_old exactly — the monitor replays
     thresholds from the trace, so a lower-but-serializable answer still
     fails the oracle.  Mid-transition reads must refuse to decide. *)
  let out = Array.make 6 0 in
  for seed = 1 to 1000 do
    let prng = Hdd_util.Prng.create (seed + 7919) in
    let ab = R.Actboard.create ~classes:1 in
    let reg = Registry.create ~classes:1 () in
    let now = ref 0 in
    let tick () = incr now; !now in
    let next_id = ref 0 in
    let probe () =
      let at = 1 + Hdd_util.Prng.int prng (!now + 2) in
      checkb "single-threaded read always stable" true
        (R.Actboard.read_into ab 0 ~out ~retries:4);
      let fast = R.Actboard.i_old_of_record out ~at in
      if fast >= 0 then
        checki
          (Printf.sprintf "seed %d I_old at %d" seed at)
          (Registry.i_old reg ~class_id:0 ~at)
          fast
    in
    for _ = 1 to 12 do
      if Hdd_util.Prng.bool prng then ignore (tick ());
      probe ();
      incr next_id;
      R.Actboard.begin_txn ab 0;
      let init = tick () in
      Registry.register_active reg ~class_id:0 ~id:!next_id ~init;
      R.Actboard.set_busy ab 0 ~init;
      probe ();
      if Hdd_util.Prng.bool prng then ignore (tick ());
      probe ();
      R.Actboard.set_ending ab 0;
      checkb "read mid-transition stays stable" true
        (R.Actboard.read_into ab 0 ~out ~retries:4);
      checki "transition state falls back" (-1)
        (R.Actboard.i_old_of_record out ~at:(!now + 1));
      let endt = tick () in
      Registry.finish_active reg ~class_id:0 ~endt;
      R.Actboard.set_idle ab 0 ~init ~endt;
      probe ()
    done
  done

(* --- version rings --- *)

let test_vring_ring () =
  let v = R.Vring.create ~entries:8 in
  checki "capacity" 8 (R.Vring.capacity v);
  checki "empty ring: view complete" 0
    (R.Vring.latest_below v ~key:0 ~ts:100 ~floor:0);
  (* one transaction writing two keys publishes with a single advance *)
  R.Vring.stage v 0 ~ts:5 ~key:1 ~value:50;
  R.Vring.stage v 1 ~ts:5 ~key:2 ~value:51;
  checki "staged entries invisible" 0
    (R.Vring.latest_below v ~key:1 ~ts:100 ~floor:0);
  R.Vring.advance v 2;
  checki "found after advance" 5
    (R.Vring.latest_below v ~key:1 ~ts:100 ~floor:0);
  checki "whole equal-ts block visible" 5
    (R.Vring.latest_below v ~key:2 ~ts:100 ~floor:0);
  check (Alcotest.option Alcotest.int) "value travels" (Some 50)
    (R.Vring.value_at v ~key:1 ~ts:5);
  (* threshold at the entry: strictly-below finds nothing newer *)
  checki "threshold excludes own ts" 0
    (R.Vring.latest_below v ~key:1 ~ts:5 ~floor:0);
  (* floor at the block's ts: the stop block is still examined in full,
     so a multi-key transaction straddling the floor resolves in-ring *)
  checki "stop block examined in full" 5
    (R.Vring.latest_below v ~key:1 ~ts:100 ~floor:5);
  (* overflow the ring: a scan that would need evicted entries reports
     the wrap instead of a silently incomplete answer *)
  for i = 0 to 11 do
    R.Vring.stage v (2 + i) ~ts:(10 + i) ~key:(i mod 3) ~value:i;
    R.Vring.advance v (3 + i)
  done;
  checki "head counts every append" 14 (R.Vring.head v);
  checki "newest still found" 21 (R.Vring.latest_below v ~key:2 ~ts:100 ~floor:20);
  checki "wrapped scan falls back" (-1)
    (R.Vring.latest_below v ~key:7 ~ts:100 ~floor:4)

(* --- epoch wall vs seqlock wall --- *)

let mkwall m =
  Hdd_core.Timewall.make ~s:0 ~m ~components:(Array.make 6 m)
    ~released_at:(m + 1)

let test_epochwall_seqwall_equivalence () =
  (* 1000 random release schedules driven into both implementations:
     every read agrees — the epoch wall is a drop-in for the seqlock *)
  for seed = 1 to 1000 do
    let prng = Hdd_util.Prng.create (seed * 31) in
    let ew = R.Epochwall.create (mkwall 0) in
    let sw = R.Seqwall.create (mkwall 0) in
    let m = ref 0 in
    for _ = 1 to 20 do
      if Hdd_util.Prng.bool prng then begin
        m := !m + 1 + Hdd_util.Prng.int prng 5;
        R.Epochwall.publish ew (mkwall !m);
        R.Seqwall.publish sw (mkwall !m)
      end;
      let a = R.Epochwall.read ew and b = R.Seqwall.read sw in
      checki "same wall" b.Hdd_core.Timewall.m a.Hdd_core.Timewall.m
    done
  done

let test_epochwall_pinned_reader () =
  (* pin a reader mid-read: capture the epoch, let the writer advance
     twice (a full lap rewrites the captured slot), then finish the
     read — the result must be one of the complete published walls *)
  let ew = R.Epochwall.create (mkwall 0) in
  for m = 1 to 100 do
    let e = R.Epochwall.epoch ew in
    R.Epochwall.publish ew (mkwall (2 * m));
    R.Epochwall.publish ew (mkwall ((2 * m) + 1));
    let w = R.Epochwall.read_slot ew e in
    let a = w.Hdd_core.Timewall.m in
    Array.iter (fun c -> checki "pinned read complete" a c)
      w.Hdd_core.Timewall.components;
    checki "released_at consistent" (a + 1) w.Hdd_core.Timewall.released_at
  done;
  (* and the concurrent hunt: wait-free reads are complete and monotone *)
  let ew = R.Epochwall.create (mkwall 0) in
  let rounds = 2000 in
  let writer =
    Domain.spawn (fun () ->
        for m = 1 to rounds do
          R.Epochwall.publish ew (mkwall m)
        done)
  in
  let torn = ref 0 and seen = ref (-1) and last = ref 0 in
  while !seen < rounds do
    let w = R.Epochwall.read ew in
    let m = w.Hdd_core.Timewall.m in
    Array.iter
      (fun c -> if c <> m then incr torn)
      w.Hdd_core.Timewall.components;
    if w.Hdd_core.Timewall.released_at <> m + 1 then incr torn;
    if m < !last then incr torn;
    last := m;
    if m > !seen then seen := m
  done;
  Domain.join writer;
  checki "no torn or backwards reads" 0 !torn

(* --- zero-allocation commit path --- *)

let test_alloc_probe_zero () =
  check (Alcotest.float 0.) "Protocol B commit path allocates nothing" 0.
    (R.Engine.alloc_probe ())

(* --- batched publication changes nothing observable --- *)

let batch_seeds () = Fixtures.seeds_from_env ~default:12 "HDD_BATCH_SEEDS"

let test_batching_identity () =
  (* every batch K must pass the full four-check oracle AND reach the
     same verdict totals as per-commit publication — batching may only
     delay when peers learn of activity, never what they conclude
     (reduced seed count in-tree; nightly raises HDD_BATCH_SEEDS) *)
  let seeds = batch_seeds () in
  let ks = [ 1; 4; 16; 64 ] in
  let profiles =
    [| R.Differential.Mixed; R.Differential.Abort_heavy;
       R.Differential.Adhoc_read |]
  in
  let failures = ref [] in
  for seed = 1 to seeds do
    let workers = [| 2; 4; 8 |].(seed mod 3) in
    let profile = profiles.(seed mod 3) in
    let outcomes =
      List.map
        (fun k ->
          let r =
            R.Differential.stress_one ~publish_every:k ~seed ~workers
              ~txns:40 ~profile ()
          in
          if not (R.Differential.ok r) then
            failures :=
              Format.asprintf "seed %d K=%d: %a" seed k
                R.Differential.pp_report r
              :: !failures;
          ( k,
            r.R.Differential.r_stats.committed,
            r.R.Differential.r_stats.aborted ))
        ks
    in
    match outcomes with
    | (_, c1, a1) :: rest ->
      List.iter
        (fun (k, c, a) ->
          if c <> c1 || a <> a1 then
            failures :=
              Printf.sprintf
                "seed %d: K=%d verdicts (%d committed, %d aborted) differ \
                 from K=1 (%d, %d)"
                seed k c a c1 a1
              :: !failures)
        rest
    | [] -> ()
  done;
  if !failures <> [] then
    Alcotest.failf "%d batching divergences:@.%s" (List.length !failures)
      (String.concat "\n" !failures)

(* A read of a negative key raises [Invalid_argument] out of
   [run_script] under every protocol, as a write does, instead of
   reading outside the store. *)
let test_engine_negative_key () =
  let partition = R.Differential.chain_partition 2 in
  List.iter
    (fun key ->
      List.iter
        (fun (protocol, kind, segment) ->
          let script =
            [| { R.Engine.d_id = 1; d_kind = kind;
                 d_ops = [ R.Engine.Read (Granule.make ~segment ~key) ];
                 d_abort = false } |]
          in
          match
            R.Engine.run_script ~partition ~init:R.Differential.default_init
              (R.Engine.default_config ~workers:2) ~script
          with
          | _ -> Alcotest.failf "protocol %s, key %d: no exception" protocol key
          | exception Invalid_argument _ -> ())
        [ ("A", `Update 0, 1); ("B", `Update 0, 0); ("C", `Read_only, 0) ])
    [ -1; -2; -1_000_000 ]

(* --- runs that end --- *)

(* A worker that raises ends the run.  The script's first descriptor
   raises in worker 0 while 300 writes alternate between its class and
   worker 1's: class 0's queue never drains, so the peer's idle wait
   and the caller's pushes into the full box would wait forever without
   the failure flag.  The worker's own exception comes back.  A raise on
   the caller's side ends a run the same way: a [Crew.run] whose feed
   raises once both members wait for the crew to halt, one lingering
   (it never halts the crew itself, as its peer never settles) and one
   napping, re-raises the feed's exception well inside the watchdog. *)
let test_engine_worker_raise_ends_run () =
  let partition = R.Differential.chain_partition 2 in
  let config = R.Engine.default_config ~workers:2 in
  let init = R.Differential.default_init in
  (match
     Fixtures.within ~seconds:20. (fun () ->
         R.Engine.run_script ~partition ~init config
           ~script:(Fixtures.raising_script ~writes:300))
   with
  | _ -> Alcotest.fail "no exception"
  | exception Invalid_argument msg ->
    check Alcotest.string "the worker's exception" "Pstore: negative key" msg);
  let crew = R.Crew.create 2 in
  let waiting = Atomic.make 0 in
  let member i =
    Atomic.incr waiting;
    if i = 0 then R.Crew.linger crew ignore
    else while not (R.Crew.halted crew) do R.Wait.nap () done
  in
  let feed () =
    while Atomic.get waiting < 2 do R.Wait.nap () done;
    failwith "feed"
  in
  match Fixtures.within ~seconds:20. (fun () -> R.Crew.run crew ~feed member) with
  | _ -> Alcotest.fail "a raising feed: no exception"
  | exception Failure msg ->
    check Alcotest.string "the feed's exception" "feed" msg

(* The coordinator polls on the caller's domain before the first push,
   when every class is idle: a one-step plan or mode plan always lands
   and a wall is always released, however fast the workers drain. *)
let test_coordinator_acts_first () =
  let partition = R.Differential.chain_partition 2 in
  let script =
    [| { R.Engine.d_id = 1; d_kind = `Update 0;
         d_ops = [ R.Engine.Write (Granule.make ~segment:0 ~key:0, 1) ];
         d_abort = false } |]
  in
  let config = { (R.Engine.default_config ~workers:2) with traced = false } in
  let init = R.Differential.default_init in
  let plan =
    [ (R.Engine.rotated_map
         (R.Engine.default_owner_map ~segments:2 ~workers:2) 2,
       "migrate") ]
  in
  let missed = Array.make 3 0 in
  let miss i = missed.(i) <- missed.(i) + 1 in
  for _ = 1 to 200 do
    let r = R.Engine.run_script ~partition ~init ~plan config ~script in
    if r.R.Engine.stats.R.Engine.repartitions <> 1 then miss 0;
    if r.R.Engine.stats.R.Engine.wall_releases < 1 then miss 2;
    let r =
      R.Engine.run_script ~partition ~init ~mode_plan:[ [| 1; 0 |] ] config
        ~script
    in
    if r.R.Engine.stats.R.Engine.escalations <> 1 then miss 1;
    if r.R.Engine.stats.R.Engine.wall_releases < 1 then miss 2
  done;
  checki "runs without the plan step" 0 missed.(0);
  checki "runs without the mode step" 0 missed.(1);
  checki "runs without a wall release" 0 missed.(2)

(* A plan map or mode vector without one in-range entry per class is
   refused with the engine's own message before the run starts.
   Unchecked, a short map fails mid-barrier on a bare index error, a
   map naming a missing worker strands its classes' queues, and a
   short mode vector is read past its end. *)
let test_engine_plan_checked () =
  let partition = R.Differential.chain_partition 2 in
  let config = R.Engine.default_config ~workers:2 in
  let init = R.Differential.default_init in
  let script = Array.sub (Fixtures.raising_script ~writes:300) 1 300 in
  let refused what ?plan ?mode_plan () =
    match
      Fixtures.within ~seconds:20. (fun () ->
          R.Engine.run_script ~partition ~init ?plan ?mode_plan config ~script)
    with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      checkb
        (Printf.sprintf "%s: refused by the engine (%s)" what msg)
        true
        (String.starts_with ~prefix:"Engine: " msg)
  in
  refused "a one-class plan map"
    ~plan:[ ([| 1; 0 |], "migrate"); ([| 0 |], "migrate") ] ();
  refused "a three-class plan map" ~plan:[ ([| 1; 0; 1 |], "migrate") ] ();
  refused "worker 2 of 2" ~plan:[ ([| 0; 2 |], "migrate") ] ();
  refused "worker -1" ~plan:[ ([| -1; 0 |], "migrate") ] ();
  refused "a one-class mode vector" ~mode_plan:[ [| 1 |] ] ();
  refused "a three-class mode vector" ~mode_plan:[ [| 0; 1; 0 |] ] ();
  refused "mode 2" ~mode_plan:[ [| 0; 1 |]; [| 2; 0 |] ] ();
  refused "mode -1" ~mode_plan:[ [| -1; 0 |] ] ()

(* Widening the key range forces no collection: the per-key state is
   arrays filled with static and immediate values.  An array of young
   slot records forced one as it passed 256 keys. *)
let test_pstore_growth_forces_nothing () =
  let t = Ps.create () and keys = 4_096 in
  let v = ref Ps.empty_view in
  checki "minor collections while growing to 4,096 keys" 0
    (Fixtures.minor_collections (fun () ->
         for key = 0 to keys - 1 do
           Ps.add_commit t ~key ~ts:(key + 1) ~value:(10 * key)
         done;
         v := Ps.publish t));
  for key = 0 to keys - 1 do
    checki "owner face" (key + 1) (Ps.latest_before t ~key ~ts:max_int);
    checki "value" (10 * key) (Ps.value_of t ~key ~ts:(key + 1) ~fallback:(-1));
    checki "view" (key + 1) (Ps.view_latest_before !v ~key ~ts:max_int)
  done

(* The engine-level count: ten two-worker runs of a cross-chain script
   whose stores grow to 8 x 1,024 keys collect about as often as ten
   empty runs.  With forced collections they took ~60 more. *)
let test_engine_growth_forces_nothing () =
  let partition = R.Differential.chain_partition 8 in
  let script =
    R.Differential.gen_script ~partition ~seed:29 ~txns:2_000
      ~keys_per_segment:1_024 ()
  in
  let config =
    { (R.Engine.default_config ~workers:2) with R.Engine.traced = false }
  in
  let init = R.Differential.default_init in
  let ten script () =
    for _ = 1 to 10 do
      ignore (R.Engine.run_script ~partition ~init config ~script)
    done
  in
  ten script ();
  let empty = Fixtures.minor_collections (ten [||]) in
  let full = Fixtures.minor_collections (ten script) in
  if full > empty + 10 then
    Alcotest.failf "10 runs: %d minor collections against %d for 10 empty runs"
      full empty

(* --- the one wait --- *)

(* [Wait.until] checks its condition first and runs its step between
   checks, with turns 0, 1, 2, ...; a condition that never holds raises
   the one [Stalled] once the budget has passed, naming the waiter and
   what it awaited. *)
let test_wait_until () =
  let module W = R.Wait in
  let unnamed () = Alcotest.fail "a wait that did not stall named itself" in
  let turns = ref [] in
  let step n = turns := n :: !turns in
  W.until ~waiter:"the test" ~awaited:unnamed ~step (fun () -> true);
  check Alcotest.(list int) "a condition that holds: no step" [] !turns;
  let checks = ref 0 in
  W.until ~waiter:"the test" ~awaited:unnamed ~step (fun () ->
      incr checks;
      !checks = 5);
  check Alcotest.(list int) "one step between checks" [ 0; 1; 2; 3 ]
    (List.rev !turns);
  let t0 = Unix.gettimeofday () in
  match
    Fixtures.within ~seconds:20. (fun () ->
        W.until ~waiter:"the test"
          ~awaited:(fun () -> "a condition that never holds")
          ~step:W.backoff (fun () -> false))
  with
  | () -> Alcotest.fail "the wait never stalled"
  | exception W.Stalled { waiter; awaited; waited_s } ->
    let elapsed = Unix.gettimeofday () -. t0 in
    check Alcotest.string "the waiter" "the test" waiter;
    check Alcotest.string "what it awaited" "a condition that never holds"
      awaited;
    checkb
      (Printf.sprintf "waited %.2f s (%.2f s reported), budget %.1f s" elapsed
         waited_s W.budget_s)
      true
      (waited_s >= W.budget_s && elapsed >= waited_s)

(* A crew member stuck in a wait that nobody satisfies ends the run
   with that wait's [Stalled]: the stall fails the run like any raise,
   the member lingering for its peers leaves, and the caller re-raises
   the stall, not [Peer_failed] and not after a hang. *)
let test_crew_stall_ends_run () =
  let crew = R.Crew.create 2 in
  let member i =
    if i = 0 then
      R.Wait.until ~waiter:"member 0"
        ~awaited:(fun () -> "a signal nobody sends")
        ~step:(fun n ->
          R.Crew.leave_if_failed crew;
          R.Wait.backoff n)
        (fun () -> false)
    else R.Crew.linger crew ignore
  in
  match
    Fixtures.within ~seconds:20. (fun () ->
        R.Crew.run crew ~feed:ignore member)
  with
  | _ -> Alcotest.fail "the run ended without a stall"
  | exception R.Crew.Peer_failed ->
    Alcotest.fail "the run ended with Peer_failed"
  | exception R.Wait.Stalled { waiter; awaited; _ } ->
    check Alcotest.string "the stalled member" "member 0" waiter;
    check Alcotest.string "what it awaited" "a signal nobody sends" awaited

(* A trace ring keeps only its newest records.  Dropping the records
   of a traced run's first three transactions, as eviction would, fails
   trace-complete and nothing else: the families that read the records
   are skipped instead of judged on the truncated history. *)
let test_oracle_incomplete_trace () =
  let module O = Hdd_core.Oracle in
  let partition = R.Differential.chain_partition 4 in
  let init = R.Differential.default_init in
  let script = R.Differential.gen_script ~partition ~seed:7 ~txns:40 () in
  let run =
    R.Engine.run_script ~partition ~init (R.Engine.default_config ~workers:2)
      ~script
  in
  ok_or_fail "the whole trace"
    (R.Differential.check_run ~partition ~init ~script run);
  let kept (r : T.record) =
    match r.ev with
    | T.Begin { txn; _ }
    | T.Read { txn; _ }
    | T.Write { txn; _ }
    | T.Commit { txn; _ }
    | T.Abort { txn; _ } ->
      txn > 3
    | _ -> true
  in
  let r =
    R.Differential.check_run ~partition ~init ~script
      { run with records = List.filter kept run.records }
  in
  check
    Alcotest.(list string)
    "only trace-complete fails" [ "trace-complete" ] (R.Differential.failures r);
  check
    Alcotest.(list string)
    "the witness counts the missing"
    [ "3 of 40 outcomes have no Begin record (first: txn 1): the trace lost \
       records" ]
    (O.witnesses r.r_oracle O.Trace_complete);
  List.iter
    (fun f ->
      checkb (O.name f ^ " skipped") true (O.verdict r.r_oracle f = O.Skipped))
    [ O.Mvsg_certification; O.Monitor_replay; O.Serial_oracle_agreement;
      O.Read_from_equality ]

let suite =
  [ Alcotest.test_case "gclock: ticks unique across domains" `Quick
      test_gclock_unique;
    Alcotest.test_case "mailbox: fifo, close, drain" `Quick test_mailbox_fifo;
    Alcotest.test_case "mailbox: backpressure across domains" `Quick
      test_mailbox_backpressure;
    Alcotest.test_case "seqwall: no torn reads under concurrent publish"
      `Quick test_seqwall_no_tearing;
    Alcotest.test_case "pstore: owner reads and refusals" `Quick
      test_pstore_owner;
    Alcotest.test_case "trace: per-domain merge by logical time" `Quick
      test_trace_merge;
    Alcotest.test_case "monitor: Any_released wall rule" `Quick
      test_monitor_any_released;
    Alcotest.test_case "registry: snapshot equals live on 1000 seeds" `Quick
      test_registry_snapshot_property;
    Alcotest.test_case "jsonlite: schema_version and unknown fields" `Quick
      test_jsonlite_schema;
    Alcotest.test_case "engine: single-worker differential" `Quick
      test_engine_single_worker;
    Alcotest.test_case "engine: deterministic two-class script" `Quick
      test_engine_cross_class_values;
    Alcotest.test_case "engine: drain-deadlock scenario at every batch K"
      `Quick test_drain_deadlock_every_k;
    Alcotest.test_case "actboard: record I_old equals registry on 1000 seeds"
      `Quick test_actboard_registry_equivalence;
    Alcotest.test_case "vring: splice, equal-ts blocks, wrap fallback"
      `Quick test_vring_ring;
    Alcotest.test_case "epochwall: equals seqwall on 1000 schedules" `Quick
      test_epochwall_seqwall_equivalence;
    Alcotest.test_case "epochwall: pinned reader never sees a torn wall"
      `Quick test_epochwall_pinned_reader;
    Alcotest.test_case "engine: commit path allocates zero bytes" `Quick
      test_alloc_probe_zero;
    Alcotest.test_case "engine: batched publication outcome identity" `Slow
      test_batching_identity;
    Alcotest.test_case "engine: randomized multicore stress" `Slow
      test_multicore_stress;
    Alcotest.test_case "engine: timed benchmark mode" `Quick
      test_run_timed_smoke;
    Alcotest.test_case "parbench: scaling report" `Quick test_parbench_json;
    Alcotest.test_case "pstore: compaction keeps the newest" `Quick
      test_pstore_compaction;
    Alcotest.test_case "pstore: views answer as the owner" `Quick
      test_pstore_views;
    Alcotest.test_case "pstore: two-domain publication" `Quick
      test_pstore_two_domain;
    Alcotest.test_case "engine: negative-key reads raise" `Quick
      test_engine_negative_key;
    Alcotest.test_case "registry: snapshot reuse is exact on 1000 seeds"
      `Quick test_registry_snapshot_reuse;
    Alcotest.test_case "engine: a raising worker ends the run" `Quick
      test_engine_worker_raise_ends_run;
    Alcotest.test_case "engine: the coordinator acts before the first push"
      `Quick test_coordinator_acts_first;
    Alcotest.test_case "engine: malformed plans are refused" `Quick
      test_engine_plan_checked;
    Alcotest.test_case "pstore: growing the key range forces no collection"
      `Quick test_pstore_growth_forces_nothing;
    Alcotest.test_case "engine: growing stores force no collection" `Quick
      test_engine_growth_forces_nothing;
    Alcotest.test_case "wait: steps between checks, stalls at the budget"
      `Quick test_wait_until;
    Alcotest.test_case "crew: a stalled member ends the run" `Quick
      test_crew_stall_ends_run;
    Alcotest.test_case "oracle: an evicted trace fails trace-complete"
      `Quick test_oracle_incomplete_trace ]

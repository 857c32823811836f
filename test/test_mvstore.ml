(* Tests for the multi-version storage substrate: version chains, segment
   controllers, the store, garbage collection, and the single-version
   store used by the classical baselines. *)

module Chain = Hdd_mvstore.Chain
module Achain = Hdd_mvstore.Achain
module Segment = Hdd_mvstore.Segment
module Store = Hdd_mvstore.Store
module Sv = Hdd_mvstore.Sv_store

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_chain_bootstrap () =
  let c = Chain.create ~initial:7 in
  checki "one version" 1 (Chain.length c);
  match Chain.latest_committed c with
  | Some v ->
    checki "bootstrap value" 7 v.Chain.value;
    checki "bootstrap ts" 0 v.Chain.ts;
    checkb "committed" true (v.Chain.state = Chain.Committed)
  | None -> Alcotest.fail "bootstrap version missing"

let test_chain_install_order () =
  let c = Chain.create ~initial:0 in
  ignore (Chain.install c ~ts:5 ~writer:1 ~value:50);
  ignore (Chain.install c ~ts:3 ~writer:2 ~value:30);
  ignore (Chain.install c ~ts:9 ~writer:3 ~value:90);
  Alcotest.check (Alcotest.list Alcotest.int) "newest first"
    [ 9; 5; 3; 0 ]
    (List.map (fun v -> v.Chain.ts) (Chain.versions c))

let test_chain_install_validation () =
  let c = Chain.create ~initial:0 in
  ignore (Chain.install c ~ts:5 ~writer:1 ~value:1);
  Alcotest.check_raises "duplicate ts"
    (Invalid_argument "Chain.install: duplicate version timestamp") (fun () ->
      ignore (Chain.install c ~ts:5 ~writer:2 ~value:2));
  Alcotest.check_raises "non-positive ts"
    (Invalid_argument "Chain.install: ts must be positive") (fun () ->
      ignore (Chain.install c ~ts:0 ~writer:2 ~value:2))

let test_chain_commit_discard () =
  let c = Chain.create ~initial:0 in
  ignore (Chain.install c ~ts:5 ~writer:1 ~value:50);
  Chain.commit c ~ts:5;
  (match Chain.latest_committed c with
  | Some v -> checki "committed version visible" 50 v.Chain.value
  | None -> Alcotest.fail "latest_committed");
  Alcotest.check_raises "discard of committed rejected"
    (Invalid_argument "Chain.discard: version is committed") (fun () ->
      Chain.discard c ~ts:5);
  ignore (Chain.install c ~ts:8 ~writer:2 ~value:80);
  Chain.discard c ~ts:8;
  checki "discarded removed" 2 (Chain.length c);
  checkb "missing commit raises" true
    (try
       Chain.commit c ~ts:99;
       false
     with Not_found -> true)

let test_committed_before () =
  let c = Chain.create ~initial:0 in
  ignore (Chain.install c ~ts:5 ~writer:1 ~value:50);
  Chain.commit c ~ts:5;
  ignore (Chain.install c ~ts:9 ~writer:2 ~value:90);
  (* ts 9 pending: snapshot readers below 12 see ts 5 *)
  (match Chain.committed_before c ~ts:12 with
  | Some v -> checki "skips pending" 5 v.Chain.ts
  | None -> Alcotest.fail "committed_before");
  (match Chain.committed_before c ~ts:5 with
  | Some v -> checki "strictly below" 0 v.Chain.ts
  | None -> Alcotest.fail "committed_before strict");
  match Chain.committed_before c ~ts:0 with
  | None -> ()
  | Some _ -> Alcotest.fail "nothing below zero"

let test_candidate_before () =
  let c = Chain.create ~initial:0 in
  ignore (Chain.install c ~ts:5 ~writer:1 ~value:50);
  (match Chain.candidate_before c ~ts:7 with
  | Some (Chain.Wait_for w) -> checki "waits for writer" 1 w
  | _ -> Alcotest.fail "expected Wait_for");
  Chain.commit c ~ts:5;
  (match Chain.candidate_before c ~ts:7 with
  | Some (Chain.Version v) -> checki "sees committed" 5 v.Chain.ts
  | _ -> Alcotest.fail "expected Version");
  match Chain.candidate_before c ~ts:3 with
  | Some (Chain.Version v) -> checki "older snapshot" 0 v.Chain.ts
  | _ -> Alcotest.fail "expected bootstrap"

let test_mark_read_and_predecessor_rts () =
  let c = Chain.create ~initial:0 in
  ignore (Chain.install c ~ts:5 ~writer:1 ~value:50);
  Chain.commit c ~ts:5;
  (match Chain.candidate_before c ~ts:20 with
  | Some (Chain.Version v) ->
    Chain.mark_read v ~at:20;
    Chain.mark_read v ~at:10 (* lower read does not regress the rts *)
  | _ -> Alcotest.fail "setup");
  (match Chain.predecessor_rts c ~ts:15 with
  | Some rts -> checki "rts visible to writers" 20 rts
  | None -> Alcotest.fail "predecessor_rts");
  match Chain.predecessor_rts c ~ts:30 with
  | Some rts -> checki "rts of newest below 30" 20 rts
  | None -> Alcotest.fail "predecessor_rts newest"

let test_gc () =
  let c = Chain.create ~initial:0 in
  List.iter
    (fun ts ->
      ignore (Chain.install c ~ts ~writer:ts ~value:ts);
      Chain.commit c ~ts)
    [ 2; 4; 6; 8 ];
  ignore (Chain.install c ~ts:10 ~writer:10 ~value:10);
  (* keep the snapshot at 7 readable: versions 6, 8 and pending 10 stay,
     plus version 4 is... strictly older than 6 -> collected *)
  let dropped = Chain.gc c ~before:7 in
  checki "dropped 0,2,4" 3 dropped;
  Alcotest.check (Alcotest.list Alcotest.int) "remaining" [ 10; 8; 6 ]
    (List.map (fun v -> v.Chain.ts) (Chain.versions c));
  (match Chain.committed_before c ~ts:7 with
  | Some v -> checki "snapshot at 7 still served" 6 v.Chain.ts
  | None -> Alcotest.fail "snapshot lost");
  checki "gc idempotent" 0 (Chain.gc c ~before:7)

let test_segment () =
  let s = Segment.create ~id:3 ~init:(fun key -> key * 100) in
  checki "id" 3 (Segment.id s);
  checkb "untouched" false (Segment.mem s 7);
  let c = Segment.chain s 7 in
  (match Achain.latest_committed c with
  | Some v -> checki "initialised by key" 700 v.Chain.value
  | None -> Alcotest.fail "init");
  checkb "materialised" true (Segment.mem s 7);
  checkb "same chain returned" true (Segment.chain s 7 == c);
  checki "granule count" 1 (Segment.granule_count s);
  Alcotest.check (Alcotest.list Alcotest.int) "keys" [ 7 ] (Segment.keys s)

let test_store_routing () =
  let st = Store.create ~segments:2 ~init:(fun g -> g.Granule.segment * 10 + g.Granule.key) in
  checki "segments" 2 (Store.segment_count st);
  let g = Granule.make ~segment:1 ~key:3 in
  (match Store.committed_before st g ~ts:5 with
  | Some v -> checki "routed to segment 1" 13 v.Chain.value
  | None -> Alcotest.fail "routing");
  ignore (Store.install st g ~ts:4 ~writer:9 ~value:99);
  Store.commit_version st g ~ts:4;
  match Store.committed_before st g ~ts:5 with
  | Some v -> checki "new version" 99 v.Chain.value
  | None -> Alcotest.fail "after install"


let test_store_validation () =
  Alcotest.check_raises "zero segments"
    (Invalid_argument "Store.create: segments must be > 0") (fun () ->
      ignore (Store.create ~segments:0 ~init:(fun _ -> 0)));
  let st = Store.create ~segments:1 ~init:(fun _ -> 0) in
  Alcotest.check_raises "segment out of range"
    (Invalid_argument "Store.segment: 5 out of range") (fun () ->
      ignore (Store.segment st 5))

let test_store_gc_and_count () =
  let st = Store.create ~segments:2 ~init:(fun _ -> 0) in
  let g = Granule.make ~segment:0 ~key:1 in
  ignore (Store.install st g ~ts:2 ~writer:1 ~value:1);
  Store.commit_version st g ~ts:2;
  ignore (Store.install st g ~ts:4 ~writer:2 ~value:2);
  Store.commit_version st g ~ts:4;
  checki "versions counted" 3 (Store.version_count st);
  checki "gc drops old" 2 (Store.gc st ~before:10);
  checki "after gc" 1 (Store.version_count st)

(* the array-backed chain must agree with the list-backed one on random
   operation sequences (the DESIGN §6 representation ablation) *)
let test_achain_agrees_with_chain () =
  let rng = Hdd_util.Prng.create 77 in
  let c = Chain.create ~initial:0 in
  let a = Achain.create ~initial:0 in
  let pending = ref [] in
  for step = 1 to 300 do
    match Hdd_util.Prng.int rng 4 with
    | 0 ->
      let ts = step * 2 in
      ignore (Chain.install c ~ts ~writer:step ~value:step);
      ignore (Achain.install a ~ts ~writer:step ~value:step);
      pending := ts :: !pending
    | 1 -> (
      match !pending with
      | ts :: rest ->
        Chain.commit c ~ts;
        Achain.commit a ~ts;
        pending := rest
      | [] -> ())
    | 2 -> (
      match !pending with
      | ts :: rest ->
        Chain.discard c ~ts;
        Achain.discard a ~ts;
        pending := rest
      | [] -> ())
    | _ ->
      let ts = 1 + Hdd_util.Prng.int rng (step * 2) in
      let obs_c =
        match Chain.committed_before c ~ts with
        | Some v -> Some (v.Chain.ts, v.Chain.value)
        | None -> None
      in
      let obs_a =
        match Achain.committed_before a ~ts with
        | Some v -> Some (v.Chain.ts, v.Chain.value)
        | None -> None
      in
      Alcotest.check
        (Alcotest.option (Alcotest.pair Alcotest.int Alcotest.int))
        "committed_before agrees" obs_c obs_a;
      (match (Chain.candidate_before c ~ts, Achain.candidate_before a ~ts) with
      | Some (Chain.Version v1), Some (Chain.Version v2) ->
        checki "candidate ts agrees" v1.Chain.ts v2.Chain.ts
      | Some (Chain.Wait_for w1), Some (Chain.Wait_for w2) ->
        checki "wait target agrees" w1 w2
      | None, None -> ()
      | _ -> Alcotest.fail "candidate_before disagrees")
  done;
  checki "same length" (Chain.length c) (Achain.length a);
  (* and gc agrees *)
  checki "gc drops the same count" (Chain.gc c ~before:300)
    (Achain.gc a ~before:300)

let test_achain_basics () =
  let a = Achain.create ~initial:7 in
  (match Achain.latest_committed a with
  | Some v -> checki "bootstrap" 7 v.Chain.value
  | None -> Alcotest.fail "bootstrap");
  ignore (Achain.install a ~ts:5 ~writer:1 ~value:50);
  Alcotest.check_raises "duplicate ts"
    (Invalid_argument "Achain.install: duplicate version timestamp")
    (fun () -> ignore (Achain.install a ~ts:5 ~writer:2 ~value:2));
  Achain.commit a ~ts:5;
  Alcotest.check_raises "discard committed"
    (Invalid_argument "Achain.discard: version is committed") (fun () ->
      Achain.discard a ~ts:5);
  (match Achain.predecessor_rts a ~ts:9 with
  | Some rts -> checki "fresh rts" 0 rts
  | None -> Alcotest.fail "predecessor");
  Alcotest.check (Alcotest.list Alcotest.int) "newest first" [ 5; 0 ]
    (List.map (fun v -> v.Chain.ts) (Achain.versions a))

(* Growing a chain past 256 versions forces no collection.  Filled
   with the young new version, a doubled array forced one at each
   doubling past 256 slots. *)
let test_achain_growth_forces_nothing () =
  let a = Achain.create ~initial:0 and n = 1_000 in
  checki "minor collections over 1,000 installs" 0
    (Fixtures.minor_collections (fun () ->
         for i = 0 to n - 1 do
           (* 7919 is prime to [n]: every ts in 1..n, out of order *)
           let ts = (i * 7919 mod n) + 1 in
           ignore (Achain.install a ~ts ~writer:ts ~value:(10 * ts))
         done));
  checki "every version kept" (n + 1) (Achain.length a);
  List.iteri
    (fun i v ->
      checki "newest first" (n - i) v.Chain.ts;
      checki "its value" (10 * (n - i)) v.Chain.value)
    (Achain.versions a)

let test_sv_store () =
  let sv = Sv.create ~init:(fun g -> g.Granule.key) in
  let g = Granule.make ~segment:0 ~key:5 in
  let v, wts = Sv.read sv g in
  checki "initial value" 5 v;
  checki "initial wts" 0 wts;
  Sv.write sv g ~value:50 ~wts:3;
  let v, wts = Sv.read sv g in
  checki "written value" 50 v;
  checki "written wts" 3 wts;
  Sv.set_rts sv g 7;
  Sv.set_rts sv g 4 (* must not regress *);
  checki "rts" 7 (Sv.cell sv g).Sv.rts;
  checki "granules" 1 (Sv.granule_count sv)

let suite =
  [ Alcotest.test_case "chain: bootstrap" `Quick test_chain_bootstrap;
    Alcotest.test_case "chain: install keeps order" `Quick test_chain_install_order;
    Alcotest.test_case "chain: install validation" `Quick test_chain_install_validation;
    Alcotest.test_case "chain: commit and discard" `Quick test_chain_commit_discard;
    Alcotest.test_case "chain: committed_before" `Quick test_committed_before;
    Alcotest.test_case "chain: candidate_before" `Quick test_candidate_before;
    Alcotest.test_case "chain: read marks and predecessor rts" `Quick test_mark_read_and_predecessor_rts;
    Alcotest.test_case "chain: garbage collection" `Quick test_gc;
    Alcotest.test_case "segment controller" `Quick test_segment;
    Alcotest.test_case "store: routing" `Quick test_store_routing;
    Alcotest.test_case "store: validation" `Quick test_store_validation;
    Alcotest.test_case "store: gc and version count" `Quick test_store_gc_and_count;
    Alcotest.test_case "achain: agreement with chain" `Quick test_achain_agrees_with_chain;
    Alcotest.test_case "achain: basics" `Quick test_achain_basics;
    Alcotest.test_case "single-version store" `Quick test_sv_store;
    Alcotest.test_case "achain: growth forces no collection" `Quick
      test_achain_growth_forces_nothing ]

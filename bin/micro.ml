(* Bechamel microbenchmarks behind [hdd_cli bench micro]: one test per
   experiment-relevant hot path or ablation (DESIGN.md §6) — the
   activity-link composition and wall vector (E6/E9), the per-protocol
   read path behind the E10 comparison, version-chain lookups at two
   chain lengths (storage ablation), the certifier, the simulator's
   event queue, the storage write and recovery paths, and the shard
   path: one wire message of each per-commit kind encoded and decoded,
   and the registry snapshot a publication carries.  The fixtures are
   shared with the hot-path suite via {!Hdd_benchkit.Fixtures}. *)

module Scheduler = Hdd_core.Scheduler
module Activity = Hdd_core.Activity
module B = Hdd_baselines
module Chain = Hdd_mvstore.Chain
module EQ = Hdd_sim.Event_queue
module BK = Hdd_benchkit.Fixtures
module J = Hdd_benchkit.Jsonlite
module T = Hdd_txn

let big_log steps =
  let log = T.Sched_log.create () in
  let granules = 64 in
  for i = 1 to steps do
    let g = T.Granule.make ~segment:0 ~key:(i mod granules) in
    if i mod 3 = 0 then
      T.Sched_log.log_write log ~txn:(i / 3) ~granule:g ~version:i
    else T.Sched_log.log_read log ~txn:(i / 3) ~granule:g ~version:0
  done;
  log

(* Four classes, eight finished windows each.  Classes 1-3 lie far
   beyond class 0, so pruning class 0's history keeps theirs. *)
let registry_fixture () =
  let reg = T.Registry.create ~classes:4 () in
  let add c t0 =
    for k = 0 to 7 do
      let init = t0 + (2 * k) in
      T.Registry.register_active reg ~class_id:c ~id:init ~init;
      T.Registry.finish_active reg ~class_id:c ~endt:(init + 1)
    done
  in
  add 0 1;
  for c = 1 to 3 do
    add c (1 lsl 40)
  done;
  (reg, ref 17)

(* A publication as shard-loopback's nodes send it: their live
   registry, written at encode, with two owned classes with finished
   windows, one of them with an active transaction; it decodes into
   fresh views. *)
let pub_packet () =
  let reg = T.Registry.create ~classes:4 () in
  List.iter
    (fun (c, init) ->
      T.Registry.register_active reg ~class_id:c ~id:init ~init;
      T.Registry.finish_active reg ~class_id:c ~endt:(init + 3))
    [ (0, 101); (2, 103); (0, 107); (2, 111) ];
  T.Registry.register_active reg ~class_id:0 ~id:115 ~init:115;
  { Hdd_shard.Wire.src = 0; dst = 1; stamp = 117;
    msg =
      Hdd_shard.Wire.Pub
        { p_shard = 0; p_seq = 40; p_upto = 116; p_marks = [| 21; 0; 19; 0 |];
          p_act = Hdd_shard.Wire.Live reg } }

let round_trip pkt =
  Bechamel.Staged.stage (fun () ->
      Hdd_shard.Wire.decode (Hdd_shard.Wire.encode pkt) ~pos:0)

let temp name = Filename.concat (Filename.get_temp_dir_name ()) name

let tests () =
  let open Bechamel in
  let ctx5, now5 = BK.populated_ctx ~depth:5 () in
  let ctx3, now3 = BK.populated_ctx ~depth:3 () in
  let branch_ctx =
    let p = BK.branch_partition 3 in
    let registry = T.Registry.create ~classes:4 () in
    Activity.make_ctx p registry
  in
  let chain10 = BK.list_chain ~versions:10 () in
  let chain200 = BK.list_chain ~versions:200 () in
  let achain10 = BK.array_chain ~versions:10 () in
  let achain200 = BK.array_chain ~versions:200 () in
  let log1k = big_log 1000 in
  let hdd_s =
    Scheduler.create ~partition:(BK.chain_partition 3)
      ~clock:(T.Time.Clock.create ())
      ~store:(Hdd_mvstore.Store.create ~segments:3 ~init:(fun _ -> 0))
      ()
  in
  let hdd_t = Scheduler.begin_update hdd_s ~class_id:0 in
  let g_top = T.Granule.make ~segment:2 ~key:0 in
  let g_own = T.Granule.make ~segment:0 ~key:0 in
  let s2pl =
    B.S2pl.create ~clock:(T.Time.Clock.create ()) ~init:(fun _ -> 0) ()
  in
  let s2pl_t = B.S2pl.begin_txn s2pl ~read_only:false in
  let tso =
    B.Tso.create ~clock:(T.Time.Clock.create ()) ~init:(fun _ -> 0) ()
  in
  let tso_t = B.Tso.begin_txn tso in
  let mvto =
    B.Mvto.create ~clock:(T.Time.Clock.create ()) ~segments:1
      ~init:(fun _ -> 0) ()
  in
  let mvto_t = B.Mvto.begin_txn mvto in
  [ Test.make ~name:"E6/activity: A over a 3-class chain"
      (Staged.stage (fun () ->
           Activity.a_fn ctx3 ~from_class:0 ~to_class:2 (now3 / 2)));
    Test.make ~name:"E6/activity: A over a 5-class chain"
      (Staged.stage (fun () ->
           Activity.a_fn ctx5 ~from_class:0 ~to_class:4 (now5 / 2)));
    Test.make ~name:"E9/wall: E-vector on a 3-branch tree"
      (Staged.stage (fun () -> Hdd_core.Timewall.compute branch_ctx ~m:100));
    Test.make ~name:"mvstore: snapshot read, 10-version chain"
      (Staged.stage (fun () -> Chain.committed_before chain10 ~ts:15));
    Test.make ~name:"mvstore: snapshot read, 200-version chain"
      (Staged.stage (fun () -> Chain.committed_before chain200 ~ts:299));
    Test.make ~name:"mvstore/ablation: array chain, 10 versions"
      (Staged.stage (fun () ->
           Hdd_mvstore.Achain.committed_before achain10 ~ts:15));
    Test.make ~name:"mvstore/ablation: array chain, 200 versions"
      (Staged.stage (fun () ->
           Hdd_mvstore.Achain.committed_before achain200 ~ts:299));
    Test.make ~name:"E10/read: HDD protocol A (cross-class)"
      (Staged.stage (fun () -> Scheduler.read hdd_s hdd_t g_top));
    Test.make ~name:"E10/read: HDD protocol B (root segment)"
      (Staged.stage (fun () -> Scheduler.read hdd_s hdd_t g_own));
    Test.make ~name:"E10/read: 2PL (lock + registration)"
      (Staged.stage (fun () -> B.S2pl.read s2pl s2pl_t g_own));
    Test.make ~name:"E10/read: TSO (stamp + registration)"
      (Staged.stage (fun () -> B.Tso.read tso tso_t g_own));
    Test.make ~name:"E10/read: MVTO (version + registration)"
      (Staged.stage (fun () -> B.Mvto.read mvto mvto_t g_own));
    Test.make ~name:"certifier: MVSG over a 1000-step log"
      (Staged.stage (fun () -> Hdd_core.Certifier.serializable log1k));
    Test.make ~name:"sim: event queue push+pop"
      (let q = EQ.create () in
       Staged.stage (fun () ->
           EQ.push q ~time:1.0 0;
           EQ.pop q));
    Test.make ~name:"sim: Retry.backoff (jittered exponential)"
      (let rng = Hdd_util.Prng.create 7 in
       Staged.stage (fun () ->
           Hdd_sim.Retry.backoff Hdd_sim.Retry.default rng ~attempt:5));
    Test.make ~name:"storage: fault-sink append (armed, no fault)"
      (let sink =
         Hdd_storage.Fault.apply
           (Hdd_storage.Fault.plan
              [ Hdd_storage.Fault.Bit_flip { byte = max_int; bit = 0 } ])
           (Hdd_storage.Fault.file_sink ~path:(temp "hdd_bench_sink.log") ())
       in
       let frame =
         Hdd_storage.Codec.encode
           (Hdd_storage.Codec.Commit { txn = 1; at = 1 })
       in
       Staged.stage (fun () -> sink.Hdd_storage.Fault.append frame));
    Test.make ~name:"storage: WAL append (buffered)"
      (let wal = Hdd_storage.Wal.create ~path:(temp "hdd_bench.log") () in
       let record =
         Hdd_storage.Codec.Write
           { txn = 1; granule = T.Granule.make ~segment:0 ~key:0; ts = 1;
             value = 42 }
       in
       Staged.stage (fun () -> Hdd_storage.Wal.append wal record));
    Test.make ~name:"storage: recovery replay, 3k-record log"
      (let path = temp "hdd_bench_rec.log" in
       if Sys.file_exists path then Sys.remove path;
       let wal = Hdd_storage.Wal.create ~path () in
       for i = 1 to 1000 do
         Hdd_storage.Wal.append wal
           (Hdd_storage.Codec.Begin { txn = i; class_id = 0; init = i });
         Hdd_storage.Wal.append wal
           (Hdd_storage.Codec.Write
              { txn = i; granule = T.Granule.make ~segment:0 ~key:(i mod 64);
                ts = i; value = i });
         Hdd_storage.Wal.append wal
           (Hdd_storage.Codec.Commit { txn = i; at = i })
       done;
       Hdd_storage.Wal.close wal;
       (* the annotation keeps a partial application from timing in place
          of the replay *)
       Staged.stage (fun () : Hdd_storage.Durable.recovered ->
           Hdd_storage.Durable.recover ~path ~segments:1 ~init:(fun _ -> 0)
             ()));
    Test.make ~name:"shard/wire: Pub encode+decode"
      (round_trip (pub_packet ()));
    Test.make ~name:"shard/wire: Delta encode+decode"
      (round_trip
         { Hdd_shard.Wire.src = 0; dst = 1; stamp = 117;
           msg =
             Hdd_shard.Wire.Delta
               { dl_shard = 0; dl_segment = 2;
                 dl_versions = [ (517, 115, 9) ] } });
    Test.make ~name:"shard/wire: Wall encode+decode"
      (round_trip
         { Hdd_shard.Wire.src = 0; dst = 1; stamp = 120;
           msg =
             Hdd_shard.Wire.Wall
               (Hdd_core.Timewall.make ~s:3 ~m:101
                  ~components:[| 99; 101; 97; 101 |] ~released_at:120) });
    Test.make ~name:"registry: snapshot, no class changed"
      (let reg, _ = registry_fixture () in
       Staged.stage (fun () -> T.Registry.snapshot reg));
    Test.make ~name:"registry: snapshot, one class changed"
      (* each run also closes one class-0 window and prunes the oldest *)
      (let reg, now = registry_fixture () in
       Staged.stage (fun () ->
           let init = !now in
           now := init + 2;
           T.Registry.register_active reg ~class_id:0 ~id:init ~init;
           T.Registry.finish_active reg ~class_id:0 ~endt:(init + 1);
           T.Registry.prune reg ~upto:(init - 16);
           T.Registry.snapshot reg)) ]

(* [quick] shortens each test's time quota from 0.25 s to 0.05 s. *)
let run ~quick () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let quota = if quick then 0.05 else 0.25 in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:(Some 500) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let row test =
    Hashtbl.fold
      (fun name raw rows ->
        let estimate = Analyze.one ols instance raw in
        let ns =
          match Analyze.OLS.estimates estimate with Some [ e ] -> e | _ -> nan
        in
        let r2 = Option.value (Analyze.OLS.r_square estimate) ~default:nan in
        J.Obj
          [ ("name", J.Str name); ("ns_per_run", J.Num ns);
            ("r_square", J.Num r2) ]
        :: rows)
      (Benchmark.all cfg [ instance ] test)
      []
  in
  let rows = List.concat_map row (tests ()) in
  List.iter
    (fun f -> try Sys.remove (temp f) with Sys_error _ -> ())
    [ "hdd_bench_sink.log"; "hdd_bench.log"; "hdd_bench_rec.log" ];
  J.with_schema
    [ ("clock", J.Str "monotonic");
      ("quota_s", J.Num quota);
      ("tests", J.List rows) ]

let pp ppf report =
  Format.fprintf ppf "%-46s %12s %7s@." "microbenchmark (monotonic clock)"
    "ns/run" "r^2";
  match J.member "tests" report with
  | Some (J.List tests) ->
    List.iter
      (fun t ->
        Format.fprintf ppf "%-46s %12.1f %7.4f@."
          (match J.member "name" t with Some (J.Str s) -> s | _ -> "?")
          (J.num_at [ "ns_per_run" ] t)
          (J.num_at [ "r_square" ] t))
      tests
  | _ -> ()

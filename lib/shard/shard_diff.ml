module D = Hdd_runtime.Differential
module E = Hdd_runtime.Engine
module P = Hdd_core.Partition
module Spec = Hdd_core.Spec

type mode = [ `Det | `Domains | `Processes ]

let run_mode ?config ~partition ~init ~shards ~seed ~script mode =
  match mode with
  | `Det ->
    Cluster.run_script_det ?config ~partition ~init ~shards ~seed ~script ()
  | `Domains ->
    Cluster.run_script_domains ?config ~partition ~init ~shards ~script ()
  | `Processes ->
    Cluster.run_script_processes ?config ~partition ~init ~shards ~script ()

let check ?(mode = `Det) ?config ~partition ~init ~shards ~seed ~script () =
  let run = run_mode ?config ~partition ~init ~shards ~seed ~script mode in
  D.check_run ~partition ~init ~script run

let check_det ?fault ?config ~partition ~init ~shards ~seed ~script () =
  let run =
    Cluster.run_script_det ?fault ?config ~partition ~init ~shards ~seed
      ~script ()
  in
  D.check_run ~partition ~init ~script run

let stress_one ?(mode = `Det) ~seed ~shards ~txns ~profile () =
  let partition, script = D.stress_case ~seed ~txns ~profile in
  check ~mode ~partition ~init:D.default_init ~shards ~seed ~script ()

(* --- curated scenarios for the golden traces --- *)

type golden = {
  g_name : string;
  g_partition : P.t;
  g_init : Granule.t -> int;
  g_script : Cluster.script;
}

let g ~segment ~key = Granule.make ~segment ~key
let u id cls ops = { E.d_id = id; d_kind = `Update cls; d_ops = ops; d_abort = false }
let ro id ops = { E.d_id = id; d_kind = `Read_only; d_ops = ops; d_abort = false }

(* Figure 1: two tellers read-modify-write one account; an auditor on
   the other shard reads it through the wall. *)
let fig1 =
  let acct = g ~segment:0 ~key:0 in
  { g_name = "fig1";
    g_partition =
      P.build_exn
        (Spec.make ~segments:[ "accounts" ]
           ~types:
             [ Spec.txn_type ~name:"teller" ~writes:[ 0 ] ~reads:[ 0 ] ]);
    g_init = (fun _ -> 100);
    g_script =
      [| u 1 0 [ E.Read acct; E.Write (acct, 110) ];
         u 2 0 [ E.Read acct; E.Write (acct, 120) ];
         ro 3 [ E.Read acct ] |] }

(* Figures 3/4 inventory pipeline, classes ordered so each class's root
   segment is its own index (the engine's write-routing invariant):
   type "reorder" writes D0 reading the whole chain, "post" writes D1
   reading D1-D2, "insert" writes D2.  At two shards the post class
   lands on shard 1 and its D2 read crosses the wire (Protocol A), while
   the audit walks all three segments off the walls (Protocol C). *)
let fig34 =
  let reorder = g ~segment:0 ~key:0
  and level = g ~segment:1 ~key:0
  and event = g ~segment:2 ~key:0 in
  { g_name = "fig34";
    g_partition =
      P.build_exn
        (Spec.make
           ~segments:[ "reorders"; "inventory"; "events" ]
           ~types:
             [ Spec.txn_type ~name:"reorder" ~writes:[ 0 ] ~reads:[ 0; 1; 2 ];
               Spec.txn_type ~name:"post" ~writes:[ 1 ] ~reads:[ 1; 2 ];
               Spec.txn_type ~name:"insert" ~writes:[ 2 ] ~reads:[ 2 ] ]);
    g_init = (fun _ -> 0);
    g_script =
      [| u 1 2 [ E.Write (event, 1) ];
         u 2 1 [ E.Read event; E.Read level; E.Write (level, 1) ];
         u 3 0 [ E.Read event; E.Read level; E.Write (reorder, 1) ];
         ro 4 [ E.Read reorder; E.Read level; E.Read event ] |] }

(* The two-segment chain with a spanning read-only transaction — the
   explorer's "wall" scenario.  Class 1 lives on shard 1, so the low
   class's up-chain read and the audit's walled reads both compose
   thresholds from a remote snapshot. *)
let wall =
  let a = g ~segment:1 ~key:0 and b = g ~segment:0 ~key:0 in
  { g_name = "wall";
    g_partition =
      P.build_exn
        (Spec.make ~segments:[ "lower"; "upper" ]
           ~types:
             [ Spec.txn_type ~name:"low" ~writes:[ 0 ] ~reads:[ 0; 1 ];
               Spec.txn_type ~name:"high" ~writes:[ 1 ] ~reads:[ 1 ] ]);
    g_init = (fun _ -> 0);
    g_script =
      [| u 1 1 [ E.Write (a, 7) ];
         u 2 0 [ E.Read a; E.Write (b, 8) ];
         ro 3 [ E.Read a; E.Read b ] |] }

let goldens = [ fig1; fig34; wall ]

let golden_records ?(shards = 2) ?(seed = 7) gl =
  let run =
    Cluster.run_script_det ~partition:gl.g_partition ~init:gl.g_init ~shards
      ~seed ~script:gl.g_script ()
  in
  run.E.records

let golden_check ?(shards = 2) ?(seed = 7) gl =
  check ~partition:gl.g_partition ~init:gl.g_init ~shards ~seed
    ~script:gl.g_script ()

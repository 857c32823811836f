module Spec = Hdd_core.Spec
module Partition = Hdd_core.Partition
module Controller = Hdd_sim.Controller
open Explore

type t = {
  sc_name : string;
  description : string;
  workload : Explore.workload;
  expect_anomaly : string list;
}

(* Every susceptible system, for every scenario below: the point of the
   catalogue is that the same three cripples fail everywhere while HDD
   and the full-strength baselines never do. *)
let cripples = [ "NoCC"; "2PL-noRL"; "TSO-noRTS" ]

let g ~segment ~key = Granule.make ~segment ~key

(* --- Figure 1: the lost update --- *)

let accounts_partition =
  Partition.build_exn
    (Spec.make ~segments:[ "accounts" ]
       ~types:[ Spec.txn_type ~name:"teller" ~writes:[ 0 ] ~reads:[ 0 ] ])

let fig1 =
  let acct = g ~segment:0 ~key:0 in
  { sc_name = "fig1";
    description =
      "Figure 1 lost update: two tellers read-modify-write one account";
    workload =
      { name = "fig1";
        partition = accounts_partition;
        init = (fun _ -> 100);
        progs =
          [ { label = "t1"; kind = Controller.Update 0;
              ops = [ Read acct; Write (acct, 110) ] };
            { label = "t2"; kind = Controller.Update 0;
              ops = [ Read acct; Write (acct, 120) ] } ] };
    expect_anomaly = cripples }

(* --- Figures 3/4: the inventory pipeline --- *)

let inventory_partition =
  Partition.build_exn
    (Spec.make
       ~segments:[ "reorders"; "inventory"; "events" ]
       ~types:
         [ Spec.txn_type ~name:"type1" ~writes:[ 2 ] ~reads:[];
           Spec.txn_type ~name:"type2" ~writes:[ 1 ] ~reads:[ 1; 2 ];
           Spec.txn_type ~name:"type3" ~writes:[ 0 ] ~reads:[ 0; 1; 2 ] ])

let event = g ~segment:2 ~key:0
let level = g ~segment:1 ~key:0
let reorder = g ~segment:0 ~key:0

let fig34 =
  { sc_name = "fig34";
    description =
      "Figures 3/4 inventory pipeline: unprotected reads break crippled \
       2PL and TSO";
    workload =
      { name = "fig34";
        partition = inventory_partition;
        init = (fun _ -> 0);
        progs =
          [ { label = "insert"; kind = Controller.Update 2;
              ops = [ Write (event, 1) ] };
            { label = "post"; kind = Controller.Update 1;
              ops = [ Read event; Write (level, 1) ] };
            { label = "reorder"; kind = Controller.Update 0;
              ops = [ Read event; Read level; Write (reorder, 1) ] } ] };
    expect_anomaly = cripples }

(* --- Protocol C territory: a read-only transaction over a chain --- *)

let chain_partition =
  Partition.build_exn
    (Spec.make ~segments:[ "lower"; "upper" ]
       ~types:
         [ Spec.txn_type ~name:"low" ~writes:[ 0 ] ~reads:[ 0; 1 ];
           Spec.txn_type ~name:"high" ~writes:[ 1 ] ~reads:[ 1 ] ])

let wall =
  let a = g ~segment:1 ~key:0 and b = g ~segment:0 ~key:0 in
  { sc_name = "wall";
    description =
      "two-segment chain with a spanning read-only transaction: the \
       schedules time walls serialise";
    workload =
      { name = "wall";
        partition = chain_partition;
        init = (fun _ -> 0);
        progs =
          [ { label = "high"; kind = Controller.Update 1;
              ops = [ Write (a, 7) ] };
            { label = "low"; kind = Controller.Update 0;
              ops = [ Read a; Write (b, 8) ] };
            { label = "audit"; kind = Controller.Read_only;
              ops = [ Read a; Read b ] } ] };
    expect_anomaly = cripples }

(* --- §7.1.1: an ad-hoc update outside the classification --- *)

let adhoc =
  { sc_name = "adhoc";
    description =
      "ad-hoc update writing two inventory segments, racing a classified \
       update and an audit";
    workload =
      { name = "adhoc";
        partition = inventory_partition;
        init = (fun _ -> 0);
        progs =
          [ { label = "patch";
              kind = Controller.Adhoc { writes = [ 1; 2 ]; reads = [ 1; 2 ] };
              ops = [ Write (event, 9); Write (level, 9) ] };
            { label = "reorder"; kind = Controller.Update 0;
              ops = [ Read event; Read level; Write (reorder, 1) ] };
            { label = "audit"; kind = Controller.Read_only;
              ops = [ Read event; Read level ] } ] };
    expect_anomaly = cripples }

let all = [ fig1; fig34; wall; adhoc ]


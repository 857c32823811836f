module Partition = Hdd_core.Partition
module Spec = Hdd_core.Spec
module Activity = Hdd_core.Activity
module Chain = Hdd_mvstore.Chain
module Achain = Hdd_mvstore.Achain

let chain_partition depth =
  Partition.build_exn
    (Spec.make
       ~segments:(List.init depth (fun i -> Printf.sprintf "s%d" i))
       ~types:
         (List.init depth (fun i ->
              Spec.txn_type
                ~name:(Printf.sprintf "c%d" i)
                ~writes:[ i ]
                ~reads:(List.init (depth - i) (fun k -> i + k)))))

let branch_partition branches =
  Partition.build_exn
    (Spec.make
       ~segments:
         (List.init branches (fun i -> Printf.sprintf "b%d" i) @ [ "base" ])
       ~types:
         (Spec.txn_type ~name:"feed" ~writes:[ branches ] ~reads:[]
          :: List.init branches (fun i ->
                 Spec.txn_type
                   ~name:(Printf.sprintf "d%d" i)
                   ~writes:[ i ]
                   ~reads:[ i; branches ])))

let populated_ctx ?(finished = 40) ~depth () =
  let registry = Registry.create ~classes:depth () in
  let clock = Time.Clock.create () in
  let per_class = finished + 2 in
  for cls = 0 to depth - 1 do
    for k = 0 to per_class - 1 do
      let txn =
        Txn.make
          ~id:((cls * (per_class + 1)) + k + 1)
          ~kind:(Txn.Update cls)
          ~init:(Time.Clock.tick clock)
      in
      Registry.register registry txn;
      if k < finished then Txn.commit txn ~at:(Time.Clock.tick clock)
    done
  done;
  (Activity.make_ctx (chain_partition depth) registry, Time.Clock.now clock)

let list_chain ?(stride = 2) ~versions () =
  let c = Chain.create ~initial:0 in
  for ts = 1 to versions do
    ignore (Chain.install c ~ts:(stride * ts) ~writer:ts ~value:ts);
    Chain.commit c ~ts:(stride * ts)
  done;
  c

let array_chain ?(stride = 2) ~versions () =
  let c = Achain.create ~initial:0 in
  for ts = 1 to versions do
    ignore (Achain.install c ~ts:(stride * ts) ~writer:ts ~value:ts);
    Achain.commit c ~ts:(stride * ts)
  done;
  c

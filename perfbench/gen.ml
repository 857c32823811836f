(* Seeded input generation.  Every workload's hierarchy and transaction
   templates come from here, as {!Hdd_runtime.Engine.desc} values, and
   are generated before any clock starts: generation is the benchmark's
   own cost and is never timed.  The same seed yields byte-identical
   inputs (a self-test checks it). *)

module E = Hdd_runtime.Engine
module Prng = Hdd_util.Prng
module Spec = Hdd_core.Spec
module Partition = Hdd_core.Partition

let gr segment key = Granule.make ~segment ~key

(* A depth-[n] chain: type [i] writes [D_i] and reads [D_i] plus
   [reads i] (segments above it, i.e. with larger ids). *)
let chain n ~reads =
  Partition.build_exn
    (Spec.make
       ~segments:(List.init n (Printf.sprintf "d%d"))
       ~types:
         (List.init n (fun i ->
              Spec.txn_type ~name:(Printf.sprintf "t%d" i) ~writes:[ i ]
                ~reads:(i :: reads i))))

let upd c ops = { E.d_id = 0; d_kind = `Update c; d_ops = ops; d_abort = false }
let ro ops = { E.d_id = 0; d_kind = `Read_only; d_ops = ops; d_abort = false }

(* The initial value of every granule in the workloads that take an
   initializer (the durable store always starts at 0). *)
let init (g : Granule.t) = g.Granule.key

(* --- serial-read: depth-8 chain, class i reads every segment above it --- *)

let serial_depth = 8
let serial_keys = 256
let serial_clients = 6
let serial_pool_len = 1 lsl 10

let serial_partition () =
  chain serial_depth ~reads:(fun i ->
      List.init (serial_depth - i - 1) (fun k -> i + 1 + k))

(* One template pool per client.  A client only writes root keys
   congruent to its own index, so no two in-flight transactions touch
   the same root-segment key and Protocol B never blocks or rejects:
   every attempt commits. *)
let serial_pools ~seed =
  let root = Prng.create seed in
  Array.init serial_clients (fun client ->
      let g = Prng.split root in
      let own () =
        client + (serial_clients * Prng.int g (serial_keys / serial_clients))
      in
      let above c =
        gr (c + 1 + Prng.int g (serial_depth - 1 - c)) (Prng.int g serial_keys)
      in
      Array.init serial_pool_len (fun _ ->
          let u = Prng.int g 100 in
          if u < 25 then
            (* Protocol C scan across the hierarchy *)
            ro
              (List.init 6 (fun _ ->
                   E.Read (gr (Prng.int g serial_depth) (Prng.int g serial_keys))))
          else if u < 40 then begin
            (* Protocol B read-modify-write of an own root key *)
            let c = Prng.int g serial_depth in
            let k = own () in
            let a = if c < serial_depth - 1 then [ E.Read (above c) ] else [] in
            upd c ((E.Read (gr c k) :: a) @ [ E.Write (gr c k, Prng.int g 1_000_000) ])
          end
          else begin
            (* Protocol A: several higher segments, one own write *)
            let c = Prng.int g (serial_depth - 1) in
            let reads = List.init 3 (fun _ -> E.Read (above c)) in
            upd c (reads @ [ E.Write (gr c (own ()), Prng.int g 1_000_000) ])
          end))

(* --- durable-write: chain-3, 2^10 keys per segment --- *)

let durable_segments = 3
let durable_keys = 1 lsl 10
let durable_pool_len = 1 lsl 16

let durable_partition () =
  chain durable_segments ~reads:(fun i ->
      List.init (durable_segments - i - 1) (fun k -> i + 1 + k))

(* Update-only: four writes of root keys and one Protocol A read. *)
let durable_pool ~seed =
  let g = Prng.create seed in
  Array.init durable_pool_len (fun _ ->
      let c = Prng.int g (durable_segments - 1) in
      let a =
        gr (c + 1 + Prng.int g (durable_segments - 1 - c)) (Prng.int g durable_keys)
      in
      let base = Prng.int g durable_keys in
      upd c
        (E.Read a
        :: List.init 4 (fun i ->
               let k = (base + (i * (durable_keys / 4))) mod durable_keys in
               E.Write (gr c k, Prng.int g 1_000_000))))

(* The load: every key of every segment, 256 writes per transaction. *)
let durable_load () =
  List.concat_map
    (fun s ->
      List.init (durable_keys / 256) (fun b ->
          upd s (List.init 256 (fun k -> E.Write (gr s ((b * 256) + k), k)))))
    (List.init durable_segments Fun.id)

(* --- engine-cross and shard-loopback: class i reads only i+1, which
       another worker or shard owns --- *)

let cross_partition n =
  chain n ~reads:(fun i -> if i + 1 < n then [ i + 1 ] else [])

let cross_desc g ~segments ~keys ~ro_pct =
  if Prng.int g 100 < ro_pct then
    ro (List.init 3 (fun _ -> E.Read (gr (Prng.int g segments) (Prng.int g keys))))
  else begin
    let c = Prng.int g segments in
    let own = E.Write (gr c (Prng.int g keys), Prng.int g 1_000_000) in
    let reads =
      if c + 1 < segments then
        List.init 2 (fun _ -> E.Read (gr (c + 1) (Prng.int g keys)))
      else [ E.Read (gr c (Prng.int g keys)) ]
    in
    { (upd c (own :: reads)) with d_abort = Prng.int g 50 = 0 }
  end

let engine_segments = 8
let engine_keys = 1024
let engine_workers = 2
let engine_script_len = 2_000

(* A fixed-length script with ids 1..n. *)
let engine_script ~seed ~len =
  let g = Prng.create seed in
  Array.init len (fun i ->
      { (cross_desc g ~segments:engine_segments ~keys:engine_keys ~ro_pct:10) with
        d_id = i + 1 })

let shard_segments = 4
let shard_keys = 1024
let shard_nodes = 2
let shard_pool_len = 1 lsl 16

(* Templates; ids are assigned as they are executed. *)
let shard_pool ~seed =
  let g = Prng.create seed in
  Array.init shard_pool_len (fun _ ->
      cross_desc g ~segments:shard_segments ~keys:shard_keys ~ro_pct:20)

(* Everything a seed determines, for the reproducibility self-test. *)
let all_inputs ~seed =
  Marshal.to_string
    ( serial_pools ~seed,
      durable_pool ~seed,
      engine_script ~seed ~len:2_000,
      shard_pool ~seed )
    [ Marshal.No_sharing ]

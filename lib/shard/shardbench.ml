module D = Hdd_runtime.Differential
module E = Hdd_runtime.Engine
module J = Hdd_benchkit.Jsonlite

type side = {
  s_txns : int;
  s_cross_reads : int;
  s_txns_per_sec : float;
  s_cross_reads_per_sec : float;
  s_lat_p50_us : float;
  s_lat_p95_us : float;
  s_lat_p99_us : float;
}

type result = {
  r_shards : int;
  r_seconds : float;
  r_cross_per_txn : int;
  r_publish_every : int;
  r_hdd : side;
  r_hdd_batched : side option;
  r_tpc : side;
  r_speedup : float;
  r_batch_delta_p50_us : float option;
}

(* closed-loop per-transaction latency quantile over the merged
   per-shard samples (each sample is one full exec+pump round trip) *)
let quantile samples p =
  let n = Array.length samples in
  if n = 0 then 0.
  else begin
    Array.sort compare samples;
    samples.(Int.min (n - 1) (int_of_float (p *. float_of_int (n - 1))))
  end

let max_samples = 1 lsl 16

(* One closed loop per shard domain, every transaction one own-segment
   write plus [cross] reads of the next segment up the chain — which a
   different shard owns, so every read crosses the interconnect.  The
   HDD side ships the whole transaction through {!Node.exec} (Protocol
   A/B over publications: zero read-time round trips); the 2PC side
   pays the lock / read / unlock conversation per read and commits
   locally without any replication or registry work, which is the
   kindest possible baseline.  [publish_every] is the HDD node's
   publication batch: versions still ship per commit, activity
   publications amortize over K. *)
let bench_side ~mode ~shards ~seconds ~cross ~keys ~publish_every () =
  let partition = D.chain_partition (shards + 1) in
  let nets = Transport.Loopback.create ~nodes:shards () in
  let stop = Atomic.make false in
  let done_count = Atomic.make 0 in
  let config = { Node.default_config with traced = false; publish_every } in
  let run me =
    let node =
      Node.create ~config ~partition ~init:D.default_init ~net:nets.(me) ()
    in
    Node.set_on_wait node (fun () -> Unix.sleepf 1e-6);
    let lat = Array.make max_samples 0. in
    let nlat = ref 0 in
    let deadline = Unix.gettimeofday () +. seconds in
    let next_id = ref (me + 1) in
    let n = ref 0 in
    let now = ref (Unix.gettimeofday ()) in
    while !now < deadline do
      let key = !n mod keys in
      (match mode with
      | `Hdd ->
        let ops =
          E.Write (Granule.make ~segment:me ~key, !n)
          :: List.init cross (fun k ->
                 E.Read
                   (Granule.make ~segment:(me + 1) ~key:((key + k) mod keys)))
        in
        Node.exec node
          { E.d_id = !next_id; d_kind = `Update me; d_ops = ops;
            d_abort = false }
      | `Tpc ->
        for k = 0 to cross - 1 do
          ignore
            (Node.read_2pc node ~segment:(me + 1) ~key:((key + k) mod keys))
        done;
        Node.commit_local node ~segment:me ~key ~value:!n;
        (* 2PC peers learn of nothing through publications, but the
           clock gossip keeps stamps comparable across shards *)
        Node.publish node);
      next_id := !next_id + shards;
      incr n;
      Node.pump node;
      let t1 = Unix.gettimeofday () in
      if !nlat < max_samples then begin
        lat.(!nlat) <- (t1 -. !now) *. 1e6;
        incr nlat
      end;
      now := t1
    done;
    Atomic.incr done_count;
    (* keep serving peers (publications, lock and read requests) until
       every loop is past its deadline *)
    while not (Atomic.get stop) do
      Node.pump node;
      Node.publish_final node;
      Unix.sleepf 2e-6
    done;
    Node.pump node;
    (node, Array.sub lat 0 !nlat)
  in
  let doms = Array.init shards (fun i -> Domain.spawn (fun () -> run i)) in
  while Atomic.get done_count < shards do
    Unix.sleepf 100e-6
  done;
  Atomic.set stop true;
  let joined = Array.map Domain.join doms in
  let nodes = Array.map fst joined in
  let lats = Array.concat (Array.to_list (Array.map snd joined)) in
  let sum f = Array.fold_left (fun a n -> a + f (Node.counters n)) 0 nodes in
  let txns = sum (fun k -> k.Wire.k_committed) in
  let reads = sum (fun k -> k.Wire.k_reads_a) in
  { s_txns = txns;
    s_cross_reads = reads;
    s_txns_per_sec = float_of_int txns /. seconds;
    s_cross_reads_per_sec = float_of_int reads /. seconds;
    s_lat_p50_us = quantile lats 0.5;
    s_lat_p95_us = quantile lats 0.95;
    s_lat_p99_us = quantile lats 0.99 }

let run ?(shards = 4) ?(seconds = 1.0) ?(cross = 4) ?(keys = 64)
    ?(publish_every = 8) () =
  let publish_every = Int.max 1 publish_every in
  let hdd =
    bench_side ~mode:`Hdd ~shards ~seconds ~cross ~keys ~publish_every:1 ()
  in
  let hdd_batched =
    if publish_every = 1 then None
    else
      Some
        (bench_side ~mode:`Hdd ~shards ~seconds ~cross ~keys ~publish_every
           ())
  in
  let tpc =
    bench_side ~mode:`Tpc ~shards ~seconds ~cross ~keys ~publish_every:1 ()
  in
  { r_shards = shards;
    r_seconds = seconds;
    r_cross_per_txn = cross;
    r_publish_every = publish_every;
    r_hdd = hdd;
    r_hdd_batched = hdd_batched;
    r_tpc = tpc;
    r_speedup =
      (if tpc.s_cross_reads_per_sec > 0. then
         hdd.s_cross_reads_per_sec /. tpc.s_cross_reads_per_sec
       else infinity);
    r_batch_delta_p50_us =
      Option.map (fun b -> b.s_lat_p50_us -. hdd.s_lat_p50_us) hdd_batched }

let side_json s =
  J.Obj
    [ ("txns", J.num_of_int s.s_txns);
      ("cross_reads", J.num_of_int s.s_cross_reads);
      ("txns_per_sec", J.Num s.s_txns_per_sec);
      ("cross_reads_per_sec", J.Num s.s_cross_reads_per_sec);
      ("commit_latency_us",
       J.Obj
         [ ("p50", J.Num s.s_lat_p50_us);
           ("p95", J.Num s.s_lat_p95_us);
           ("p99", J.Num s.s_lat_p99_us) ]) ]

let to_json r =
  J.with_schema
    [ ("shards", J.num_of_int r.r_shards);
      ("seconds", J.Num r.r_seconds);
      ("cross_reads_per_txn", J.num_of_int r.r_cross_per_txn);
      ("publish_every", J.num_of_int r.r_publish_every);
      ("hdd", side_json r.r_hdd);
      ("hdd_batched",
       match r.r_hdd_batched with None -> J.Null | Some s -> side_json s);
      ("twopc", side_json r.r_tpc);
      ("speedup", J.Num r.r_speedup);
      ("batch_latency_delta_p50_us",
       match r.r_batch_delta_p50_us with None -> J.Null | Some d -> J.Num d)
    ]

let tracked = Hdd_benchkit.Baseline.metrics [ [ "speedup" ] ]

let gates r =
  let problems = ref [] in
  if r.r_hdd.s_txns = 0 then
    problems := "HDD side committed nothing" :: !problems;
  (match r.r_hdd_batched with
  | Some b when b.s_txns = 0 ->
    problems :=
      Printf.sprintf "HDD side committed nothing at publish_every=%d"
        r.r_publish_every
      :: !problems
  | _ -> ());
  if r.r_tpc.s_txns = 0 then
    problems := "2PC side committed nothing" :: !problems;
  if r.r_speedup <= 1.0 then
    problems :=
      Printf.sprintf
        "HDD cross-shard reads no faster than the 2PC baseline \
         (speedup %.2fx)"
        r.r_speedup
      :: !problems;
  List.rev !problems

let pp ppf r =
  Format.fprintf ppf
    "shards=%d cross=%d: HDD %.0f cross-reads/sec (%.0f txns/sec), 2PC \
     %.0f cross-reads/sec (%.0f txns/sec), speedup %.2fx@."
    r.r_shards r.r_cross_per_txn r.r_hdd.s_cross_reads_per_sec
    r.r_hdd.s_txns_per_sec r.r_tpc.s_cross_reads_per_sec
    r.r_tpc.s_txns_per_sec r.r_speedup;
  Format.fprintf ppf "  HDD commit latency p50/p95/p99 us: %.1f/%.1f/%.1f@."
    r.r_hdd.s_lat_p50_us r.r_hdd.s_lat_p95_us r.r_hdd.s_lat_p99_us;
  match r.r_hdd_batched with
  | None -> ()
  | Some b ->
    Format.fprintf ppf
      "  batched K=%d: %.0f txns/sec, p50/p95/p99 us %.1f/%.1f/%.1f \
       (p50 delta %+.1f us)@."
      r.r_publish_every b.s_txns_per_sec b.s_lat_p50_us b.s_lat_p95_us
      b.s_lat_p99_us
      (Option.value ~default:0. r.r_batch_delta_p50_us)

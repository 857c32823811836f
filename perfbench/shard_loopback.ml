(* shard-loopback: two Nodes over Transport.Loopback on a depth-4 chain
   where class i reads segment i+1, which the other shard owns, driven
   from one thread the way the deterministic cluster drives them: the
   next descriptor runs on its shard, then both nodes pump, and a node
   that must wait pumps and republishes the other.  20% read-only
   transactions, 2% scripted aborts.  Covers the node's threshold
   composition, wall walk and wire codec.

   A node keeps every outcome and more besides, so its heap grows with
   every descriptor it runs (to ~400 MB over a 20-second run), and the
   cost of a commit with it.  The measured phase therefore runs in
   epochs: a pair of nodes runs [epoch] descriptors, is checked and
   dropped, and a fresh pair, warmed like the set-up's, takes over.  The
   change of pair happens between windows, outside the measured time. *)

module N = Hdd_shard.Node
module T = Hdd_shard.Transport
module E = Hdd_runtime.Engine

type ctx = {
  nodes : N.t array;
  packets : int ref;
  pool : E.desc array;
  mutable next : int;  (** descriptors executed; the next id is [next + 1] *)
  mutable sp : Spans.t;
  upd_lat : Meter.samples;
  ro_lat : Meter.samples;
  mutable measured : bool;  (** latencies are kept *)
  mutable commits : int;
}

let span_names = [ "node.exec"; "node.on_wait"; "node.pump"; "node.publish" ]
let s_exec = 0 and s_wait = 1 and s_pump = 2 and s_publish = 3

let make ~sp ~upd_lat ~ro_lat pool =
  let partition = Gen.cross_partition Gen.shard_segments in
  let config = { N.default_config with traced = false } in
  let nets = T.Loopback.create ~nodes:Gen.shard_nodes () in
  let packets = ref 0 in
  let x =
    { nodes =
        Array.map
          (fun (net : T.t) ->
            (* count every packet put on the wire *)
            let send p =
              incr packets;
              net.T.send p
            in
            N.create ~config ~partition ~init:Gen.init ~net:{ net with T.send } ())
          nets;
      packets; pool; next = 0; sp; upd_lat; ro_lat; measured = false; commits = 0 }
  in
  Array.iteri
    (fun i n ->
      N.set_on_wait n (fun () ->
          let sp = x.sp in
          Spans.enter sp s_wait 0;
          Array.iteri
            (fun j m ->
              if j <> i then begin
                Spans.enter sp s_pump 0;
                N.pump m;
                Spans.leave sp;
                Spans.enter sp s_publish 0;
                N.publish m;
                Spans.leave sp
              end)
            x.nodes;
          Spans.leave sp))
    x.nodes;
  x

let step x =
  let d = x.pool.(x.next land (Array.length x.pool - 1)) in
  x.next <- x.next + 1;
  let d = { d with E.d_id = x.next } in
  let node =
    x.nodes.(match d.E.d_kind with
             | `Update c -> c mod Gen.shard_nodes
             | `Read_only -> d.E.d_id mod Gen.shard_nodes)
  in
  Spans.enter x.sp s_exec d.E.d_id;
  let t0 = Meter.now () in
  N.exec node d;
  let t1 = Meter.now () in
  Spans.leave x.sp;
  if not d.E.d_abort then begin
    if x.measured then
      Meter.add
        (match d.E.d_kind with `Update _ -> x.upd_lat | `Read_only -> x.ro_lat)
        (t1 - t0);
    x.commits <- x.commits + 1
  end;
  Array.iter
    (fun n ->
      Spans.enter x.sp s_pump 0;
      N.pump n;
      Spans.leave x.sp)
    x.nodes;
  Spans.maybe_fold x.sp

let run_until x stop =
  while not (stop x) do
    for _ = 1 to 16 do
      step x
    done
  done

(* Outcomes wrong or missing: every executed descriptor must reach its
   scripted verdict, exactly once. *)
let verdicts x =
  Array.iter N.publish_final x.nodes;
  for _ = 1 to 3 do
    Array.iter N.pump x.nodes
  done;
  let outs =
    Array.to_list x.nodes |> List.concat_map N.outcomes
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let bad = ref 0 and expect = ref 1 in
  List.iter
    (fun (id, committed) ->
      let d = x.pool.((id - 1) land (Array.length x.pool - 1)) in
      if id <> !expect || committed = d.E.d_abort then incr bad;
      incr expect)
    outs;
  !bad + abs (x.next - List.length outs)

let warmup = 10_000
let epoch = 100_000
let prefix = 2_000

(* A pair of nodes warmed by [warmup] descriptors, run untraced and with
   their latencies dropped. *)
let fresh ~sp ~upd_lat ~ro_lat pool =
  let x = make ~sp:(Spans.create ~enabled:false span_names) ~upd_lat ~ro_lat pool in
  Common.lap ();
  for k = 1 to warmup / 128 do
    run_until x (fun x -> x.next >= k * 128);
    Common.lap ()
  done;
  x.sp <- sp;
  x

(* A pair's counts when its measured part starts. *)
type mark = { packets0 : int; counters0 : Hdd_shard.Wire.counters array; commits0 : int }

let start_measuring x =
  x.measured <- true;
  { packets0 = !(x.packets); counters0 = Array.map N.counters x.nodes; commits0 = x.commits }

let run (o : Common.opts) r =
  let pool = Gen.shard_pool ~seed:o.seed in
  let sp = Spans.create ~enabled:o.traced span_names in
  let upd_lat = Meter.samples () and ro_lat = Meter.samples () in
  let x, setups = Common.setups r ~n:6 (fun _ -> fresh ~sp ~upd_lat ~ro_lat pool) in
  (* totals over finished epochs *)
  let commits = ref 0 and bad = ref 0 and packets = ref 0 in
  let stale = ref 0 and releases = ref 0 and epochs = ref 0 in
  let close_epoch x m =
    let k1 = Array.map N.counters x.nodes in
    let sum f = Array.fold_left ( + ) 0 (Array.map2 (fun a b -> f b - f a) m.counters0 k1) in
    stale := !stale + sum (fun k -> k.Hdd_shard.Wire.k_stale_waits);
    releases := !releases + sum (fun k -> k.Hdd_shard.Wire.k_wall_releases);
    packets := !packets + !(x.packets) - m.packets0;
    commits := !commits + x.commits - m.commits0;
    bad := !bad + verdicts x;
    incr epochs
  in
  let x = ref x in
  let m = ref (start_measuring !x) in
  let running () = !commits + (!x).commits - !m.commits0 in
  let p = Common.start_phase ~unit:200 ~rss_at:200_000 ~seconds:o.seconds setups in
  let stop = ref false in
  while not !stop do
    let y = !x in
    for _ = 1 to 16 do
      step y
    done;
    let now = Meter.now () in
    Common.window p ~now ~commits:(running ());
    if Common.over p ~now then stop := true
    else if y.next >= warmup + epoch then
      Common.between_windows p ~now ~commits:(running ()) (fun () ->
          close_epoch y !m;
          x := fresh ~sp ~upd_lat ~ro_lat pool;
          m := start_measuring !x)
  done;
  let wall_ns = Common.finish_phase r p sp ~commits:(running ()) ~reading:Fast_windows in
  close_epoch !x !m;
  let c = !commits in
  (* scripted aborts count as neither attempted nor failed *)
  r.Report.attempted <- c;
  r.Report.failed <- !bad;
  Report.metric r "abort_frac" 0. "ratio";
  Report.metric r "shard.epochs" (float_of_int !epochs) "count";
  Report.latency r "update" upd_lat;
  Report.latency r "readonly" ro_lat;
  Common.per r "node.stale_waits_per_kcommit" (1000 * !stale) c "count";
  Common.per r "node.wall_releases_per_kcommit" (1000 * !releases) c "count";
  Common.per r "transport.packets_per_commit" !packets c "count";
  if o.traced then begin
    let sums =
      Common.span_metrics r sp ~workload:"shard-loopback" ~out_dir:o.out_dir ~wall_ns
        ~commits:c
    in
    (* the wait hook pumps and republishes the other node (spans of their
       own); node.wait_ns is the hook's whole duration per call *)
    List.iter
      (fun (s : Spans.summary) ->
        if s.Spans.s_name = "node.on_wait" then
          Option.iter
            (fun v -> Report.metric r "node.wait_ns" (float_of_int v) "ns")
            s.Spans.s_dur_median_ns)
      sums
  end;
  Report.check r "shard-loopback: every descriptor reached its scripted verdict"
    (!bad = 0)
    (Printf.sprintf "%d outcomes wrong or missing over %d epochs" !bad !epochs);
  (* an untimed prefix through the deterministic cluster, traced, passes
     the four-check differential oracle *)
  let partition = Gen.cross_partition Gen.shard_segments in
  let script = Array.init prefix (fun i -> { pool.(i) with E.d_id = i + 1 }) in
  let run =
    Hdd_shard.Cluster.run_script_det
      ~config:{ N.default_config with traced = true }
      ~partition ~init:Gen.init ~shards:Gen.shard_nodes ~seed:o.seed ~script ()
  in
  let rep = Hdd_runtime.Differential.check_run ~partition ~init:Gen.init ~script run in
  Report.check r "shard-loopback: prefix passes the four-check oracle"
    (Hdd_runtime.Differential.ok rep)
    (String.concat ", " (Hdd_runtime.Differential.failures rep));
  Common.finish_setups setups

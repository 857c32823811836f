module E = Hdd_runtime.Engine
module D = Hdd_runtime.Differential
module J = Hdd_benchkit.Jsonlite

type result = {
  a_workers : int;
  a_seconds : float;
  a_rotate_every_s : float;
  a_depth : int;
  a_seed : int;
  a_steady_txn_per_s : float;
  a_steady_committed : int;
  a_live_txn_per_s : float;
  a_live_committed : int;
  a_live_repartitions : int;
  a_stw_txn_per_s : float;
  a_stw_committed : int;
  a_stw_restarts : int;
  a_retention_live : float;
  a_retention_stw : float;
}

let retention_floor = 0.70

let mix =
  { E.ro_frac = 0.1;
    abort_frac = 0.05;
    cross_reads = 4;
    own_ops = 2;
    keys_per_segment = 16 }

let run ?(workers = 4) ?(seconds = 1.0) ?(rotate_every_s = 0.125) ?(depth = 8)
    ?(seed = 42) () =
  let workers = Int.min workers (Domain.recommended_domain_count ()) in
  let workers = Int.max 1 workers in
  let partition = D.chain_partition depth in
  let timed ?rotate seconds seed =
    E.run_timed ~partition ~init:D.default_init ~workers ~seconds
      ?rotate_every_s:rotate ~mix ~seed ()
  in
  let steady = timed seconds seed in
  let live = timed ~rotate:rotate_every_s seconds (seed + 1) in
  (* stop-the-world: a fresh engine per rotation window, the rebuild
     cost landing inside the measured wall-clock *)
  let windows =
    Int.max 2 (int_of_float (Float.round (seconds /. rotate_every_s)))
  in
  let stw_start = Unix.gettimeofday () in
  let stw_committed = ref 0 in
  for w = 0 to windows - 1 do
    let t = timed (seconds /. float_of_int windows) (seed + 2 + w) in
    stw_committed := !stw_committed + t.E.t_stats.E.committed
  done;
  let stw_elapsed = Unix.gettimeofday () -. stw_start in
  let rate committed elapsed =
    if elapsed <= 0. then 0. else float_of_int committed /. elapsed
  in
  let steady_rate =
    rate steady.E.t_stats.E.committed steady.E.t_elapsed_s
  in
  let live_rate = rate live.E.t_stats.E.committed live.E.t_elapsed_s in
  let stw_rate = rate !stw_committed stw_elapsed in
  let retention r = if steady_rate <= 0. then 0. else r /. steady_rate in
  { a_workers = workers;
    a_seconds = seconds;
    a_rotate_every_s = rotate_every_s;
    a_depth = depth;
    a_seed = seed;
    a_steady_txn_per_s = steady_rate;
    a_steady_committed = steady.E.t_stats.E.committed;
    a_live_txn_per_s = live_rate;
    a_live_committed = live.E.t_stats.E.committed;
    a_live_repartitions = live.E.t_stats.E.repartitions;
    a_stw_txn_per_s = stw_rate;
    a_stw_committed = !stw_committed;
    a_stw_restarts = windows;
    a_retention_live = retention live_rate;
    a_retention_stw = retention stw_rate }

let gates r =
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if r.a_live_repartitions < 1 then
    bad "live run applied no repartition (rotate_every_s=%.3f over %.2fs)"
      r.a_rotate_every_s r.a_seconds;
  if r.a_steady_committed = 0 then bad "steady run committed nothing";
  if r.a_live_committed = 0 then bad "live run committed nothing";
  if r.a_stw_committed = 0 then bad "stop-the-world run committed nothing";
  if r.a_retention_live < retention_floor then
    bad "live retention %.3f below the %.2f floor" r.a_retention_live
      retention_floor;
  List.rev !problems

let tracked = Hdd_benchkit.Baseline.metrics [ [ "retention_live" ] ]

let to_json r =
  J.with_schema
    [ ("benchmark", J.Str "adaptive_repartition");
      ("hierarchy", J.Str (Printf.sprintf "chain-%d" r.a_depth));
      ("workers", J.num_of_int r.a_workers);
      ("seconds_per_mode", J.Num r.a_seconds);
      ("rotate_every_s", J.Num r.a_rotate_every_s);
      ("seed", J.num_of_int r.a_seed);
      ("steady",
       J.Obj
         [ ("txn_per_s", J.Num r.a_steady_txn_per_s);
           ("committed", J.num_of_int r.a_steady_committed) ]);
      ("live",
       J.Obj
         [ ("txn_per_s", J.Num r.a_live_txn_per_s);
           ("committed", J.num_of_int r.a_live_committed);
           ("repartitions", J.num_of_int r.a_live_repartitions) ]);
      ("stop_the_world",
       J.Obj
         [ ("txn_per_s", J.Num r.a_stw_txn_per_s);
           ("committed", J.num_of_int r.a_stw_committed);
           ("restarts", J.num_of_int r.a_stw_restarts) ]);
      ("retention_live", J.Num r.a_retention_live);
      ("retention_stop_the_world", J.Num r.a_retention_stw);
      ("retention_floor", J.Num retention_floor) ]

let pp ppf r =
  Format.fprintf ppf
    "adaptive repartition, chain-%d, %d workers, %.2fs/mode, rotation every \
     %.3fs (seed %d)@."
    r.a_depth r.a_workers r.a_seconds r.a_rotate_every_s r.a_seed;
  Format.fprintf ppf "  %-16s %12s %12s %14s@." "mode" "txn/s" "committed"
    "repartitions";
  Format.fprintf ppf "  %-16s %12.0f %12d %14s@." "steady"
    r.a_steady_txn_per_s r.a_steady_committed "-";
  Format.fprintf ppf "  %-16s %12.0f %12d %14d@." "live"
    r.a_live_txn_per_s r.a_live_committed r.a_live_repartitions;
  Format.fprintf ppf "  %-16s %12.0f %12d %14s@." "stop-the-world"
    r.a_stw_txn_per_s r.a_stw_committed
    (Printf.sprintf "%d restarts" r.a_stw_restarts);
  Format.fprintf ppf
    "  retention: live %.2f, stop-the-world %.2f (floor %.2f)@."
    r.a_retention_live r.a_retention_stw retention_floor

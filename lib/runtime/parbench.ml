module J = Hdd_benchkit.Jsonlite
module M = Hdd_obs.Metrics

type point = {
  b_workers : int;
  b_publish_every : int;
  b_elapsed_s : float;
  b_stats : Engine.stats;
  b_lat_p50_us : float;
  b_lat_p95_us : float;
  b_lat_p99_us : float;
}

let per_s p n = float_of_int n /. p.b_elapsed_s
let txn_per_s p = per_s p p.b_stats.committed
let reads_a_per_s p = per_s p p.b_stats.reads_a

type result = {
  r_points : point list;
  r_ksweep : point list;
  r_publish_every : int;
  r_scaling_1_to_4 : float option;
  r_scaling_1_to_8 : float option;
  r_scaling_1_to_16 : float option;
  r_depth : int;
  r_seconds_per_point : float;
  r_seed : int;
}

(* cross_read_scaling_1_to_8 measured on the PR 5..7 engine (per-commit
   publication, boxed snapshots) on the reference 1-core runner, kept
   as the floor the rebuilt runtime must clear by 1.5x: batched
   publication plus the board/ring cross-read service must not buy
   1-worker throughput with cross-worker waits. *)
let pre_pr_scaling_1_to_8 = 0.26

(* The read-heavy cross-class mix: each update transaction does a couple
   of root-segment ops and a burst of Protocol A reads — the access
   pattern whose parallel cost the decomposition claims is zero. *)
let scaling_mix =
  { Engine.ro_frac = 0.05;
    abort_frac = 0.02;
    cross_reads = 8;
    own_ops = 2;
    keys_per_segment = 16 }

let measure ~partition ~workers ~publish_every ~seconds ~seed =
  let t =
    Engine.run_timed ~partition ~init:Differential.default_init ~workers
      ~seconds ~publish_every ~mix:scaling_mix ~seed ()
  in
  let hist = M.histogram t.Engine.t_latency "commit_latency_us" in
  let q p = M.quantile hist p in
  { b_workers = workers;
    b_publish_every = publish_every;
    b_elapsed_s = t.Engine.t_elapsed_s;
    b_stats = t.Engine.t_stats;
    b_lat_p50_us = q 0.5;
    b_lat_p95_us = q 0.95;
    b_lat_p99_us = q 0.99 }

let run ?workers_list ?(publish_every = 16) ?(ksweep = [ 1; 4; 16; 64 ])
    ?(depth = 8) ?(seconds = 1.0) ?(seed = 42) () =
  let workers_list =
    match workers_list with
    | Some l -> l
    | None ->
      let cores = Domain.recommended_domain_count () in
      let base = [ 1; 2; 4; 8 ] in
      if cores - 1 > 8 then base @ [ cores - 1 ] else base
  in
  let partition = Differential.chain_partition depth in
  let points =
    List.map
      (fun w -> measure ~partition ~workers:w ~publish_every ~seconds ~seed)
      workers_list
  in
  (* the publication-batch sweep runs at the widest point: batching
     trades publication work against cross-read service cost, and the
     trade only shows where cross-worker traffic exists *)
  let kw = List.fold_left Int.max 1 workers_list in
  let ksweep_points =
    if kw <= 1 then []
    else
      List.map
        (fun k -> measure ~partition ~workers:kw ~publish_every:k ~seconds ~seed)
        ksweep
  in
  let rate w =
    List.find_opt (fun p -> p.b_workers = w) points
    |> Option.map reads_a_per_s
  in
  let scaling w =
    match (rate 1, rate w) with
    | Some r1, Some rw when r1 > 0. -> Some (rw /. r1)
    | _ -> None
  in
  { r_points = points;
    r_ksweep = ksweep_points;
    r_publish_every = publish_every;
    r_scaling_1_to_4 = scaling 4;
    r_scaling_1_to_8 = scaling 8;
    r_scaling_1_to_16 = scaling 16;
    r_depth = depth;
    r_seconds_per_point = seconds;
    r_seed = seed }

(* Intrinsic acceptance gates, checked wherever the bench runs (the CI
   quick pass and the nightly full pass both call this): the rebuilt
   runtime must beat the pre-rebuild scaling floor by 1.5x, and the
   sweep must stay sound (commits at every K). *)
let gates r =
  let problems = ref [] in
  (match r.r_scaling_1_to_8 with
  | Some s when s < 1.5 *. pre_pr_scaling_1_to_8 ->
    problems :=
      Printf.sprintf
        "cross_read_scaling_1_to_8 %.3f below 1.5x the pre-rebuild floor \
         %.3f"
        s pre_pr_scaling_1_to_8
      :: !problems
  | _ -> ());
  List.iter
    (fun p ->
      if p.b_stats.committed = 0 then
        problems :=
          Printf.sprintf "no commits at workers=%d publish_every=%d"
            p.b_workers p.b_publish_every
          :: !problems)
    (r.r_points @ r.r_ksweep);
  List.rev !problems

let json_of_point p =
  let s = p.b_stats in
  J.Obj
    [ ("workers", J.num_of_int p.b_workers);
      ("publish_every", J.num_of_int p.b_publish_every);
      ("elapsed_s", J.Num p.b_elapsed_s);
      ("committed", J.num_of_int s.committed);
      ("aborted", J.num_of_int s.aborted);
      ("txn_per_s", J.Num (txn_per_s p));
      ("reads_a", J.num_of_int s.reads_a);
      ("reads_a_per_s", J.Num (reads_a_per_s p));
      ("reads_b", J.num_of_int s.reads_b);
      ("reads_c", J.num_of_int s.reads_c);
      ("writes", J.num_of_int s.writes);
      ("publications", J.num_of_int s.publications);
      ("wall_releases", J.num_of_int s.wall_releases);
      ("wall_lag_mean_ticks",
       J.Num
         (if s.wall_releases = 0 then 0.
          else float_of_int s.wall_lag_sum /. float_of_int s.wall_releases));
      ("wall_lag_max_ticks", J.num_of_int s.wall_lag_max);
      ("commit_latency_us",
       J.Obj
         [ ("p50", J.Num p.b_lat_p50_us);
           ("p95", J.Num p.b_lat_p95_us);
           ("p99", J.Num p.b_lat_p99_us) ]) ]

let opt_num = function None -> J.Null | Some s -> J.Num s

let to_json r =
  J.with_schema
    [ ("benchmark", J.Str "parallel_runtime");
      ("hierarchy", J.Str (Printf.sprintf "chain-%d" r.r_depth));
      ("seconds_per_point", J.Num r.r_seconds_per_point);
      ("seed", J.num_of_int r.r_seed);
      ("publish_every", J.num_of_int r.r_publish_every);
      ("recommended_domains",
       J.num_of_int (Domain.recommended_domain_count ()));
      ("points", J.List (List.map json_of_point r.r_points));
      ("publish_every_sweep", J.List (List.map json_of_point r.r_ksweep));
      ("pre_pr_scaling_1_to_8", J.Num pre_pr_scaling_1_to_8);
      ("cross_read_scaling_1_to_4", opt_num r.r_scaling_1_to_4);
      ("cross_read_scaling_1_to_8", opt_num r.r_scaling_1_to_8);
      ("cross_read_scaling_1_to_16", opt_num r.r_scaling_1_to_16) ]

let tracked report =
  let metrics = Hdd_benchkit.Baseline.metrics in
  (match J.member "points" report with
  | Some (J.List points) ->
    List.concat_map
      (fun p ->
        let w = J.num_at [ "workers" ] p in
        List.map
          (fun (m, v) -> (Printf.sprintf "%s at %.0f workers" m w, v))
          (metrics [ [ "reads_a_per_s" ] ] p))
      points
  | _ -> [])
  @ metrics [ [ "cross_read_scaling_1_to_8" ] ] report

let pp ppf r =
  Format.fprintf ppf
    "parallel runtime, chain-%d, %.2fs/point, K=%d (seed %d)@." r.r_depth
    r.r_seconds_per_point r.r_publish_every r.r_seed;
  Format.fprintf ppf "  %8s %12s %14s %10s %10s %10s %10s@." "workers"
    "txn/s" "A-reads/s" "p50us" "p99us" "pubs" "walls";
  List.iter
    (fun p ->
      Format.fprintf ppf "  %8d %12.0f %14.0f %10.0f %10.0f %10d %10d@."
        p.b_workers (txn_per_s p) (reads_a_per_s p) p.b_lat_p50_us
        p.b_lat_p99_us p.b_stats.publications p.b_stats.wall_releases)
    r.r_points;
  if r.r_ksweep <> [] then begin
    Format.fprintf ppf "  publication batch sweep at %d workers:@."
      (List.fold_left (fun a p -> Int.max a p.b_workers) 1 r.r_ksweep);
    List.iter
      (fun p ->
        Format.fprintf ppf "  %8s %12.0f %14.0f %10.0f %10.0f %10d@."
          (Printf.sprintf "K=%d" p.b_publish_every)
          (txn_per_s p) (reads_a_per_s p) p.b_lat_p50_us p.b_lat_p99_us
          p.b_stats.publications)
      r.r_ksweep
  end;
  let sc label = function
    | Some s ->
      Format.fprintf ppf "  cross-class read scaling %s: %.2fx@." label s
    | None -> ()
  in
  sc "1 -> 4 workers" r.r_scaling_1_to_4;
  sc "1 -> 8 workers" r.r_scaling_1_to_8;
  sc "1 -> 16 workers" r.r_scaling_1_to_16

(** Scaling benchmark for the parallel runtime ([hdd_cli bench
    parallel]).

    Runs the untraced closed-loop engine ({!Engine.run_timed}) on a
    chain hierarchy at increasing worker-domain counts and reports, per
    point: transaction throughput, cross-class (Protocol A) read rate,
    publication count, commit-latency quantiles, and wall-release count
    and lag.  A second pass sweeps the publication batch K at the
    widest worker count — the knob trading publication work against
    cross-read service cost (DESIGN.md §16).

    The headline figure is [cross_read_scaling_1_to_8]: the Protocol A
    read-rate ratio between the 8-worker and 1-worker points.  The
    paper's coordination-free cross-class reads should scale
    near-linearly; {!gates} holds the rebuilt runtime to at least 1.5x
    the {!pre_pr_scaling_1_to_8} floor the publish-per-commit engine
    measured, and CI additionally gates against the committed
    [bench/BENCH_parallel_baseline.json]. *)

type point = {
  b_workers : int;
  b_publish_every : int;
  b_elapsed_s : float;
  b_committed : int;
  b_aborted : int;
  b_txn_per_s : float;
  b_reads_a : int;
  b_reads_a_per_s : float;
  b_reads_b : int;
  b_reads_c : int;
  b_writes : int;
  b_publications : int;
  b_wall_releases : int;
  b_wall_lag_mean : float;  (** ticks between anchor and release *)
  b_wall_lag_max : int;
  b_lat_p50_us : float;
  b_lat_p95_us : float;
  b_lat_p99_us : float;
}

type result = {
  r_points : point list;
  r_ksweep : point list;
      (** publication-batch sweep at the widest worker count *)
  r_publish_every : int;  (** K used for [r_points] *)
  r_scaling_1_to_4 : float option;
      (** reads_a/s at 4 workers over 1 worker, when both ran *)
  r_scaling_1_to_8 : float option;
  r_scaling_1_to_16 : float option;
  r_depth : int;
  r_seconds_per_point : float;
  r_seed : int;
}

val pre_pr_scaling_1_to_8 : float
(** [cross_read_scaling_1_to_8] of the publish-per-commit engine on the
    reference runner — the floor {!gates} holds the rebuilt runtime
    1.5x above. *)

val run :
  ?workers_list:int list ->
  ?publish_every:int ->
  ?ksweep:int list ->
  ?depth:int ->
  ?seconds:float ->
  ?seed:int ->
  unit ->
  result
(** Defaults: workers [[1; 2; 4; 8]] extended with
    [Domain.recommended_domain_count () - 1] when that exceeds 8,
    publication batch 16, sweep over K in [[1; 4; 16; 64]], chain depth
    8, 1.0 s per point, seed 42. *)

val gates : result -> string list
(** Intrinsic acceptance checks: empty when the scaling headline clears
    1.5x {!pre_pr_scaling_1_to_8} and every point committed work;
    human-readable problems otherwise. *)

val to_json : result -> Hdd_benchkit.Jsonlite.t
(** Schema-versioned report ({!Hdd_benchkit.Jsonlite.with_schema}). *)

val tracked : Hdd_benchkit.Jsonlite.t -> (string * float) list
(** Gated against a baseline: each point's [reads_a_per_s], by worker
    count, and [cross_read_scaling_1_to_8]. *)

val pp : Format.formatter -> result -> unit

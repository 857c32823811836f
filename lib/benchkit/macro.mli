(** The hot-path macro-benchmark behind [hdd_cli bench hot_paths], and
    the observability-overhead gate behind [hdd_cli bench obs_overhead].

    Two halves, one JSON report ([BENCH_hot_paths.json]):

    - {b before/after micro comparisons} of the four optimized paths —
      registry queries (incremental index vs log scan), critical-path
      lookup (precomputed matrix vs per-call DFS), activity-link
      composition (generation-stamped cache vs recomputation over the
      scans) and version lookup (array chain vs list chain) — plus the
      combined cross-class read path the acceptance criterion names.
      The "before" side calls the retained pre-PR reference
      implementations, so the comparison stays honest as both sides
      evolve.
    - a {b closed-loop mixed workload} on the depth-8 chain partition:
      a fixed multiprogramming level of update transactions (Protocols
      A and B) and read-only transactions (Protocol C), reporting
      ops/sec, per-protocol p50/p99 transaction latency, and
      chain-length / registry-size telemetry — the steady state the
      wall-driven GC is supposed to keep bounded. *)

val percentile : float array -> int -> float
(** [percentile sorted p]: the nearest-rank [p]th percentile of an
    ascending array, [0.] when it is empty. *)

val run : ?quick:bool -> unit -> Jsonlite.t
(** The full report.  [quick] shrinks the fixtures and the closed loop
    (~10x) for per-push CI.  The closed loop's telemetry (commits,
    blocked/rejected aborts) is counted through {!Hdd_obs.Metrics} and
    the report carries the registry snapshot under [macro.metrics]. *)

val obs_overhead : ?quick:bool -> ?runs:int -> unit -> Jsonlite.t
(** Run the closed-loop macro three ways — no trace attached, trace
    attached but disabled (the always-on profile: hooks compiled in,
    metrics registry wired, ring off) and tracing fully on (enabled ring
    + the standard metrics bridge) — best-of-[runs] (default 3) per
    side, rounds interleaved against machine-load swings.  Reports
    [{off_txns_per_sec; disabled_txns_per_sec; on_txns_per_sec;
    disabled_overhead_frac; overhead_frac}]; [disabled_overhead_frac] is
    the number the nightly <3% gate checks, the fully-on figure is
    published ungated (it is the diagnostic mode, and on transactions
    this cheap it costs ~8%). *)

val tracked : Jsonlite.t -> (string * float) list
(** Gated against a baseline: [macro.ops_per_sec],
    [macro.txns_per_sec] and
    [hot_paths.cross_class_read.after_ops_per_sec]. *)

val pp : Format.formatter -> Jsonlite.t -> unit
(** The headline figures of a {!run} report. *)

val obs_gates : Jsonlite.t -> string list
(** Empty when an {!obs_overhead} report's [disabled_overhead_frac] is
    at most 0.03: the always-on profile may cost at most 3% of
    closed-loop throughput. *)

val pp_obs : Format.formatter -> Jsonlite.t -> unit

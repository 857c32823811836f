(** The live-repartition benchmark ([hdd_cli bench adapt]).

    Measures what a decomposition repair costs while the multicore
    engine is serving traffic, three ways on the same chain hierarchy,
    worker count, mix and seed:

    - {b steady}: one uninterrupted {!Hdd_runtime.Engine.run_timed} —
      the ceiling;
    - {b live}: the same run with the coordinator applying a whole-map
      ownership rotation behind a park barrier every
      [rotate_every_s] — every class changes owner at every barrier,
      the worst-case migration;
    - {b stop-the-world}: the pre-adaptive alternative — tear the
      engine down and rebuild it from scratch at every would-be
      barrier, measured over the whole wall-clock including the
      rebuilds.

    The headline is [retention_live] = live / steady throughput:
    {!gates} holds it at or above {!retention_floor}, and CI
    additionally gates the committed [bench/BENCH_adapt.json]
    baseline's structure. *)

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
  a_retention_live : float;  (** live / steady *)
  a_retention_stw : float;  (** stop-the-world / steady *)
}

val retention_floor : float
(** 0.70: a live repartition may cost at most 30% of steady-state
    throughput at the benchmark's rotation cadence. *)

val run :
  ?workers:int ->
  ?seconds:float ->
  ?rotate_every_s:float ->
  ?depth:int ->
  ?seed:int ->
  unit ->
  result
(** Defaults: workers 4 (capped at the recommended domain count),
    1.0 s per mode, a rotation every 0.125 s, chain depth 8, seed 42. *)

val gates : result -> string list
(** Empty when the live run repartitioned at least once, committed
    work in every mode, and [retention_live >= retention_floor]. *)

val to_json : result -> Hdd_benchkit.Jsonlite.t

val tracked : Hdd_benchkit.Jsonlite.t -> (string * float) list
(** Gated against a baseline: [retention_live]. *)

val pp : Format.formatter -> result -> unit

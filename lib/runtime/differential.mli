(** The multicore engine's adapter to the one oracle
    ({!Hdd_core.Oracle}), under the parallel wall rule ([`Any_released]:
    a reader may hold any wall released before its initiation), and the
    seeded scripts every engine stress, the shard cluster's included,
    draws from. *)

type script = Engine.desc array

val gen_script :
  partition:Hdd_core.Partition.t ->
  seed:int ->
  txns:int ->
  ?keys_per_segment:int ->
  ?ro_frac:float ->
  ?abort_frac:float ->
  unit ->
  script
(** Random descriptor script legal for the partition: updates write only
    their root segment and read only segments their class may read;
    read-only descriptors read arbitrary segments (the ad-hoc-read
    shape, served by Protocol C). *)

val default_init : Granule.t -> int
(** The store initializer both runs share. *)

type report = {
  r_oracle : Hdd_core.Oracle.report;
  r_stats : Engine.stats;
      (** the run's counts, live repartitions and CC mode swaps
          included *)
}

val failures : report -> string list
(** {!Hdd_core.Oracle.failures}: empty iff {!ok}. *)

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
(** Leads with [FAILED checks: <names>] when any check failed, and
    ends with each failed family's witnesses. *)

val check_run :
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  script:script ->
  Engine.run ->
  report
(** Ask the oracle about an already-executed run of [script] —
    whatever produced it (the multicore engine, or a sharded cluster
    whose merged trace has the same shape). *)

val check :
  ?plan:(int array * string) list ->
  ?mode_plan:int array list ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  config:Engine.config ->
  script ->
  report
(** Run the script on the parallel engine, then {!check_run} it.
    [plan] and [mode_plan] go to {!Engine.run_script}: live
    repartitions and CC escalations the oracle must not be able to tell
    from a plan-free run (DESIGN.md §17.3, §18.2). *)

val rotation_plan :
  segments:int -> workers:int -> int -> (int array * string) list
(** [rotation_plan ~segments ~workers n]: [n] successive whole-map
    ownership rotations starting from {!Engine.default_owner_map} —
    every class changes owner at every step when [workers > 1]. *)

val escalation_plan : segments:int -> int -> int array list
(** [escalation_plan ~segments n]: [n] forced CC mode flips in which
    every class changes stamping discipline at every step (alternating
    parities), the last step restoring all-plain — the adversarial
    schedule for the escalation-equivalence property. *)

(** {1 Stress profiles} *)

val chain_partition : int -> Hdd_core.Partition.t
(** A depth-[n] chain: type [i] writes [D_i] and reads [D_i, D_{i+1}] —
    all activity links are up-steps.  Also the benchmark hierarchy. *)

val tree_partition : int -> Hdd_core.Partition.t
(** [n] branch classes all reading a shared root [D_0] — the shape whose
    walls exercise [C_late] down-steps. *)

type profile = Abort_heavy | Adhoc_read | Mixed

val stress_case :
  seed:int -> txns:int -> profile:profile -> Hdd_core.Partition.t * Engine.desc array
(** The (hierarchy, script) a stress run draws from its seed, for the
    engine, the shard cluster and [hdd_cli shard] alike: a chain for an
    even seed, a tree (exercising the wall coordinator's [C_late]
    down-steps) for an odd one; [Abort_heavy] ~40% aborts, [Adhoc_read]
    ~50% read-only transactions over arbitrary segments, [Mixed] in
    between. *)

val stress_one :
  ?publish_every:int ->
  ?repartitions:int ->
  ?escalations:int ->
  seed:int -> workers:int -> txns:int -> profile:profile -> unit -> report
(** One randomized stress run of {!stress_case} on the engine, at
    publication batch [publish_every] (default 8), with [repartitions]
    live rotations ({!rotation_plan}) and [escalations] live mode flips
    ({!escalation_plan}) injected (default 0 each). *)

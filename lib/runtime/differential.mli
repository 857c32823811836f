(** The differential correctness harness for the parallel engine.

    A parallel run is accepted only if, simultaneously:

    + the merged per-domain trace, restricted to committed transactions,
      replays into a schedule the MVSG {!Hdd_core.Certifier} certifies
      one-copy serializable;
    + the merged trace passes every online invariant of
      {!Hdd_obs.Monitor} (wall rule [`Any_released] — a parallel reader
      may legally hold any wall released before its initiation);
    + executing the {e same} descriptor script through the serial
      {!Hdd_core.Scheduler}, one transaction at a time in the parallel
      run's initiation order, yields the same per-transaction
      commit/abort verdict for every descriptor; and
    + for every committed update transaction, the sequence of writers it
      read from in its {e own root segment} (Protocol B) is identical in
      both runs — within a class both runs serialize identically, so
      root-segment reads must resolve to the same writers (version
      timestamps differ across runs; writer identity is the invariant).

    Protocol A/C read {e values} may legitimately differ from the serial
    replay: activity intervals differ when earlier-initiated
    transactions are still running in the parallel run, so thresholds
    differ.  Their correctness is what the certifier and monitor
    establish. *)

type script = Engine.desc array

val gen_script :
  partition:Hdd_core.Partition.t ->
  seed:int ->
  txns:int ->
  ?keys_per_segment:int ->
  ?ro_frac:float ->
  ?abort_frac:float ->
  ?cross_frac:float ->
  ?ops_per_txn:int ->
  unit ->
  script
(** Random descriptor script legal for the partition: updates write only
    their root segment and read only segments their class may read;
    read-only descriptors read arbitrary segments (the ad-hoc-read
    shape, served by Protocol C). *)

val default_init : Granule.t -> int
(** The store initializer both runs share. *)

type report = {
  r_serializable : bool;
  r_cycle : int list option;
  r_monitor_violations : string list;
  r_verdicts_agree : bool;
  r_b_reads_agree : bool;
  r_mismatches : string list;  (** human-readable disagreement details *)
  r_stats : Engine.stats;
      (** the run's counts, live repartitions and CC mode swaps
          included *)
  r_events : int;
}

val failures : report -> string list
(** The names of the checks that failed, in the order listed above:
    ["mvsg-certification"], ["monitor-replay"],
    ["serial-oracle-agreement"], ["read-from-equality"].  Empty iff
    {!ok}. *)

val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
(** Leads with [FAILED checks: <names>] when any check failed. *)

val check_run :
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  script:script ->
  Engine.run ->
  report
(** Apply all four checks to an already-executed run of [script] —
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
    [plan] is forwarded to {!Engine.run_script}: live repartitions the
    coordinator applies mid-run, which the four checks must not be able
    to distinguish from a plan-free run (the repartition-equivalence
    property in the test suite).  [mode_plan] likewise forwards live
    per-class CC escalations (DESIGN.md §18); the escalation-equivalence
    property asserts the report is identical to the plan-free run's. *)

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
(** One randomized stress run of {!stress_case} on the engine.
    [publish_every] is the engine's publication batch K
    (default 8): outcomes must be identical at every value, which is
    exactly what the batching property in the test suite asserts.
    [repartitions] (default 0) injects that many live whole-map
    ownership rotations ({!rotation_plan}) while the run is in flight;
    the report must stay identical to the plan-free run.  [escalations]
    (default 0) likewise injects that many live CC mode flips
    ({!escalation_plan}). *)

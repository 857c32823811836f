(** The one oracle: did a run pass, and which check failed.

    Every harness that judges a run asks it and keeps only its own
    inputs: the engine and the shard cluster (through
    [Hdd_runtime.Differential]), [Hdd_sim.Harness.traced_run], crash
    torture, the explorer's observed system and [hdd_cli].  A {!report}
    gives a verdict for each of five check families, in order:

    + [trace-complete]: every outcome's transaction has a [Begin]
      record.  A trace ring keeps only its newest records; when it
      evicted some, the families that read the records are {!Skipped}
      rather than judged on a truncated history.
    + [mvsg-certification]: the committed history (the schedule log
      when given, else the committed records) certifies one-copy
      serializable ({!Certifier}, the paper's Theorems 1 and 2).
    + [monitor-replay]: every invariant of {!Hdd_obs.Monitor} holds.
    + [serial-oracle-agreement]: the script, executed through the serial
      {!Scheduler} one transaction at a time in the run's initiation
      order, grants every operation and reaches each descriptor's
      verdict in the run.
    + [read-from-equality]: every committed update read its own root
      segment (Protocol B) from the same writers in both runs.  Within
      a class both runs serialize identically; Protocol A and C reads
      may differ, as earlier-initiated transactions still running move
      their thresholds, and the first three families judge those. *)

(** A script's transaction, as the serial replay, the multicore engine
    and the shard cluster execute it ([Hdd_runtime.Engine] re-exports
    both types). *)
type op = Read of Granule.t | Write of Granule.t * int

type desc = {
  d_id : Txn.id;
  d_kind : [ `Update of int | `Read_only ];
  d_ops : op list;
  d_abort : bool;
}

type family =
  | Trace_complete
  | Mvsg_certification
  | Monitor_replay
  | Serial_oracle_agreement
  | Read_from_equality

val name : family -> string
(** ["trace-complete"], ["mvsg-certification"], ... *)

type verdict =
  | Passed
  | Failed of string list  (** the witnesses, first first; never empty *)
  | Skipped  (** not asked, or its input was incomplete *)

type report = {
  verdicts : (family * verdict) list;  (** every family, in order *)
  events : int;  (** records the monitor checked *)
  epoch : int;  (** the newest partition epoch the monitor saw *)
}

val verdict : report -> family -> verdict
val witnesses : report -> family -> string list

val failures : report -> string list
(** The names of the failed families, in order.  Empty iff {!ok}. *)

val ok : report -> bool

type t
(** One run's oracle: its monitor, whose options ({!Hdd_obs.Monitor}
    documents and defaults them) are {!create}'s. *)

val create :
  ?raise_on_violation:bool ->
  ?wall_rule:[ `Latest | `Any_released ] ->
  ?durability_only:bool ->
  unit ->
  t

val attach : t -> Hdd_obs.Trace.t -> unit
(** Subscribe while the run executes: the monitor sees every record the
    trace emits, those its ring later evicts included. *)

type replay = {
  partition : Partition.t;
  init : Granule.t -> int;
  script : desc array;
}

val check :
  ?log:Sched_log.t ->
  ?replay:replay ->
  t ->
  records:Hdd_obs.Trace.record list ->
  outcomes:(Txn.id * bool) list ->
  report
(** Judge a run from its merged [records] (fed to the monitor: [[]] for
    an attached oracle), its [outcomes] (per descriptor: committed?),
    its live schedule [log] (certified instead of the committed
    records) and a [replay] of its script for the serial families.
    Without [log] and [outcomes] the certification is skipped, without
    [replay] the serial families.  A raising monitor raises out of
    this call. *)

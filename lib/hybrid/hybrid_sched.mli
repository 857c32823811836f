(** Adaptive hybrid concurrency control (DESIGN.md §18): the HDD
    scheduler with per-class escalation to commit-order serialization.

    A non-escalated class runs exactly as in {!Hdd_core.Scheduler} —
    Protocol B on its root segment, lock-free Protocol A cross-reads,
    versions stamped at initiation.  An {e escalated} class runs its
    root-segment operations on prudent-precedence ordering's one
    implementation, {!Hdd_baselines.Prudent.Table}: reads never wait
    and take the latest committed version while recording a precedence
    edge against any pending overwriter, writes take an exclusive
    deferred slot, and the commit point itself waits ({!try_commit})
    until every recorded predecessor has finished.  Escalated write sets
    are installed at a single fresh {e commit} stamp from this module's
    clock, so the class trades MVTO's late-write rejections for
    commit-waits — the right trade once the abort rate under contention
    exceeds the cost of waiting.  What stays here is the hybrid's own:
    eligibility, staged mode flips, the commit stamp and the trace
    records of escalated operations.

    {b Eligibility.}  Only classes whose declared read set lies inside
    their own root segment ({!eligible_classes}) may escalate.  For
    such a class every composed Protocol A threshold and every wall
    component observed by other transactions is at most the initiation
    of any active escalated transaction — strictly below its commit
    stamp — so cross-class readers and read-only walls never observe a
    partially escalated cut, and the four-check differential oracle
    holds across mode flips.

    {b Mode flips.}  {!request_modes} validates and stages a target
    mode vector; it applies at the first transaction boundary where no
    update transaction of any {e changing} class is in flight, emitting
    one {!Hdd_obs.Trace.event.Escalation} record — the drain condition
    the monitor's escalation invariant replays.

    The module owns its clock and store (like the engine, unlike the
    bare scheduler) because commit stamps and mode flips must tick the
    same clock the scheduler stamps initiations from. *)

type t

val create :
  ?log:Sched_log.t ->
  ?trace:Hdd_obs.Trace.t ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  unit ->
  t

val eligible_classes : Hdd_core.Partition.t -> bool array
(** [eligible_classes p].(c) is true when class [c]'s declared read set
    lies inside its own root segment, i.e. commit-stamp escalation is
    sound for it (see module preamble). *)

val scheduler : t -> int Hdd_core.Scheduler.t
(** The underlying HDD scheduler (for walls, GC, registry, metrics). *)

val modes : t -> int array
(** Current applied mode vector (a copy): 0 = plain HDD, 1 = escalated. *)

val eligible : t -> bool array
(** {!eligible_classes} of the partition (a copy). *)

val pending : t -> int array option
(** The staged-but-not-yet-drained target vector, if any. *)

val escalations : t -> int
(** Applied mode flips so far — the [seq] of the last Escalation record. *)

val escalated : t -> int -> bool
(** [escalated t cls] — is class [cls] currently escalated? *)

val request_modes : t -> int array -> unit
(** Stage a target mode vector; applies lazily at the next drained
    transaction boundary (see module preamble).
    @raise Invalid_argument on wrong length, entries outside [{0,1}],
    or a 1 for an ineligible class. *)

val begin_update : t -> class_id:int -> Txn.t
val begin_read_only : t -> Txn.t

val begin_adhoc_update : t -> writes:int list -> reads:int list -> Txn.t
(** @raise Invalid_argument when the declared access sets touch an
    escalated class — ad-hoc transactions bypass the class analysis the
    escalation soundness argument leans on, so they are refused while
    any segment they name is escalated. *)

val read : t -> Txn.t -> Granule.t -> int Hdd_core.Outcome.t
val write : t -> Txn.t -> Granule.t -> int -> unit Hdd_core.Outcome.t

val try_commit : t -> Txn.t -> unit Hdd_core.Outcome.t
(** Commit admission: [Granted] for plain transactions, and for
    escalated ones exactly when every recorded predecessor has
    finished; [Blocked live] otherwise.  The driver parks and re-polls,
    breaking commit-wait cycles like it does for
    {!Hdd_baselines.Prudent}. *)

val commit : t -> Txn.t -> unit
val abort : t -> Txn.t -> unit

val controller : t -> Hdd_sim.Controller.t
(** The simulator face, name ["Hybrid"], with [try_commit] wired. *)

val auto :
  ?policy:Policy.config ->
  t ->
  trace:Hdd_obs.Trace.t ->
  Hdd_sim.Controller.t * Contention.t * Policy.t
(** The closed adaptive loop: a {!Contention} fold (default window)
    attached to [trace], a {!Policy} over the eligible classes, and the
    {!controller} wrapped so that every fourth finished transaction the
    policy decides and any change is staged via {!request_modes}.  The
    trace passed here must be the same one the hybrid emits to, or the
    policy watches someone else's workload. *)

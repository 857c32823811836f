(** The repair executor, serial level: an adaptive HDD engine whose
    decomposition can be swapped while it lives (DESIGN.md §17).

    The executor owns the full serial stack — {!Hdd_core.Spec},
    {!Hdd_core.Partition}, {!Hdd_core.Scheduler}, {!Hdd_mvstore.Store} —
    plus one {!Time.Clock} that is {e carried across every swap}, so
    timestamps keep increasing monotonically through a repartition and
    every post-swap version sits above every pre-swap one.

    {!apply} installs a repair atomically at a quiescent point (no
    transaction may be active — the monitor's Partition-epoch invariant
    checks this on replay): it first anchors a time wall (the barrier
    the multicore engine parks behind; serially the release attempt is
    the observable trace of the same barrier), then for a spec-level
    move builds the new partition, carries the latest committed value of
    every granule into the fresh store's bootstrap (colliding merged
    granules resolve to the newest version, ties to the lower original
    segment), swaps in a new scheduler under the carried clock, bumps
    the published epoch, and emits a
    {!Hdd_obs.Trace.event.Repartition} record with [fresh_store = true]
    so monitor replays reset their shadow state.  A [Migrate] changes
    no spec: it bumps the epoch and emits the record with
    [fresh_store = false] — worker ownership is the multicore engine's
    business ({!Hdd_runtime.Engine.run_script}'s [plan]).

    Granule addresses survive repairs: callers keep using original
    addresses ({!value}); the executor composes the remapping
    (merge collapses segments, split moves keys at or above the pivot
    into the child). *)

type t

val create :
  ?trace:Hdd_obs.Trace.t ->
  ?wall_every_commits:int ->
  spec:Hdd_core.Spec.t ->
  init:(Granule.t -> int) ->
  unit ->
  t
(** @raise Invalid_argument when the spec is not TST-hierarchical. *)

val spec : t -> Hdd_core.Spec.t
val partition : t -> Hdd_core.Partition.t
val scheduler : t -> int Hdd_core.Scheduler.t
(** The current scheduler — invalidated by the next {!apply}; fetch it
    again after every repair. *)

val epoch : t -> int
(** Published repartition epoch: 0 at creation, +1 per {!apply}. *)

val value : t -> Granule.t -> int
(** Latest committed value of an original granule (bootstrap/carried
    value when never written since the last fresh store). *)

val apply : t -> Advise.move -> (unit, string) result
(** Install one repair.  [Error] (and no state change) when the
    post-move spec fails {!Hdd_core.Partition.build}, a split pivot is
    out of a key range already split, or a merge references an invalid
    pair.  Requires quiescence: no active transactions.
    @raise Invalid_argument when transactions are still active. *)

(** The HDD concurrency controller: Protocols A, B and C of §4.2 and §5.2
    over a TST-hierarchical partition.

    Routing, for an access by transaction [t] to granule [d ∈ Dj]:

    - update [t ∈ Ti], [i = j] — {b Protocol B}: multi-version timestamp
      ordering keyed on [I(t)] inside the root segment.  Reads take the
      latest version below [I(t)] and *register* a read timestamp (the
      cost the technique confines to root segments); a read whose version
      is still pending blocks until its writer finishes; a write whose
      would-be predecessor has been read by a younger transaction is
      rejected (the transaction restarts).
    - update [t ∈ Ti], [i ≠ j], [Tj] higher — {b Protocol A}: serve the
      latest committed version below [A_i^j(I(t))].  No registration, no
      blocking, no rejection, ever.
    - read-only [t] — {b Protocol C}: serve, in every segment, the latest
      committed version below the matching component of the most recent
      time wall released before [I(t)].  Same guarantees as Protocol A.
    - read-only [t] whose read set lies on one critical path — hosted as a
      member of a fictitious class just below the path's lowest class
      (§5.0) and served through Protocol A thresholds.

    Writes outside the declared root segment and reads of segments that
    are neither the root nor higher are *specification violations* and are
    rejected: they would invalidate the partition analysis.

    The scheduler never decides scheduling policy for blocked or rejected
    transactions — the driver (simulator, example, test) retries or
    restarts; this keeps the controller reusable across drivers. *)

type metrics = Hdd_obs.Counters.t = {
  mutable begins : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reads_a : int;
  mutable reads_b : int;
  mutable reads_c : int;
  mutable writes : int;
  mutable read_registrations : int;
  mutable blocks : int;
  mutable rejects : int;
  mutable publications : int;
  mutable stale_waits : int;
  mutable wall_releases : int;
  mutable wall_lag_sum : int;
  mutable wall_lag_max : int;
  mutable repartitions : int;
  mutable escalations : int;
}
(** The scheduler's counts ({!Hdd_obs.Counters}): begins, commits,
    aborts, reads per protocol, writes, read registrations (Protocol B
    reads only), blocks and rejections.  Wall releases are the
    {!wall_manager}'s. *)

type 'a t

val create :
  ?log:Sched_log.t ->
  ?trace:Hdd_obs.Trace.t ->
  ?wall_every_commits:int ->
  ?gc_every_commits:int ->
  ?gc_on_wall:bool ->
  partition:Partition.t ->
  clock:Time.Clock.clock ->
  store:'a Hdd_mvstore.Store.t ->
  unit ->
  'a t
(** [wall_every_commits] (default 16) controls how often Protocol C's time
    wall is refreshed: after that many commits the scheduler attempts a
    release, retrying on later commits while some [C^late] is not yet
    computable.  [gc_every_commits] (off by default) runs
    {!collect_garbage} after every that-many commits.  [gc_on_wall]
    (default on) runs it after every successful wall release — the
    wall-driven collection of §7.3 that keeps chains trimmed in steady
    state without a separate trigger.

    [trace] attaches a {!Hdd_obs.Trace} sink: every begin, read, write,
    block, rejection, commit, abort, wall release and garbage collection
    emits one structured record (DESIGN.md §12 catalogues the schema).
    The same sink is threaded to the {!Registry}, the {!Timewall} manager
    and every store segment.  Without it the emission sites cost one
    branch each. *)

val partition : 'a t -> Partition.t
val activity_ctx : 'a t -> Activity.ctx
val registry : 'a t -> Registry.t
val metrics : 'a t -> metrics
val wall_manager : 'a t -> Timewall.manager

val begin_update : 'a t -> class_id:int -> Txn.t
(** @raise Invalid_argument on an out-of-range class. *)

val begin_read_only : 'a t -> Txn.t

val begin_read_only_on_path : 'a t -> below:int -> Txn.t
(** Read-only transaction hosted below class [below] (§5.0): it may read
    [D_below] and any segment higher than it on a critical path. *)

val begin_adhoc_update : 'a t -> writes:int list -> reads:int list -> Txn.t
(** Ad-hoc update transaction (§7.1.1): an access pattern outside the
    analysed classification, handled *without restructuring the
    partition*.  The transaction joins every class whose segment it
    touches — so every activity-link threshold and time wall accounts for
    it while it runs — and all of its accesses execute under MVTO
    (protocol B) with read registration: it pays classical costs so the
    analysed classes keep paying none.

    The {e ad-hoc barrier}: an update transaction whose initiation
    timestamp falls inside an ad-hoc transaction's activity window is
    rejected at its first operation and restarts with a post-window
    timestamp.  Historic [I_old] thresholds place the ad-hoc transaction
    in such a reader's future while MVTO version visibility would place
    its writes in the past; admitting both views produces dependency
    cycles (found by experiment E14), so timestamps inside windows are
    forbidden.  Read-only transactions are unaffected: their wall and
    hosted thresholds are capped consistently in every segment.
    @raise Invalid_argument on an empty write set or an unknown
    segment. *)

val read : 'a t -> Txn.t -> Granule.t -> 'a Outcome.t
val write : 'a t -> Txn.t -> Granule.t -> 'a -> unit Outcome.t

val commit : 'a t -> Txn.t -> unit
(** @raise Invalid_argument if the transaction is not active. *)

val abort : 'a t -> Txn.t -> unit
(** Discards pending versions and erases the transaction's steps from the
    schedule log. *)

val release_wall : 'a t -> (Timewall.wall, Txn.id) result
(** Force a wall release attempt (Protocol C maintenance). *)

val gc_watermark : 'a t -> Time.t
(** The lowest version-selection threshold any active transaction — or
    any transaction that can still begin — may use (§7.3): current
    protocol-B timestamps, the activity links of every active updater,
    the wall components held by active read-only transactions and the
    current wall for future ones.  Equals the minimum component of
    {!gc_watermark_vector}. *)

val gc_watermark_vector : 'a t -> Time.t array
(** The per-segment refinement of {!gc_watermark}: component [s] bounds
    the thresholds usable for reads of segment [s] only, so segments no
    old straggler can reach are trimmed further than the uniform
    watermark allows.  DESIGN.md §11 gives the safety argument. *)

val collect_garbage : 'a t -> int
(** Drop versions no reachable threshold can select (each chain keeps its
    newest committed version below its segment's watermark component) and
    prune the activity registries below the scalar watermark.  Returns
    the number of versions dropped. *)

val read_threshold : 'a t -> Txn.t -> segment:int -> Time.t option
(** The version-selection threshold the scheduler would use for a read of
    the segment by this transaction — exposed for experiments (Figure 6,
    Figure 9).  [None] when the access would be rejected. *)

(** Per-class transaction activity registries.

    This is the bookkeeping that makes the activity-link machinery of §4.1
    and §5.1 computable: for every transaction class it records the
    initiation intervals of its transactions and answers the two historical
    queries the paper's functions are built from —

    - [I_old(m)] ({!i_old}): the initiation time of the oldest transaction
      of the class active at time [m], or [m] itself when none was active;
    - [C_late(m)] ({!c_late}): the latest commit time among transactions of
      the class active at [m], or [m] when none was; only *computable* once
      every transaction initiated at or before [m] has finished.

    Aborted transactions count as active until their abort instant (the
    paper's "uncommitted and un-aborted"), and their abort instant counts
    as an end time in [C_late]: the clearing time must cover every
    activity window [I_old] can see, or Property 2.1 ([A∘B >= id]) fails
    around aborts.  They still install no versions, hence create no
    dependencies.

    Transactions initiate in clock order, so each class's records arrive
    sorted by initiation time.  Queries are served from an incremental
    index — an ordered list of the transactions last seen active plus a
    dominance-pruned array of finished activity windows — so [i_old] and
    [c_late] cost O(actives + log windows) instead of a scan of the class
    log; the original scans survive as {!i_old_scan}/{!c_late_scan} for
    the benchmarks and the equivalence properties.  {!prune} drops
    finished records and windows that can no longer be queried (e.g.
    below a released time wall). *)

type t

val create : ?trace:Hdd_obs.Trace.t -> classes:int -> unit -> t
(** Registry for update classes [0 .. classes-1].  With [trace], {!prune}
    emits a [Registry_prune] record carrying the prune depth (records and
    windows dropped). *)

val register : t -> Txn.t -> unit
(** Record an update transaction at initiation, in its declared class.
    @raise Invalid_argument on a read-only transaction, an out-of-range
    class, or an initiation time not larger than the last registered one of
    that class's registry. *)

val register_in : t -> class_id:int -> Txn.t -> unit
(** Record a transaction in an explicit class, regardless of its declared
    kind — the hook for ad-hoc transactions (§7.1.1), which join *every*
    class whose segment they access so all activity-link thresholds
    account for them.  Same monotonicity requirement per class. *)

val register_active : t -> class_id:int -> id:Txn.id -> init:Time.t -> unit
(** Packed single-active fast path for the multicore engine, which runs
    at most one update transaction per class at a time: record activity
    as two ints, with no [Txn.t] allocated.  Queries account for the
    packed active exactly as for a registered transaction.
    @raise Invalid_argument if the class already has a packed active or
    [init] does not exceed the last finished window's initiation. *)

val finish_active : t -> class_id:int -> endt:Time.t -> unit
(** Close the packed active's activity window at [endt] (commit {e or}
    abort instant — aborted windows count, as with {!register}).
    Allocation-free at steady state: the window index compacts in place
    once {!prune} keeps up.
    @raise Invalid_argument if no packed active or [endt <= init]. *)

val i_old : t -> class_id:int -> at:Time.t -> Time.t
(** The paper's [I_old^{class}(m)]. *)

val c_late :
  t -> class_id:int -> at:Time.t -> (Time.t, Txn.id) result
(** The paper's [C_late^{class}(m)]; [Error id] when not yet computable
    because transaction [id] (initiated at or before [m]) is still
    active. *)

val c_late_computable : t -> class_id:int -> at:Time.t -> bool

val i_old_scan : t -> class_id:int -> at:Time.t -> Time.t
(** Reference implementation of {!i_old}: a linear scan of the class log,
    as shipped before the incremental index.  Kept as the benchmark
    ablation partner and the oracle for the equivalence property. *)

val c_late_scan :
  t -> class_id:int -> at:Time.t -> (Time.t, Txn.id) result
(** Reference implementation of {!c_late}, same role as {!i_old_scan}. *)

val generation : t -> class_id:int -> int
(** A counter that advances whenever a query against the class could
    change — on registration and whenever a member transaction is
    observed to have finished.  Monotone; equal generations mean every
    [i_old]/[c_late] answer for the class is unchanged, which is what
    lets {!Activity} cache composed thresholds across calls. *)

val active_count : t -> class_id:int -> int
(** Transactions of the class currently active. *)

val transactions : t -> class_id:int -> Txn.t list
(** Retained records, oldest first. *)

val record_count : t -> class_id:int -> int
(** Retained records (telemetry for the benchmark suite). *)

val window_count : t -> class_id:int -> int
(** Retained finished-activity windows after dominance pruning
    (telemetry for the benchmark suite). *)

(** {1 Immutable snapshots}

    A {!snapshot} freezes every class's activity state — the ordered
    actives (id, initiation) and the dominance-pruned finished-window
    arrays — into a value that shares nothing mutable with the live
    registry.  The parallel runtime publishes one per owner domain
    through an [Atomic], and a shard node decodes one from every
    publication it receives ({!read}), so cross-class threshold
    computations elsewhere are pure reads with no locks and no access
    to scan internals.  A snapshot answers exactly as the live registry
    answered at capture time: the 1000-seed equivalence properties in
    [test_runtime.ml] pin this.

    Consecutive snapshots share the frozen view of every class that did
    not change between them, so an engine publication costs the classes
    that moved, not the whole registry.  The reuse is exact: every change to a
    class's actives or windows advances its {!generation}, and pruning
    moves only the start of its window index, forwards; a view is
    reused only while both are where it was frozen. *)

type snapshot

val snapshot : t -> snapshot
(** Capture all classes.  The live registry is synced first, so the
    view reflects every finish observed so far.  A class whose
    generation and window start are unchanged since the previous
    capture reuses that capture's view; any other class costs
    O(actives + windows) copies.  Only the registry's owner may call
    it, as for every other mutation of the registry. *)

val snap_generation : snapshot -> class_id:int -> int
(** The class's {!generation} at capture time. *)

val snap_i_old : snapshot -> class_id:int -> at:Time.t -> Time.t
(** {!i_old} against the frozen view. *)

val snap_c_late :
  snapshot -> class_id:int -> at:Time.t -> (Time.t, Txn.id) result
(** {!c_late} against the frozen view. *)

val same_view : snapshot -> snapshot -> class_id:int -> bool
(** The two snapshots hold the class's one frozen view, physically:
    what the reuse above shares. *)

(** {1 The wire layout}

    A snapshot's bytes, written into and read from a
    {!Hdd_util.Binc} frame: per class, the ordered actives (id,
    initiation; oldest first), the dominance-pruned finished windows
    as (init, end) pairs, both columns strictly ascending, and the
    generation.  {!write} writes the live registry as {!snapshot}
    would freeze it at that instant, so a publication needs no frozen
    copy; {!read} decodes straight into fresh views. *)

val write : Hdd_util.Binc.writer -> t -> unit
(** The registry's classes as they stand: the same [sync] a snapshot
    runs, then each class's live log.  The bytes equal
    [write_snapshot b (snapshot t)]'s at the same instant.  Allocates
    nothing once the writer's buffer is large enough, unless a
    registered [Txn.t] finished since the last query ([sync] then
    rebuilds the pending list; the packed path never leaves one).
    Only the registry's owner may call it. *)

val write_snapshot : Hdd_util.Binc.writer -> snapshot -> unit
(** A frozen snapshot in the same layout. *)

val read : Hdd_util.Binc.reader -> snapshot
(** A snapshot from its bytes, in fresh views that share nothing.
    Validates the shape {!write} guarantees — at least one class,
    actives ascending by initiation, windows strictly ascending in both
    columns, each window's init below its end — so corrupted bytes get
    a clean failure, not a snapshot that answers nonsense.
    @raise Hdd_util.Binc.Error on a malformed snapshot or truncated
    bytes. *)

val prune : t -> upto:Time.t -> unit
(** Forget prefix records that finished at or before [upto].  Queries with
    [at < upto] become unreliable after pruning; callers pass the oldest
    time still reachable by any protocol computation (e.g. the previous
    released time wall's minimum). *)

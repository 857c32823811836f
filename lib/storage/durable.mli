(** A durable HDD database: the scheduler over a multiversion store, with
    every update logged to a {!Wal} (redo-only logging), group commit,
    checkpoints, and crash recovery that rebuilds the committed state.

    Logging discipline: writes are appended as they are granted; the
    commit record is appended — and fsynced, directly
    ([sync_on_commit]) or through the batching pipeline ([group]) —
    so a transaction {e acknowledged} as durable survives a crash.
    Recovery ({!recover}) loads the newest valid checkpoint and replays
    the log tail after it (O(tail), not O(history)), falling back to
    full-log replay when no checkpoint survives; uncommitted tails
    vanish, which is the correct outcome.  {!of_recovery} then restarts
    a scheduler on the recovered store with the clock advanced past
    every recovered timestamp, so new transactions order strictly after
    everything recovered.

    Read-only transactions are never logged: they write nothing.

    {b Group commit.}  With [group], {!commit} queues the commit frame
    in a {!Group_commit} pipeline instead of appending it inline: the
    transaction is committed in memory immediately, and its durability
    acknowledgment arrives when a batched fsync covers its frame.
    {!commit_ticket} returns the handle to poll ({!acked},
    {!ack_offset}); every other engine operation {e ticks} the
    pipeline's logical delay timer, so batches drain even on read-heavy
    workloads.

    {b Checkpoints.}  {!checkpoint} cuts a consistent snapshot at a
    released wall (the scheduler's watermark vector, clamped monotone
    against the previous cut), persists it atomically next to the log
    ({!Checkpoint}), and records the log offset the snapshot covers.
    In-flight transactions need not drain: their granted writes ride
    along in the checkpoint's pending table, so a commit record in the
    tail finds them.

    {b Fault contract} (see {!Fault} and the DESIGN.md fault-model
    section).  When the WAL sink raises {!Fault.Io_error} the failure is
    transient and the handle stays usable: a failed {!begin_update}
    leaves no transaction behind (the scheduler is rolled back), and a
    failed {!write} leaves the granted write in memory but not on disk —
    the caller must {!abort} that transaction, or recovery could lose a
    write of a committed transaction.  An exception escaping a direct
    (non-group) {!commit} means the commit was {e not acknowledged}: the
    transaction may or may not be durable, and the handle must be
    abandoned and re-opened through {!recover}.  Under [group], {!commit}
    raises only on {!Fault.Crash} (always fatal); transient trouble in
    the pipeline merely delays the acknowledgment.  A transaction whose
    ticket was never acked may or may not survive — exactly the promise
    group commit makes. *)

type t

type ticket =
  | Group of Group_commit.ticket  (** group-commit pipeline ack *)
  | Logged of int  (** direct append; durable on return.  The payload is
                       the log offset after the commit frame (0 when no
                       fault plan tracks offsets). *)
  | Readonly  (** nothing to make durable *)

type recovered = {
  store : int Hdd_mvstore.Store.t;
  last_time : Time.t;  (** largest timestamp in the recovered prefix *)
  committed : int;
  aborted : int;
  lost_uncommitted : int;  (** transactions begun but never committed *)
  log_intact : bool;  (** false when a torn/corrupt tail was dropped *)
  valid_bytes : int;  (** absolute length of the intact prefix replayed *)
  from_checkpoint : Checkpoint.meta option;
      (** the checkpoint recovery started from; [None] = full replay *)
}

val create :
  ?sync_on_commit:bool ->
  ?sink:Fault.sink ->
  ?log:Hdd_txn.Sched_log.t ->
  ?trace:Hdd_obs.Trace.t ->
  ?group:Group_commit.config ->
  ?faults:Fault.plan ->
  ?retry:Hdd_sim.Retry.policy ->
  ?metrics:Hdd_obs.Metrics.t ->
  path:string ->
  partition:Hdd_core.Partition.t ->
  unit ->
  t
(** Opens (or appends to) the log at [path] over a fresh in-memory store.
    [sync_on_commit] defaults to false: the log is flushed but not
    fsynced per commit.  [group] turns on the batching commit pipeline
    (and makes [sync_on_commit] irrelevant: fsyncs are per batch).
    [sink] (default the production file sink) carries the WAL bytes —
    the fault-injection seam; [faults] must be the plan wrapping that
    sink, and additionally arms the logical fault points of the commit
    pipeline and checkpoint writer.  [retry] and [metrics] are handed to
    the pipeline; [log] to the scheduler so the live schedule can be
    certified; [trace] to both. *)

val recover :
  ?trace:Hdd_obs.Trace.t ->
  ?use_checkpoints:bool ->
  path:string ->
  segments:int ->
  init:(Granule.t -> int) ->
  unit ->
  recovered
(** Rebuild the database at [path]: newest valid checkpoint plus log
    tail, or full-log replay with [use_checkpoints:false] (the oracle
    the torture harness compares against) or when no checkpoint loads.
    A missing file recovers as the empty database (all counters zero,
    [log_intact = true]).  With [trace], emits
    {!Hdd_obs.Trace.event.Durable_recovered} per replayed commit and
    {!Hdd_obs.Trace.event.Recovery_complete} at the end — the feed of
    the durability monitor rule. *)

val of_recovery :
  ?sync_on_commit:bool ->
  ?sink:Fault.sink ->
  ?log:Hdd_txn.Sched_log.t ->
  ?trace:Hdd_obs.Trace.t ->
  ?group:Group_commit.config ->
  ?faults:Fault.plan ->
  ?retry:Hdd_sim.Retry.policy ->
  ?metrics:Hdd_obs.Metrics.t ->
  path:string ->
  partition:Hdd_core.Partition.t ->
  recovered ->
  t
(** Continue a recovered database, appending to the same log.  When the
    recovery dropped a torn or corrupt tail, the file is first truncated
    back to [recovered.valid_bytes]: appending after dead bytes would
    strand every future record beyond the next recovery's reach. *)

val scheduler : t -> int Hdd_core.Scheduler.t
(** The underlying scheduler — use it for reads, walls and metrics; all
    writes and transaction boundaries must go through this module so the
    log stays ahead of the state. *)

val store : t -> int Hdd_mvstore.Store.t
val group : t -> Group_commit.t option

val begin_update : t -> class_id:int -> Txn.t
val begin_read_only : t -> Txn.t

val begin_adhoc_update : t -> writes:int list -> reads:int list -> Txn.t
(** Ad-hoc updates (§7.1.1) log like any other update: their writes
    carry their own timestamps, so recovery needs no special casing. *)

val read : t -> Txn.t -> Granule.t -> int Hdd_core.Outcome.t
val write : t -> Txn.t -> Granule.t -> int -> unit Hdd_core.Outcome.t

val commit : t -> Txn.t -> unit
(** [commit_ticket] with the ticket dropped — for callers that treat
    in-memory commit as enough (or poll the pipeline elsewhere). *)

val commit_ticket : t -> Txn.t -> ticket
(** Commit in the scheduler, then log: directly (appended, and fsynced
    under [sync_on_commit]) or through the group-commit pipeline.  Poll
    the ticket with {!acked}. *)

val acked : t -> ticket -> bool
(** Whether the commit behind the ticket is known durable.  [Logged]
    and [Readonly] tickets are acked by construction. *)

val ack_offset : t -> ticket -> int option
(** Log offset just after the ticket's commit frame — the durability
    horizon a recovery must reach to contain it.  [None] until acked,
    for read-only tickets, and without a fault plan (offsets are
    tracked only there). *)

val abort : t -> Txn.t -> unit
val flush : t -> unit
(** Drain the commit pipeline (appending and fsyncing anything queued)
    and flush the WAL's buffer. *)

val sync : t -> unit
(** Advance the durable horizon: drain the pipeline (group mode) or
    fsync the WAL directly.  After a clean return, {!durable_offset}
    covers everything appended — the precondition for shipping a
    just-released wall.
    @raise Fault.Io_error on a scripted transient fsync fault (direct
    mode; the group pipeline retries internally and gives up silently —
    check {!durable_offset}). *)

val close : t -> unit

val checkpoint : t -> Checkpoint.meta
(** Cut and persist a checkpoint: drain the pipeline, snapshot the
    committed store at the clamped watermark wall plus the in-flight
    write table, write data file and manifest atomically
    ({!Checkpoint.write}), and emit
    {!Hdd_obs.Trace.event.Checkpoint_cut}.  Transactions may be in
    flight.  After it returns, recovery replays only the tail past the
    recorded offset.
    @raise Fault.Io_error when a scripted transient fault hits a
    checkpoint point, or when the drain leaves commit frames queued
    behind a failed append (the cut would hold commits the log does
    not) — the checkpoint simply didn't happen; the handle stays
    usable. *)

val log_offset : t -> int
(** Current end of the log in bytes (appended, not necessarily fsynced).
    Under a fault plan this is the plan's byte counter plus the length
    at open; otherwise the flushed file size. *)

val durable_offset : t -> int
(** The fsynced horizon: bytes of log known durable — what a log
    shipper may send.  Grows at fsync granularity; 0 until the first
    fsync through this handle. *)

val in_flight : t -> int
(** Active update transactions begun through this handle. *)

(** Group commit: the batching WAL writer of the durable engine.

    Transactions commit in memory immediately; their commit frames are
    queued and appended in batches, and one fsync then covers every
    queued commit — N transactions share a durability barrier instead
    of paying one each.  Per-transaction acknowledgments stay exact: a
    {!ticket} is {!acked} only after an fsync that covers its commit
    frame succeeded, and because an fsync is a barrier over the whole
    file, any later successful round also acks survivors of earlier
    failed ones.

    The pipeline crosses a named {!Fault.point} at every stage —
    [Batch_append] per frame, [Batch_fsync] per round, [Batch_ack] at
    delivery — so fault scripts address batching boundaries stably (the
    {!Fault} module documents why ordinals no longer work).  Transient
    fsync failures retry under {!Hdd_sim.Retry} with jittered
    exponential backoff; a give-up leaves the batch appended but
    unacknowledged, to be re-synced by a later round.  Livelock is
    surfaced through the [durable.fsync_livelocked] gauge.

    Flush triggers: the queue reaching [max_batch]; {!tick}s (one per
    engine operation — the logical-time form of a delay timer) reaching
    [max_delay]; or an explicit {!flush} (checkpoint cut, close).
    [max_delay = 0] degenerates to flush-per-commit. *)

type config = { max_batch : int; max_delay : int }

val default : config
(** [{ max_batch = 8; max_delay = 16 }]. *)

type ticket = private int
(** Submission order, 1-based.  Monotone: tickets ack in order. *)

type t

val create :
  ?faults:Fault.plan ->
  ?retry:Hdd_sim.Retry.policy ->
  ?rng:Hdd_util.Prng.t ->
  ?metrics:Hdd_obs.Metrics.t ->
  ?trace:Hdd_obs.Trace.t ->
  ?offset_of:(unit -> int) ->
  config:config ->
  Wal.t ->
  t
(** [faults] must be the same plan wrapping the WAL's sink, so logical
    points and byte-level events share one crash state.  [offset_of]
    reports the log length after an append (the plan's byte counter in
    fault runs); only when it is given are offsets recorded per ticket
    for {!ack_offset}.  With [metrics], the pipeline maintains
    [durable.fsyncs], [durable.fsync_retries], [durable.fsync_giveups],
    [durable.batch_size] and the livelock gauge; with [trace], it emits
    [Sim] spans per batch and fsync round and a
    {!Hdd_obs.Trace.event.Durable_ack} per acknowledged commit.
    @raise Invalid_argument if [max_batch < 1] or [max_delay < 0]. *)

val submit : t -> txn:Txn.id -> at:Time.t -> Codec.record -> ticket
(** Queue a commit frame.  May flush (and therefore raise {!Fault.Crash}
    — fatal — or {!Fault.Io_error} — the append will be retried by a
    later flush) when the batch fills or [max_delay = 0]. *)

val tick : t -> unit
(** Advance the logical delay timer; flushes when the oldest queued (or
    unsynced) work is [max_delay] ticks old.  No-op when idle. *)

val flush : t -> unit
(** Append everything queued and run an fsync round if anything awaits
    one.  After a clean flush every submitted ticket is acked. *)

val acked : t -> ticket -> bool
val ack_offset : t -> ticket -> int option
(** Log length just after the ticket's commit frame was appended —
    the durability horizon a recovery must reach to contain it.  [None]
    until the ticket is acked, and always without [offset_of]. *)

val queued : t -> int
(** Commit frames submitted but not yet appended to the log — nonzero
    after a flush only when a transient append error stopped the batch. *)

val fsyncs : t -> int
(** Successful fsync rounds — the denominator of fsyncs-per-commit. *)

val sync_failures : t -> int

val synced_offset : t -> int
(** Log offset covered by the last successful fsync round — the durable
    horizon a log shipper may send from. *)

val livelocked : t -> bool

(** A warm in-process replica fed by log shipping, serving Protocol A/C
    reads off released time walls.

    The wire format is the log itself: a shipped batch is a raw slice of
    the primary's WAL file — only bytes the primary knows are fsynced
    ({!Durable.durable_offset}) — with one {!Codec.record.Wall} trailer
    carrying the primary's released wall vector.  The trailer is placed
    {e last}, so a batch that half-applies never advances the replica's
    wall past the records it actually holds.

    {b Consistency.}  A replica read at [ts ≤ effective_wall.(segment)]
    returns exactly what the primary's Protocol A/C read at [ts] returns:
    the shipped wall promises every commit below it is in the shipped
    prefix, and {!effective_wall} additionally clamps to the smallest
    in-flight init in the replay state, hiding the window where a ship
    boundary cut a transaction in half.  Reads above the effective wall
    are refused ([`Too_new]) — bounded staleness, never inconsistency.

    {b Fault points.}  Each send crosses [Ship_send n]; each delivery
    crosses [Ship_apply n] {e before} applying, so a transient fault
    drops the whole batch and the retry re-applies it from the top —
    safe, because replay is idempotent over committed records.  A crash
    leaves the cursor unadvanced; the resend after recovery re-applies
    the same slice, again idempotently. *)

type t

val create :
  ?trace:Hdd_obs.Trace.t ->
  segments:int ->
  init:(Granule.t -> int) ->
  unit ->
  t

val wall : t -> Time.t array
(** Received wall (componentwise maximum over batches); [[||]] until the
    first trailer arrives. *)

val effective_wall : t -> Time.t array
(** The wall reads are actually served at: the received wall clamped by
    the smallest pending (half-shipped) transaction init and by
    [last_time + 1].  The latter covers primary crashes: a wall shipped
    just before a crash can exceed every logged timestamp, and the
    recovered primary (whose clock resumes from the log) may commit
    below it — timestamps the replica must not serve until re-shipped
    records justify them. *)

val read : t -> Granule.t -> ts:Time.t -> (int, [ `Too_new | `No_wall ]) result
(** Protocol A/C read at [ts]: newest committed version strictly below.
    [`Too_new] when [ts] lies above the effective wall — the caller
    backs off and retries, exactly like a Protocol A conflict. *)

val staleness : t -> primary_wall:Time.t array -> int
(** Largest componentwise lag between the primary's wall and the
    effective wall — the bounded-staleness measure. *)

val store : t -> int Hdd_mvstore.Store.t
val records : t -> int
val stalled : t -> bool
val last_time : t -> Time.t

(** {1 The shipping side} *)

exception Stalled
(** {!ship} returned because the replica refused the batch: a frame in
    the shipped slice failed its checksum, meaning the bytes are corrupt
    on the {e primary's} disk.  Not transient — never retried. *)

type shipper

val shipper :
  ?faults:Fault.plan ->
  ?retry:Hdd_sim.Retry.policy ->
  ?rng:Hdd_util.Prng.t ->
  ?from:int ->
  log:string ->
  t ->
  shipper
(** A cursor over the primary's log file.  [faults] arms the [Ship_send]
    and [Ship_apply] points; [retry] governs backoff on transient send
    faults.  [from] (default 0) resumes a cursor — how a shipper
    reattaches to the same replica after the primary recovers. *)

val ship : shipper -> upto:int -> wall:Time.t array -> (unit, exn) result
(** Ship the log bytes [[shipped, upto)] (clamped to the file) plus the
    wall trailer, retrying transient faults with jittered exponential
    backoff.  On success the cursor advances; on give-up ([Error] of the
    transient fault), stall ([Error Stalled]) or crash it does not, and
    the next {!ship} resends the same slice (idempotent).  An empty
    slice still ships the wall — the heartbeat that lets a quiet
    primary's replica serve fresher reads.

    The replica decodes and applies a delivered batch's frames in
    order, the wall trailer last.  A corrupt or torn frame marks it
    {!stalled}: everything before the bad frame is applied, but the
    wall does not advance. *)

val shipped : shipper -> int
val sends : shipper -> int

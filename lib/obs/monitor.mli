(** Online invariant monitors: the paper's correctness claims, checked
    continuously against the {!Trace} stream instead of only by the
    offline MVSG certifier.

    A monitor subscribes to a trace and replays a shadow of the system —
    active transactions with their kinds and observed thresholds, the
    committed version timestamps of every granule, the released walls —
    and raises (or records) on the first event that contradicts one of
    the four invariants:

    + {b Protocol A/C no-wait, no-reject} (§4.2, §5.2): a read served by
      protocol A or C never blocks, and is never rejected by a protocol
      rule.  Routing rejections (specification violations) and the
      ad-hoc barrier are by design and exempt.
    + {b Wall monotonicity} (§5.1): successive released walls have
      strictly increasing anchor and release times and componentwise
      non-decreasing thresholds.
    + {b Per-segment write-timestamp ordering} (§4.2): every write
      carries its transaction's initiation timestamp, committed version
      timestamps are unique per granule, and every read returns the
      latest version the shadow store knows below its threshold — a
      version served strictly older than a committed one under the
      threshold is a timestamp-order violation.
    + {b Durability} (the durable engine's contract): a commit
      acknowledged as durable ({!Trace.event.Durable_ack}) must be
      replayed ({!Trace.event.Durable_recovered}) by every subsequent
      recovery — checked at each {!Trace.event.Recovery_complete} — and
      checkpoint cuts ({!Trace.event.Checkpoint_cut}) carry strictly
      increasing sequence numbers with componentwise non-decreasing wall
      vectors.
    + {b GC never above the watermark} (§7.3): every collection's
      per-segment threshold vector stays below what any active
      transaction could still read — its initiation time for its own
      class (and every segment for ad-hoc transactions), every
      threshold it has already used (except on the root segment of an
      escalated class, whose reads take the latest committed version
      rather than a repeatable MVTO bound), its wall's components for
      walled readers, and the current wall for readers yet to begin.  The
      shadow store is pruned with the same vector, so a collection that
      overreaches also surfaces as a stale or rejected read.
    + {b Partition epoch safety} (dynamic decomposition, DESIGN.md §17):
      {!Trace.event.Repartition} events carry strictly increasing epoch
      numbers and never land while a transaction is in flight — the wall
      barrier must have drained every worker first.  A repair with
      [fresh_store = true] retires the committed-version shadow and the
      released walls of the old epoch (segment ids changed meaning); a
      pure ownership migration keeps both.
    + {b Escalation safety} (hybrid CC, DESIGN.md §18):
      {!Trace.event.Escalation} events carry strictly increasing sequence
      numbers and never land while an update transaction of a class whose
      mode changes is in flight.  The write-timestamp rule becomes
      mode-aware: a class escalated by the newest event installs versions
      at a commit stamp strictly {e after} its initiation time, while
      non-escalated classes (and hosted / ad-hoc transactions) keep the
      exact-initiation-time rule.

    The monitor is an oracle over the event stream only: it never touches
    scheduler or store internals, so it runs identically under the
    simulator, the explorer, the torture harness and the benchmark. *)

exception Violation of string

type t

val create :
  ?raise_on_violation:bool ->
  ?wall_rule:[ `Latest | `Any_released ] ->
  ?durability_only:bool ->
  unit ->
  t
(** [raise_on_violation] (default [true]) raises {!Violation} out of the
    emitting call on the first broken invariant; with [false] violations
    accumulate and the run continues — the torture harness's mode.

    [wall_rule] (default [`Latest]) sets how a walled reader's observed
    thresholds are pinned.  [`Latest] is the serial scheduler's rule: the
    newest wall released before the reader's initiation.  [`Any_released]
    accepts the component of {e any} wall released before the reader's
    initiation — the sound relaxation for the parallel runtime, where a
    reader loads the seqlock-published wall and only then ticks its
    initiation time, so a concurrent release can slide a newer wall in
    between.

    [durability_only] (default [false]) checks only the durability
    invariant and ignores every other event — the mode for feeding one
    monitor a stream that spans crashes and recoveries, where
    transaction ids recur across sessions and the shadow-replay rules
    would misfire.  Acknowledged commits are keyed by [(txn, at)], which
    recovery's clock catch-up keeps unique across sessions. *)

val attach : t -> Trace.t -> unit

val feed : t -> Trace.record -> unit
(** Check one record directly — for replaying a merged per-domain record
    list (see {!Trace.merged}) rather than subscribing to a live ring. *)

val violations : t -> string list
(** Oldest first; empty when every event so far conformed. *)

val events_seen : t -> int
(** Events checked — a vacuity guard for tests. *)

val last_epoch : t -> int
(** Newest partition epoch a {!Trace.event.Repartition} entered; 0 when
    none has been seen. *)

val last_esc_seq : t -> int
(** Newest {!Trace.event.Escalation} sequence number; 0 when none has
    been seen. *)

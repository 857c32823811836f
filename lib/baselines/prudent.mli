(** Prudent-precedence ordering (PAPERS.md): the high-contention
    escalation target of the hybrid CC layer, also usable standalone.

    Reads never lock and never wait — each returns the latest committed
    version and records the precedence edge [reader ≺ pending
    overwriter].  Writes take an exclusive per-granule slot with
    deferred installation and collect the symmetric edge from every
    registered reader.  Serialization is enforced at the commit point:
    {!try_commit} answers [Blocked preds] while any recorded predecessor
    is still active, so the driver parks the transaction instead of
    aborting it — a read-over-pending-write race that MVTO resolves with
    a late-write reject becomes a short commit-wait here.  Mutual
    read-over races form commit-wait cycles, which surface as
    driver-level deadlocks and restart one participant.

    The discipline is written once, as the precedence {!Table}.  Two
    callers drive it: the standalone controller below, and the hybrid
    scheduler's escalated classes ([Hdd_hybrid.Hybrid_sched]), which
    bring their own store, commit stamp, schedule log and trace
    records.

    Read-only transactions of the standalone controller read a snapshot
    at their initiation time with no registrations, as in {!Mv2pl}. *)

(** The precedence table over one store: granule slots, reader lists,
    predecessor edges, deferred write buffers, commit admission, and the
    install of a buffer at one stamp.  A transaction joins when it
    begins and leaves at {!install} or {!release}; the other calls on it
    raise [Invalid_argument] outside that span. *)
module Table : sig
  type 'a t

  val create : 'a Hdd_mvstore.Store.t -> 'a t

  val metrics : 'a t -> Hdd_obs.Counters.t
  (** Reads (as [reads_b]), writes, read registrations, blocks and
      rejects; the table counts no begins, commits or aborts. *)

  val store : 'a t -> 'a Hdd_mvstore.Store.t

  val join : 'a t -> Txn.t -> unit
  val mem : 'a t -> Txn.t -> bool

  type 'a read =
    | Own of 'a  (** the transaction's own deferred write *)
    | Latest of 'a Hdd_mvstore.Chain.version
        (** the latest committed version; the caller logs it *)
    | Missing  (** no committed version (counted as a reject) *)

  val read : 'a t -> Txn.t -> Granule.t -> 'a read
  (** The transaction's own buffered write if it has one; otherwise
      registers the reader and records [reader ≺ pending overwriter]. *)

  val write : 'a t -> Txn.t -> Granule.t -> 'a -> unit Hdd_core.Outcome.t
  (** Buffers the value under the granule's exclusive slot, taking it
      (and an edge from every registered reader) when free; [Blocked [w]]
      while another transaction [w] holds it. *)

  val admit : 'a t -> Txn.t -> unit Hdd_core.Outcome.t
  (** Commit admission: [Granted ()] when every recorded predecessor has
      left the table, [Blocked live_preds] otherwise. *)

  val install : 'a t -> Txn.t -> stamp:Time.t -> (Granule.t -> unit) -> unit
  (** Commit the buffer: install and commit every deferred write at
      [stamp], oldest first, calling the hook after each granule; then
      {!release}. *)

  val release : 'a t -> Txn.t -> unit
  (** Leave the table: drop the reader registrations, the held slots and
      the buffer. *)
end

type 'a t

val create :
  ?log:Sched_log.t ->
  clock:Time.Clock.clock ->
  segments:int ->
  init:(Granule.t -> 'a) ->
  unit ->
  'a t

val metrics : 'a t -> Hdd_obs.Counters.t
val begin_txn : 'a t -> read_only:bool -> Txn.t
val read : 'a t -> Txn.t -> Granule.t -> 'a Hdd_core.Outcome.t
val write : 'a t -> Txn.t -> Granule.t -> 'a -> unit Hdd_core.Outcome.t

val try_commit : 'a t -> Txn.t -> unit Hdd_core.Outcome.t
(** Commit admission ({!Table.admit}): [Granted ()] when every recorded
    predecessor has finished, [Blocked live_preds] otherwise.  Call
    {!commit} only after a grant. *)

val commit : 'a t -> Txn.t -> unit
val abort : 'a t -> Txn.t -> unit
val store : 'a t -> 'a Hdd_mvstore.Store.t

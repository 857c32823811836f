(** Redo-only log replay: the shared state machine behind full-log
    recovery ({!Durable.recover}), checkpoint load and tail replay
    ({!Checkpoint}), and the warm replica ({!Replica}).

    Writes are appended to the log as they are granted, so a replayer
    buffers each transaction's writes and installs them — committed —
    only when it meets the transaction's commit record; an abort or a
    missing commit (a transaction the crash cut short) leaves nothing
    in the store.  Transaction ids recur across sessions, so a Begin
    record resets its id's buffer.

    Replay is idempotent over committed records: installing a version
    whose timestamp is already committed is a no-op.  That is what lets
    a replica re-apply a resent batch (the shipper crashed between
    applying and advancing its cursor) without double-installing. *)

type pending_txn = {
  class_id : int;
  init : Time.t;
  mutable writes : (Granule.t * Time.t * int) list;  (** newest first *)
}

type t = {
  store : int Hdd_mvstore.Store.t;
  pending : (Txn.id, pending_txn) Hashtbl.t;
  mutable last_time : Time.t;  (** largest timestamp seen *)
  mutable committed : int;
  mutable aborted : int;
  trace : Hdd_obs.Trace.t option;
}

val create :
  ?trace:Hdd_obs.Trace.t ->
  segments:int ->
  init:(Granule.t -> int) ->
  unit ->
  t
(** Fresh replay state over an empty store.  With [trace], every applied
    commit emits {!Hdd_obs.Trace.event.Durable_recovered} — the feed of
    the durability monitor rule. *)

val apply : t -> Codec.record -> unit
(** Apply one record.  {!Codec.record.Wall} records (ship-batch
    trailers) are ignored: the wall is connection state, not database
    state — {!Replica} interprets them. *)

val apply_all : t -> Codec.record list -> unit

val see : t -> Time.t -> unit
(** Advance [last_time]. *)

val install_writes : t -> txn:Txn.id -> (Granule.t * Time.t * int) list -> unit
(** Install a committed transaction's buffered writes (newest first),
    first occurrence per granule winning, idempotently. *)

val restore_pending :
  t -> (Txn.id * int * Time.t * (Granule.t * Time.t * int) list) list -> unit
(** Rebuild the in-flight table from a checkpoint's [pending] entries,
    [(txn, class_id, init, writes)]. *)

val lost_uncommitted : t -> int
(** Transactions begun but neither committed nor aborted. *)

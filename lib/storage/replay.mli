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

(** The in-flight table: update transactions begun and unfinished, with
    their logged writes (newest first).  Replay keeps one, and so does a
    live {!Durable} handle, whose [entries] a checkpoint persists. *)
module Inflight : sig
  type t

  type entry = Txn.id * int * Time.t * (Granule.t * Time.t * int) list
  (** [(txn, class_id, init, writes)] *)

  val create : unit -> t
  val start : t -> Txn.id -> class_id:int -> init:Time.t -> unit

  val add_write : t -> Txn.id -> Granule.t * Time.t * int -> unit
  (** Opens an entry at the write's timestamp if none is in the table. *)

  val finish : t -> Txn.id -> (Granule.t * Time.t * int) list
  (** Drop a transaction, returning its writes ([[]] if absent). *)

  val length : t -> int
  val min_init : t -> Time.t  (** [max_int] when empty *)

  val entries : t -> entry list  (** sorted *)

  val restore : t -> entry list -> unit
end

type t = {
  store : int Hdd_mvstore.Store.t;
  pending : Inflight.t;
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

val install_writes : t -> txn:Txn.id -> (Granule.t * Time.t * int) list -> unit
(** Install a committed transaction's buffered writes (newest first),
    first occurrence per granule winning, idempotently. *)

val restore_pending : t -> Inflight.entry list -> unit
(** Rebuild the in-flight table from a checkpoint's [pending] entries. *)

val lost_uncommitted : t -> int
(** Transactions begun but neither committed nor aborted. *)

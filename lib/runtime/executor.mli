(** The transaction executor: the one copy of the per-transaction
    algorithm that the multicore engine ({!Engine}) and the shard node
    ([Hdd_shard.Node]) both run (DESIGN.md §13, §15, §16) — the window
    ticks, writes buffered per key, Protocol B reads of the root
    segment at the initiation, Protocol A reads at the threshold
    {!Hdd_core.Activity.compose} folds up the critical path, Protocol C
    reads at the wall, the commit into the root segment's store (at a
    fresh stamp for an escalated class), trace records, counters,
    outcomes, timed latencies and batched publication.  The substrate
    supplies the rest.  An operation calls into it only for a read that
    {!state.stores} cannot answer, so the engine's Protocol B commit
    path allocates nothing ([Engine.alloc_probe]). *)

type op = Read of Granule.t | Write of Granule.t * int

type desc = {
  d_id : Txn.id;
  d_kind : [ `Update of int | `Read_only ];
  d_ops : op list;
  d_abort : bool;
}

(** One owner's state: a worker domain's or a shard node's. *)
type state = {
  partition : Hdd_core.Partition.t;
  stores : Hdd_mvstore.Pstore.t array;
      (** per segment: owned ones authoritative (the engine's workers
          share one array; a node caches remote segments here) *)
  trace : Hdd_obs.Trace.t option;
  c : Hdd_obs.Counters.t;
      (** commits, aborts, reads per protocol, writes, publications and
          (a shard node's) stale waits *)
  keep_outcomes : bool;
  mutable outcomes : (Txn.id * bool) list;  (** newest first *)
  publish_every : int;
  mutable since_pub : int;
  mutable wb_keys : int array;  (** the write buffer, in first-write order *)
  mutable wb_vals : int array;
  mutable wb_len : int;
  timed : bool;
  mutable lat : float array;  (** commit latencies (s), when [timed] *)
  mutable lat_n : int;
}

val state :
  partition:Hdd_core.Partition.t ->
  stores:Hdd_mvstore.Pstore.t array ->
  trace:Hdd_obs.Trace.t option ->
  keep_outcomes:bool ->
  publish_every:int ->
  timed:bool ->
  state

val published : state -> unit
(** Restart the publication batch and count a publication: every
    substrate publication calls it. *)

module type SUBSTRATE = sig
  type t

  val name : string
  (** The prefix of the [Invalid_argument] messages. *)

  val tick : t -> Time.t
  val owns : t -> int -> bool
  (** Whether a segment is held in [stores] authoritatively. *)

  val escalated : t -> int -> bool
  (** Whether a class stamps its versions at commit (DESIGN.md §18). *)

  val open_window : t -> class_id:int -> id:Txn.id -> Time.t
  (** Tick the initiation and register the class's one active
      transaction; return the initiation. *)

  val close_window : t -> class_id:int -> init:Time.t -> Time.t
  (** Tick the end and close the window; return the end. *)

  val a_i_old : t Hdd_core.Activity.i_old
  val read_remote : t -> seg:int -> key:int -> th:Time.t -> Time.t
  (** Newest version below [th] of a segment not owned here; may wait. *)

  val wall : t -> Hdd_core.Timewall.wall
  val read_walled : t -> seg:int -> key:int -> th:Time.t -> Time.t
  (** A Protocol C read at a wall component; may wait. *)

  val install : t -> state -> class_id:int -> ts:Time.t -> unit
  (** Make the write buffer, just committed to [stores.(class_id)] at
      [ts], visible to other readers before the window closes. *)

  val publish : t -> unit
  val between : t -> unit
  (** Runs after an update transaction that did not publish. *)
end

module Make (S : SUBSTRATE) : sig
  val exec : S.t -> state -> desc -> unit
  (** Run one transaction to completion.
      @raise Invalid_argument on an update writing outside its root
      segment or reading a segment its class may not read, and on a
      read-only transaction that writes. *)
end

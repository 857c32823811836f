(** One shard of the sharded engine: a single-threaded HDD node owning
    the segments of every class congruent to its id modulo the shard
    count (DESIGN.md §15).

    The node runs the multicore worker's own transaction executor
    ({!Hdd_runtime.Executor}) over its own substrate: the strided
    {!Sclock}, registration through the registry's single-active path
    ([register_active]), remote activity from the latest {e received}
    publication instead of an [Atomic] load, and one {!Wire.Delta} per
    committing update — an update writes only its root segment — sent
    before the publication that reports the commit.  Protocol C reads
    off the latest received wall.  Remote segments are served from a
    delta-replicated cache, and a read waits until the owner's
    publication shows the class {e quiescent below the threshold} and
    every delta the publication counts has been applied — which is why
    lost, late, duplicated or reordered publications can only ever add
    waiting, never admit an inconsistent read.

    Shard 0 doubles as the wall coordinator
    ({!Hdd_core.Timewall.attempt}, as in the engine): it attempts a
    release whenever its clock has moved since the last attempt and
    broadcasts each released wall.

    A node never blocks the OS thread: every wait is a
    {!Hdd_runtime.Wait.until} whose step republishes its own activity
    (so mutually waiting shards unblock each other), runs the
    caller-installed [on_wait] hook (the deterministic cluster pumps the
    other nodes there; the domain and process clusters nap), and pumps
    its own transport.  A wait that outlasts the budget raises the
    engine's {!Hdd_runtime.Wait.Stalled}, with [waiter = "shard N"]. *)

type config = {
  traced : bool;
  publish_every : int;
      (** publish activity once per this many finished update
          transactions (clamped to >= 1; default 1 = per commit).
          Version deltas still ship at every commit, and any wait
          republishes unconditionally, so batching delays only how
          soon idle peers see refreshed activity intervals — outcomes
          are identical at every value (the batching-identity test
          checks K = 1, 8 and 64). *)
}

val default_config : config

type t

val create :
  ?config:config ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  net:Transport.t ->
  unit ->
  t
(** Shard id and shard count come from [net].  Shard 0 becomes the
    wall coordinator.  Every node starts from the same wall (m = 1,
    released at 0, all components 1 — sound because a stale wall only
    under-serves). *)

val now : t -> Time.t

val set_on_wait : t -> (unit -> unit) -> unit
(** The hook each turn of a wait runs between republishing and pumping
    (default: nothing). *)

val pump : t -> unit
(** Drain the transport: apply publications, deltas and walls, answer
    2PC lock/read traffic, queue [Exec] work; then (shard 0) attempt a
    wall release. *)

val publish : t -> unit
(** Broadcast the current activity publication: a [Pub] naming the
    live registry and delta marks, written into each frame as they
    stand at its send ({!Transport}). *)

val publish_final : t -> unit
(** Broadcast with unbounded coverage ([upto = max_int]) — only legal
    once this node will never register another transaction. *)

val exec : t -> Hdd_runtime.Engine.desc -> unit
(** Run one transaction to completion (may wait inside).
    @raise Hdd_runtime.Wait.Stalled if a wait outlasts the budget. *)

val read_2pc : t -> segment:int -> key:int -> Time.t * int
(** The 2PC-read baseline: lock, read, unlock at the owner — three
    round trips per cross-shard read, against HDD's zero.  Counted as a
    protocol-A read in the stats.  Local segments are served
    directly. *)

val commit_local : t -> segment:int -> key:int -> value:int -> unit
(** Install one committed version into an own segment, no registry, no
    replication — the 2PC baseline's write path (its reads go to the
    owner, so it ships nothing).  Deliberately cheaper than the HDD
    commit path: a conservative baseline.
    @raise Invalid_argument on a segment this shard does not own. *)

val take_work : t -> Hdd_runtime.Engine.desc option
(** Next queued [Exec] descriptor (process mode). *)

val drained : t -> bool
(** A [Drain] message arrived: no more [Exec]s are coming. *)

val bye_seen : t -> bool
(** The router said goodbye (process mode shutdown). *)

val outcomes : t -> (Txn.id * bool) list
val records : t -> Hdd_obs.Trace.record list
val stats : t -> Hdd_obs.Counters.t
(** The executor's counts and the wall releaser's, summed: a fresh
    record. *)

val counters : t -> Wire.counters
(** The executor's counts and the wall releaser's, in the [Outcome]
    frame's layout. *)

(** Time walls (§5.1–§5.2), and the release rule of every engine.

    A time wall [TW(m,s)] is the vector of extended-activity-link values
    [E_s^i(m)] over all classes: a frontier such that no direct dependency
    runs from a transaction on the old side to one on the new side
    (Lemma 2.1).  Protocol C serves a read-only transaction the latest
    committed versions below the components of the most recent wall
    released before its initiation — no read timestamps, no waiting.

    When the class hierarchy is a forest, dependencies never cross
    components, so each component gets its own start class (a lowest one)
    and the wall is assembled per component.

    The serial scheduler's {!manager} anchors each wall at a fresh tick
    over its live registry.  The concurrent coordinators — the multicore
    engine's caller-side poll and shard 0 of the sharded engine — call
    {!attempt} instead, with their own {!Activity} lookups; the
    anchor, the composition, the stability check and the release
    bookkeeping live here once. *)

type wall = private {
  s : int;  (** start class of the primary component *)
  m : Time.t;  (** wall anchor time *)
  components : Time.t array;  (** [E_s^i(m)] per class [i] *)
  released_at : Time.t;  (** [RT(TW)] *)
}

val threshold : wall -> class_id:int -> Time.t

val to_vector : wall -> Time.t array
(** A defensive copy of the component vector — what checkpoints persist
    and log shipping sends alongside a batch. *)

val make :
  s:int -> m:Time.t -> components:Time.t array -> released_at:Time.t -> wall
(** Assemble a wall from its parts, e.g. decoded off the wire.  The
    array is copied. *)

val compute :
  Activity.ctx -> m:Time.t -> (Time.t array, Txn.id) result
(** One attempt at building the component vector anchored at [m]; [Error
    id] when a [C^late] along some undirected path is not yet computable
    because [id] is still active — the caller retries after that
    transaction finishes. *)

(** {1 Releasing walls} *)

type coordinator = private {
  partition : Partition.t;
  starts : int array;  (** per class, the start of its component *)
  primary : int;  (** [s] of every wall: the first lowest class *)
  trace : Hdd_obs.Trace.t option;
  mutable last_m : Time.t;  (** anchor of the last wall {!attempt} released *)
  c : Hdd_obs.Counters.t;
      (** [wall_releases], [wall_lag_sum] and [wall_lag_max] of the walls
          it released; a concurrent engine's coordinator counts its
          barriers here too *)
}
(** A wall releaser's state.  With [trace], every wall it releases, and
    its {!initial} wall, emits a [Wall_release] record (anchor, release
    time and a copy of the component vector). *)

val coordinator : ?trace:Hdd_obs.Trace.t -> Partition.t -> coordinator

val initial : coordinator -> m:Time.t -> released_at:Time.t -> wall
(** The wall a run starts from, components all [m] — sound on a system
    with no version above the bootstrap below [m].  Traced, not
    counted. *)

exception Stale
(** Raised by a lookup that cannot answer yet: the publication it
    answers from does not cover the argument. *)

val attempt :
  coordinator -> 's Activity.i_old -> 's Activity.c_late -> 's ->
  q:Time.t array -> tick:(unit -> Time.t) -> wall option
(** One release attempt of a concurrent coordinator.  [q.(i)] is class
    [i]'s quiescence point: every member initiated below it has finished
    and is visible to readers.  The wall is anchored at [m = min q] and
    composed through the lookups; it is released, at [tick ()], only if
    no component exceeds its class's [q] (a component above [q.(i)]
    could admit a version a class-[i] straggler has yet to publish).
    [None] when [m] does not pass the last anchor ([last_m]), when every [q]
    is [max_int] (every class has published its last), when a [C^late]
    is not computable or when a lookup raises {!Stale}. *)

(** {1 The serial scheduler's walls} *)

type manager

val create :
  ?trace:Hdd_obs.Trace.t -> Activity.ctx -> clock:Time.Clock.clock -> manager
(** Also releases an initial wall (trivially computable on an idle
    system) so read-only transactions always find one.  With [trace],
    every release emits a [Wall_release] record and every failed attempt
    emits [Wall_blocked] naming the transaction in the way. *)

val try_release : manager -> (wall, Txn.id) result
(** Anchor a new wall at a fresh current time and release it if
    computable. *)

val latest_before : manager -> Time.t -> wall option
(** The wall with maximal release time strictly before the given instant —
    the rule of Protocol C.  [None] only if even the initial wall was
    released later than the instant. *)

val current : manager -> wall
(** Most recently released wall. *)

val released : manager -> wall list
(** All released walls, oldest first. *)

val release_count : manager -> int

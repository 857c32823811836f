(** The activity link function [A], its backward inverse [B], and the
    extended function [E] (§4.1, §5.1) — written once for every engine.

    All three map logical times to logical times by composing the two
    registry queries along the (undirected) critical path of the class
    hierarchy:

    - [A_i^j(m)]: going *up* a critical path [T_i -> T_k -> … -> T_j],
      successively take the initiation time of the oldest active
      transaction — [I_j^old(… I_k^old(m) …)].  Protocol A reads segment
      [D_j] below this threshold.
    - [B_j^i(m)]: going back *down*, successively take the latest commit
      time — [C_i^late(… C_k^late(m) …)].  Only computable once every
      involved class has no straggler older than the argument; the paper's
      Properties 2.1/2.2 make [B] the inverse of [A] up to epsilon.
    - [E_s^i(m)]: along the unique *undirected* critical path from [T_s]
      to [T_i], apply [I^old] across forward (upward) arcs and [C^late]
      across backward (downward) arcs.  Time walls are vectors of [E]
      values.

    The two compositions, {!compose} and {!walk}, take the registry
    queries as {e lookups}: closed functions applied to a source passed
    beside them.  {!Registry.i_old} over the live registry and
    {!Registry.snap_i_old} over a snapshot are lookups as they stand;
    the multicore engine answers from its owner's registry or the
    activity boards, and the shard node from its registry or a received
    publication.  Each engine supplies only its lookup, never the rule.
    The serial functions below are the compositions over a live
    {!ctx}. *)

type 's i_old = 's -> class_id:int -> at:Time.t -> Time.t
(** A source's [I_class^old(at)]. *)

type 's c_late = 's -> class_id:int -> at:Time.t -> (Time.t, Txn.id) result
(** A source's [C_class^late(at)]; [Error id] while transaction [id]
    keeps it from being computable. *)

val compose :
  's i_old -> 's -> Partition.t -> from_class:int -> to_class:int ->
  Time.t -> Time.t
(** [compose i_old src partition ~from_class ~to_class m] is
    [A_{from}^{to}(m)]: [I_old] folded up the critical path
    [[from; …; to]], at every class but [from].  Allocates nothing
    beyond what the lookup does.
    @raise Invalid_argument when no critical path joins the classes. *)

val walk :
  's i_old -> 's c_late -> 's -> Partition.t -> int list -> Time.t ->
  (Time.t, Txn.id) result
(** [walk i_old c_late src partition path m] steps along [path]: [I_old]
    at the target of each up-arc, [C_late] at the source of each
    down-arc.  Along a unique undirected critical path this is [E]; down
    a reversed critical path it is [B].  The first [Error] stops it. *)

type pair_cache
(** Per-(class-pair) cache of composed [A] values, stamped with the
    registry generations of the classes along the path so entries go
    stale exactly when a relevant class log advances. *)

type ctx = {
  partition : Partition.t;
  registry : Registry.t;
  cache : pair_cache;
}

val make_ctx : Partition.t -> Registry.t -> ctx

val i_old : ctx -> class_id:int -> Time.t -> Time.t
(** [I_class^old(m)] — re-exported for experiments and tests. *)

val c_late : ctx -> class_id:int -> Time.t -> (Time.t, Txn.id) result

val a_fn : ctx -> from_class:int -> to_class:int -> Time.t -> Time.t
(** [A_{from}^{to}(m)]: {!compose} over the live registry behind the
    cache.  When [from = to] this is the identity (used by the
    fictitious-class hosting of §5.0).
    @raise Invalid_argument when no critical path joins the classes. *)

val a_fn_trace :
  ctx -> from_class:int -> to_class:int -> Time.t -> (int * Time.t) list
(** The successive [(class, I_old value)] pairs of the composition, for
    the Figure 6 experiment, recorded by the lookup.  First element is
    [(from_class, m)]. *)

val b_fn :
  ctx -> from_class:int -> to_class:int -> Time.t -> (Time.t, Txn.id) result
(** [B_{to}^{from}(m)] where the critical path runs [from -> … -> to]:
    maps a time at the *top* class [to] back down to the bottom class
    [from].  [Error id] when some [C^late] along the way is not yet
    computable because transaction [id] is still active.
    @raise Invalid_argument when no critical path joins the classes. *)

val e_fn : ctx -> s:int -> i:int -> Time.t -> (Time.t, Txn.id) result
(** [E_s^i(m)] along the UCP.
    @raise Invalid_argument when the classes are in different components
    of the hierarchy. *)

(** SDD-1-style conflict-analysis concurrency control (Bernstein80's
    conflict-graph analysis, simplified to a centralized setting) — the
    second column of the paper's Figure 10.

    Like HDD, it exploits a-priori transaction analysis instead of
    per-granule registration: transaction classes declare which segments
    they read and write, and classes whose access sets conflict are forced
    to execute in timestamp order.  An operation on segment [s] waits until
    every *older active* transaction in a class that conflicts on [s] has
    finished ("serialized pipelining"); within a class, transactions
    pipeline in timestamp order.  Reads are therefore never registered —
    but, unlike HDD's Protocol A, they *can block*, which is exactly the
    contrast Figure 10 records.  Waiting is only ever for older
    transactions, so the protocol is deadlock-free.

    The class universe is a validated HDD partition so that workloads run
    unchanged across controllers; the protocol itself uses nothing but the
    read/write segment sets. *)

type 'a t

val create :
  ?log:Sched_log.t ->
  clock:Time.Clock.clock ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> 'a) ->
  unit ->
  'a t

val metrics : 'a t -> Hdd_obs.Counters.t

val begin_txn : 'a t -> class_id:int -> Txn.t
(** @raise Invalid_argument on an out-of-range class. *)

val begin_adhoc : ?updates:bool -> 'a t -> Txn.t
(** An ad-hoc transaction: SDD-1 gives it no special handling, so it
    joins a synthetic class whose declared access set covers every
    segment — conflict analysis then orders every writer against it.
    With [updates] (default false) the transaction may also write, and
    conflict analysis additionally orders every younger {e reader}
    behind it; without it the member is read-only and readers pass. *)

val read : 'a t -> Txn.t -> Granule.t -> 'a Hdd_core.Outcome.t
val write : 'a t -> Txn.t -> Granule.t -> 'a -> unit Hdd_core.Outcome.t
val commit : 'a t -> Txn.t -> unit
val abort : 'a t -> Txn.t -> unit

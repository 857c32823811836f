(** Multi-version timestamp ordering (Reed78) without hierarchy: the
    protocol the paper's Protocol B restricts to root segments, here
    applied to every access.

    Reads take the latest version below the transaction's timestamp and
    *register a read timestamp on it*; a read whose version is still
    pending waits for the writer; a write whose would-be predecessor has
    been read by a younger transaction is rejected.  Contrast with the HDD
    scheduler, which performs none of this bookkeeping on cross-class
    reads. *)

type 'a t

val create :
  ?log:Sched_log.t ->
  clock:Time.Clock.clock ->
  segments:int ->
  init:(Granule.t -> 'a) ->
  unit ->
  'a t

val metrics : 'a t -> Hdd_obs.Counters.t
val begin_txn : 'a t -> Txn.t
val read : 'a t -> Txn.t -> Granule.t -> 'a Hdd_core.Outcome.t
val write : 'a t -> Txn.t -> Granule.t -> 'a -> unit Hdd_core.Outcome.t
val commit : 'a t -> Txn.t -> unit
val abort : 'a t -> Txn.t -> unit
val store : 'a t -> 'a Hdd_mvstore.Store.t

(** No concurrency control at all: reads and writes go straight to the
    single-version store.  Exists to reproduce Figure 1 — the lost-update
    anomaly that motivates the whole subject — and to measure the raw cost
    floor of the substrate.  Never blocks, never rejects, and certifies as
    non-serializable on the slightest conflict. *)

type 'a t

val create :
  ?log:Sched_log.t ->
  clock:Time.Clock.clock ->
  init:(Granule.t -> 'a) ->
  unit ->
  'a t

val metrics : 'a t -> Hdd_obs.Counters.t
val begin_txn : 'a t -> Txn.t
val read : 'a t -> Txn.t -> Granule.t -> 'a Hdd_core.Outcome.t
val write : 'a t -> Txn.t -> Granule.t -> 'a -> unit Hdd_core.Outcome.t
val commit : 'a t -> Txn.t -> unit
val abort : 'a t -> Txn.t -> unit

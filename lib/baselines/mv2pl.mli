(** Multi-version two-phase locking (Chan82-style), the third column of the
    paper's Figure 10.

    Update transactions run strict 2PL with deferred writes: writes are
    buffered and installed as versions stamped with the commit instant, so
    the version order on a granule matches the commit order the locks
    enforce.  Read-only transactions set no locks and never block or get
    rejected: each reads the latest versions committed before its start —
    the special treatment Chan's method gives them.  Updaters still
    register a read lock per read, which is the contrast with HDD the
    comparison table draws. *)

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
val commit : 'a t -> Txn.t -> unit
val abort : 'a t -> Txn.t -> unit
val store : 'a t -> 'a Hdd_mvstore.Store.t

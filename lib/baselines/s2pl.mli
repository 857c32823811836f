(** Strict two-phase locking (Eswaran/Gray), the paper's first classical
    comparator.

    Shared/exclusive granule locks held to commit; *every read sets a read
    lock* — the registration overhead the paper attacks.  The controller
    answers lock requests immediately: a conflicting request returns
    [Blocked holders] and the driver retries once those transactions
    finish (drivers detect waits-for deadlocks and restart a victim; a
    transaction here never blocks while holding nothing it must give up,
    so driver-side detection is complete).

    Writes are applied in place with an undo image ({!Hdd_mvstore.Sv_store}),
    which strictness makes safe: no other transaction ever observes an
    uncommitted value.  The locks are {!Lock_table}'s, which MV2PL drives
    too. *)

type 'a t

val create :
  ?log:Sched_log.t ->
  ?read_locks:bool ->
  clock:Time.Clock.clock ->
  init:(Granule.t -> 'a) ->
  unit ->
  'a t
(** [read_locks] (default true).  [false] reproduces the crippled variant
    of the paper's Figure 3: reads return the current value without
    locking or registration, which admits non-serializable schedules —
    the counter-example experiment relies on it. *)

val metrics : 'a t -> Hdd_obs.Counters.t

val begin_txn : 'a t -> read_only:bool -> Txn.t
(** 2PL does not distinguish read-only transactions: the flag is ignored,
    and every transaction is a class-0 update record ([Txn.Update 0]). *)

val read : 'a t -> Txn.t -> Granule.t -> 'a Hdd_core.Outcome.t
val write : 'a t -> Txn.t -> Granule.t -> 'a -> unit Hdd_core.Outcome.t
val commit : 'a t -> Txn.t -> unit
val abort : 'a t -> Txn.t -> unit

val lock_count : 'a t -> int
(** Currently held locks, across all granules (for tests). *)

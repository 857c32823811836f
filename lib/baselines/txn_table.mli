(** The transaction bookkeeping every baseline controller shares, so
    that each controller holds only its protocol's decisions: ids and
    initiation ticks on the controller's clock, the table of live
    transactions with each one's protocol state, commit and abort
    stamping, the schedule log and the {!Hdd_obs.Counters} record. *)

type 's t
(** The live transactions, each with a protocol state ['s]. *)

val create :
  ?log:Sched_log.t ->
  ?metrics:Hdd_obs.Counters.t ->
  name:string ->
  clock:Time.Clock.clock ->
  unit ->
  's t
(** [name] prefixes the unknown-transaction error.  The table counts
    into [metrics] when given (a protocol table that already counts
    accesses), into a fresh record otherwise. *)

val metrics : 's t -> Hdd_obs.Counters.t
val tick : 's t -> Time.t

val begin_txn : 's t -> kind:Txn.kind -> 's -> Txn.t
(** A fresh id, initiated at a fresh tick, live with the given state. *)

val state : 's t -> Txn.t -> 's
(** @raise Invalid_argument ["<name>: unknown transaction <id>"] unless
    the transaction is live. *)

val reading : 's t -> Txn.t -> 's
val writing : 's t -> Txn.t -> 's
(** {!state}, counting one read or one write. *)

val fold : (Txn.t -> 's -> 'acc -> 'acc) -> 's t -> 'acc -> 'acc
(** Over the live transactions, in no particular order. *)

val register : 's t -> unit
(** Count a read registration. *)

val block : 's t -> Txn.id list -> 'a Hdd_core.Outcome.t
val reject : 's t -> string -> 'a Hdd_core.Outcome.t
(** [Blocked] and [Rejected], counted. *)

val log_read : 's t -> Txn.t -> Granule.t -> Time.t -> unit
val log_write : 's t -> Txn.t -> Granule.t -> Time.t -> unit
(** Append a step, naming the version by its write stamp. *)

val commit : ?at:Time.t -> 's t -> Txn.t -> unit
(** Commit at [at] (default a fresh tick) and leave the table. *)

val abort : 's t -> Txn.t -> unit
(** Drop the transaction's logged steps, abort at a fresh tick and leave
    the table. *)

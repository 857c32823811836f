(** Basic timestamp ordering (Bernstein80), the paper's second classical
    comparator, in its strict single-version form.

    Every access is checked against the granule's read/write timestamp
    registers: a read below the write stamp or a write below the read
    stamp is rejected and the transaction restarts with a fresh timestamp.
    *Every granted read writes the read register* — the registration the
    paper attacks.  Strictness: a granule with an uncommitted in-place
    write blocks other transactions until the writer finishes, so no dirty
    value is ever observed and aborts never cascade. *)

type 'a t

val create :
  ?log:Sched_log.t ->
  ?thomas_write_rule:bool ->
  ?read_timestamps:bool ->
  clock:Time.Clock.clock ->
  init:(Granule.t -> 'a) ->
  unit ->
  'a t
(** [thomas_write_rule] (default false) turns a write below the granule's
    write stamp into a no-op instead of a rejection.  [read_timestamps]
    (default true) set to [false] reproduces the crippled variant of the
    paper's Figure 4: reads stop writing the read register, so later
    writes cannot detect them and non-serializable schedules slip
    through. *)

val metrics : 'a t -> Hdd_obs.Counters.t
val begin_txn : 'a t -> Txn.t
val read : 'a t -> Txn.t -> Granule.t -> 'a Hdd_core.Outcome.t
val write : 'a t -> Txn.t -> Granule.t -> 'a -> unit Hdd_core.Outcome.t
val commit : 'a t -> Txn.t -> unit
val abort : 'a t -> Txn.t -> unit

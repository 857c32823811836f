(** Transaction records.

    A transaction carries its identifier, the class it belongs to (the
    paper's transaction classification, §3.2 — read-only transactions have
    no class), its initiation time [I(t)] and, once finished, its commit or
    abort time.  Records are mutable: the scheduler transitions their
    status; everything else is frozen at creation. *)

type id = int

type kind =
  | Update of int  (** member of update class [Ti]; the int is [i] *)
  | Read_only

type status =
  | Active
  | Committed of Time.t  (** [C(t)] *)
  | Aborted of Time.t

type t = {
  id : id;
  kind : kind;
  init : Time.t;  (** [I(t)] *)
  mutable status : status;
}

val bootstrap : t
(** The fictitious transaction 0 that wrote every initial version at time
    zero and committed at time zero.  Gives every granule a first version
    and the dependency graph a root. *)

val make : id:id -> kind:kind -> init:Time.t -> t
val is_update : t -> bool
val class_of : t -> int option
val is_active : t -> bool
val is_committed : t -> bool

val end_time : t -> Time.t option
(** Commit or abort instant; [None] while active. *)

val active_at : t -> Time.t -> bool
(** [active_at t m]: the paper's "uncommitted and un-aborted at [m]" with
    its strict boundary convention — [I(t) < m] and end time [> m].  The
    strictness at initiation is load-bearing: Properties 2.1/2.2 of the
    activity-link machinery fail at boundary instants under an inclusive
    reading. *)

val commit : t -> at:Time.t -> unit
(** @raise Invalid_argument if not active or [at <= init]. *)

val abort : t -> at:Time.t -> unit
(** @raise Invalid_argument if not active or [at <= init]. *)

val pp : Format.formatter -> t -> unit

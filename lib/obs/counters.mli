(** The one counter record: every engine counts the paper's costs under
    the same names (DESIGN.md §12).  The serial scheduler, each
    baseline's transaction, lock and precedence tables, each executor
    state (an engine worker or a shard node) and each wall releaser own
    one and count into it in place, single-writer; a run's total is
    their {!add}.  A field an owner has no use for stays 0. *)

type t = {
  mutable begins : int;  (** transactions begun, restarts included *)
  mutable committed : int;
  mutable aborted : int;
  mutable reads_a : int;  (** cross-class reads served by Protocol A *)
  mutable reads_b : int;
      (** root-segment reads served by Protocol B; a baseline, which has
          no protocol split, counts every read here *)
  mutable reads_c : int;  (** read-only reads served by Protocol C *)
  mutable writes : int;
  mutable read_registrations : int;
      (** read locks set or read timestamps written — the overhead the
          paper sets out to remove (Figure 10) *)
  mutable blocks : int;
  mutable rejects : int;
  mutable publications : int;  (** activity/store publications *)
  mutable stale_waits : int;  (** waits for a remote publication (shard node) *)
  mutable wall_releases : int;
  mutable wall_lag_sum : int;  (** sum of [released_at - m] in clock ticks *)
  mutable wall_lag_max : int;
  mutable repartitions : int;
      (** live ownership migrations applied behind a park barrier *)
  mutable escalations : int;
      (** live per-class CC mode swaps applied behind the same barrier
          (DESIGN.md §18) *)
}

val create : unit -> t
(** All zero. *)

val copy : t -> t

val add : t -> t -> t
(** A fresh record: the fieldwise sum, except [wall_lag_max], the
    larger of the two. *)

val diff : t -> t -> t
(** [diff later earlier]: a fresh record of what [later] counted since
    [earlier] was copied from the same owner; [wall_lag_max] is
    [later]'s. *)

val reads : t -> int
(** [reads_a + reads_b + reads_c]. *)

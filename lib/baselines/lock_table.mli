(** Shared/exclusive granule locks held to the end of the transaction:
    the lock table strict 2PL and MV2PL both drive.  A request is
    answered at once: [[]] when granted, otherwise the conflicting
    holders, newest first, for the caller to wait on. *)

type t

val create : Hdd_obs.Counters.t -> t
(** Counts into the given record: a read registration per shared lock
    set, a block per refused request. *)

val shared : t -> Txn.id -> Granule.t -> Txn.id list
(** A read lock: granted unless another transaction holds the granule
    exclusively; a lock the transaction already holds is granted without
    a registration. *)

val exclusive : t -> Txn.id -> Granule.t -> Txn.id list
(** A write lock, or the upgrade of the transaction's own read lock:
    granted when no other transaction holds the granule. *)

val release : t -> Txn.id -> unit
(** Every lock the transaction holds. *)

val count : t -> int
(** Locks currently held, across all granules. *)

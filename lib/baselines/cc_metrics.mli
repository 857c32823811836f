(** Counters shared by all baseline controllers, mirroring the cost model
    of the paper's comparison (Figure 10): how many read accesses had to be
    registered (read lock set or read timestamp written), how many blocked,
    how many were rejected. *)

type t = {
  mutable begins : int;
  mutable commits : int;
  mutable aborts : int;
  mutable reads : int;
  mutable writes : int;
  mutable read_registrations : int;
  mutable blocks : int;
  mutable rejects : int;
}

val create : unit -> t

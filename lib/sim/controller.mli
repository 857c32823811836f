(** The uniform face every concurrency controller shows the simulator:
    first-class operations plus cumulative counters.  One driver then runs
    the HDD scheduler and every baseline over identical workloads —
    Figure 10's comparison as measurement instead of a table of
    adjectives. *)

type kind =
  | Update of int
  | Read_only
  | Adhoc of { writes : int list; reads : int list }
      (** an update transaction outside the analysed classification
          (§7.1.1), declared by its segment-level access sets *)
(** How the workload declares a transaction. *)

type t = {
  name : string;
  begin_txn : kind -> Txn.t;
  read : Txn.t -> Granule.t -> int Hdd_core.Outcome.t;
  write : Txn.t -> Granule.t -> int -> unit Hdd_core.Outcome.t;
  commit : Txn.t -> unit;
  abort : Txn.t -> unit;
  try_commit : (Txn.t -> unit Hdd_core.Outcome.t) option;
      (** commit admission, for controllers that may delay the commit
          point itself (prudent-precedence commit-waits).  [Granted ()]
          means the driver may call {!commit} now; [Blocked preds] parks
          the transaction until its predecessors finish; [Rejected]
          restarts it.  [None]: commits are always admissible. *)
  snapshot : unit -> Hdd_obs.Counters.t;
      (** a copy of the controller's cumulative counts *)
}

val pp_kind : Format.formatter -> kind -> unit

val with_hooks :
  ?on_begin:(kind -> Txn.t -> unit) ->
  ?on_read:(Txn.t -> Granule.t -> int Hdd_core.Outcome.t -> unit) ->
  ?on_write:(Txn.t -> Granule.t -> unit Hdd_core.Outcome.t -> unit) ->
  ?on_finish:(Txn.t -> commit:bool -> unit) ->
  t ->
  t
(** Deterministic observation hooks around every concurrency-control
    decision point, with no change in behaviour: the schedule-space
    explorer and the conformance properties use them to watch a
    controller decide without instrumenting the controller itself.
    Finish hooks fire just {e before} the commit/abort reaches the
    controller, so the observed transaction is still active. *)

(** The schedule-space explorer: every interleaving of a small bounded
    workload, driven through any {!Hdd_sim.Controller.t} and certified
    against the one ground truth, {!Hdd_core.Certifier}.

    A workload here is a handful of straight-line transaction programs
    (begin, a fixed op sequence, commit).  The explorer owns the
    scheduling decision the simulator normally makes randomly: at every
    decision point it branches over each runnable program, replaying the
    prefix into a fresh controller instance per branch (controllers are
    mutable and cannot be snapshotted).  Blocked operations park the
    program until every blocker finishes, and so does a commit the
    controller's [try_commit] does not yet admit.  Rejected operations
    and refused commits abort the program (the paper's formalism has no
    restarts, and the certifier judges committed work only); a global
    deadlock aborts every parked program and the schedule completes
    with the committed subset.

    With [prune] on (the default), sleep sets [Godefroid 1996] cut the
    tree to one representative per Mazurkiewicz trace: two steps of
    different programs are independent when both are data operations and
    they touch different granules (or are both reads).  Every controller
    here decides an access from per-granule state plus begin/commit
    history alone, so independent steps commute — same outcomes, same
    schedule log up to reordering of independent entries, hence the same
    dependency graph and the same verdict.  Begins and finishes are
    conservatively dependent on everything (they move timestamps, locks
    and time walls).  [prune:false] enumerates every interleaving
    literally; the test suite cross-checks that both modes see the same
    set of behaviours. *)

module Controller = Hdd_sim.Controller
module Certifier = Hdd_core.Certifier
module Partition = Hdd_core.Partition

type op = Read of Granule.t | Write of Granule.t * int

type prog = {
  label : string;
  kind : Controller.kind;
  ops : op list;
}

type workload = {
  name : string;
  partition : Partition.t;
  init : Granule.t -> int;
  progs : prog list;
}

val total_steps : workload -> int
(** Begin + ops + finish over all programs: the length of a block-free
    complete schedule. *)

val label : workload -> int -> string
(** The label of the program at an index. *)

(** A controller family the explorer can instantiate afresh for every
    interleaving. *)
type system = {
  sys_name : string;
  build : log:Sched_log.t -> workload -> Controller.t;
}

val hdd : system

val hdd_traced : ?wall_every_commits:int -> Hdd_obs.Trace.t -> system
(** HDD with the given trace sink attached and walls released every
    [wall_every_commits] (default 2) commits, so small scenarios exercise
    wall and GC events.  Use with {!run_schedule}: [explore] builds a
    fresh controller per branch, which restarts transaction ids and
    confuses monitors subscribed to the shared trace. *)

val hdd_observed : unit -> system
(** HDD with the same knobs as {!hdd} plus a fresh full observability
    stack (enabled trace, metrics bridge, monitor raising
    {!Hdd_obs.Monitor.Violation}) per controller build — the subject of
    the observability-invisibility property. *)

val all_systems : system list
(** [Harness.all] as systems: HDD, the full-strength baselines
    ([Prudent] among them), the Figure 3/4 cripples and NoCC. *)

val system : string -> system
(** Look up by {!Hdd_sim.Harness.spec_name}.  @raise Failure on an
    unknown name. *)

type action = Begin | Finish | Access of op

type event = {
  ev_prog : int;  (** program index in [workload.progs] *)
  ev_txn : Txn.id;
  ev_action : action;
  ev_outcome : [ `Ok | `Blocked of Txn.id list | `Rejected of string ];
}

type trial = {
  t_schedule : int list;  (** the effective choice sequence, one program
                              index per executed step *)
  t_events : event list;  (** in execution order *)
  t_committed : int list;  (** program indices *)
  t_aborted : int list;
  t_deadlock : bool;  (** some programs were deadlock-aborted at the end *)
  t_verdict : Certifier.verdict;
}

val run_schedule : ?quiesce:bool -> system -> workload -> int list -> trial
(** Replay one fixed choice sequence against a fresh controller.  The
    replay is tolerant: out-of-range or currently-unrunnable choices are
    skipped, so any int list is a valid schedule — the property harness
    and the shrinker rely on this.  With [quiesce] (default true) the
    remaining programs are driven to completion lowest-index-first after
    the explicit choices run out. *)

type summary = {
  sum_system : string;
  sum_workload : string;
  schedules : int;  (** complete interleavings executed *)
  pruned : int;  (** branch choices skipped by sleep sets *)
  serializable : int;
  anomalies : int;  (** trials whose committed schedule failed to certify *)
  deadlocks : int;
  rejections : int;  (** trials with at least one rejected program *)
  examples : trial list;  (** the first few anomalous trials *)
  capped : bool;  (** true when [max_schedules] stopped the walk early *)
}

val explore :
  ?prune:bool ->
  ?max_schedules:int ->
  ?max_examples:int ->
  ?on_trial:(trial -> unit) ->
  system ->
  workload ->
  summary
(** Walk the whole schedule space ([max_schedules] default 500_000,
    [max_examples] default 3).  [on_trial] sees every completed trial —
    the cross-check tests use it to compare pruned and exhaustive
    behaviour sets. *)

val pp_event : workload -> Format.formatter -> event -> unit
val pp_trial : workload -> Format.formatter -> trial -> unit

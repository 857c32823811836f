(** The multicore parallel execution engine: one domain per group of
    transaction classes, coordination-free cross-class reads.

    Topology (DESIGN.md §13): class [Ti] is owned by worker domain
    [i mod workers].  An owner runs its classes' transactions one at a
    time, so Protocol B inside each root segment is domain-local with no
    locks, never blocks and never rejects — intra-class concurrency is
    the coordination the paper's decomposition removes, and giving it up
    buys lock-freedom; the parallelism that remains, cross-class, is
    exactly what the paper makes free.

    Each transaction runs through the {!Executor}, for which the engine
    is the substrate: the shared {!Gclock}, the {!Actboard} transitions
    around the window ticks, and a commit's versions staged in the
    segment's {!Vring} before its window closes — the zero-allocation
    commit path, gated by {!alloc_probe}.  Once per [publish_every]
    finished transactions (or on request) an owner stores a frozen copy
    of each changed key into its segments' published tables, then its
    {!Registry.snapshot} with an [upto] bound (the clock at capture: the
    snapshot answers [I_old]/[C_late] exactly at or below it; store
    before activity, so a threshold derived from the snapshot finds its
    versions published) and its quiescence summary (DESIGN.md §16).

    Protocol A's lookup answers the worker's own classes from its live
    registry and others from their activity boards, falling back to the
    owner's publication — waiting, if its [upto] lags the argument, for
    a republication the waiter requests while serving requests aimed at
    itself, so two waiters always unblock each other.  A remote read
    splices the owner's published view with its version ring: the same
    historical fact the serial scheduler computes, because [I_old(m)] is
    fixed once the clock passes [m].

    The wall coordinator runs on the caller's domain, so a run spawns
    exactly [workers] domains, on one {!Crew}: the caller polls the
    coordinator wherever it would otherwise wait, and a poll acts once
    100 µs have passed since the previous step finished — in
    {!run_script} before every push and while a full mailbox holds it
    up, in {!run_timed} until the deadline, and in both until every
    worker has exited.  The first poll comes before the first push, on
    an idle system, so the first wall and a plan's first step always
    land.  Each attempt is {!Hdd_core.Timewall.attempt} with
    [q_i = I_old^i(upto_i)], folded from per-worker summaries; the wall
    lookups answer each class from its owner's publication and raise
    {!Hdd_core.Timewall.Stale} where it does not cover the argument.
    Released walls go out through a wait-free {!Epochwall} (the
    {!Seqwall} seqlock stays as the ablation partner).  Read-only
    transactions load the wall before ticking their initiation, so
    [released_at < init].

    Every wait goes through {!Wait}.  A wait on another domain (an
    owner's publication, each phase of a park barrier, room in a full
    mailbox) is a {!Wait.until}; one that outlasts the budget raises
    {!Wait.Stalled}, the shard node's exception too, and the run
    re-raises it.  Waiting workers serve republication requests, so a
    stall is a bug.  The waits for work or the end of the run nap.

    The one oracle judges a run's merged per-domain trace
    ({!Differential}, {!Hdd_core.Oracle}). *)

type op = Executor.op =
  | Read of Granule.t
  | Write of Granule.t * int  (** update transactions: own root segment only *)

type desc = Executor.desc = {
  d_id : Txn.id;  (** unique, > 0; stable across parallel and serial runs *)
  d_kind : [ `Update of int | `Read_only ];
  d_ops : op list;
  d_abort : bool;  (** driver-chosen abort after executing every op *)
}

type config = {
  workers : int;  (** worker domains; classes are assigned [c mod workers] *)
  traced : bool;
      (** per-domain trace rings, one clock tick per event so the merge
          by [(at, dom, seq)] is a total order; off for benchmarks *)
  publish_every : int;
      (** batched publication: workers publish registry/store snapshots
          once per [publish_every] finished transactions, plus on
          republication requests from waiters and a stuck coordinator.
          1 restores PR 5's publish-per-commit behaviour; outcomes are
          identical at every value (the batching equivalence property in
          [test_runtime.ml]) *)
}

val default_config : workers:int -> config

type stats = Hdd_obs.Counters.t = {
  mutable begins : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reads_a : int;
  mutable reads_b : int;
  mutable reads_c : int;
  mutable writes : int;
  mutable read_registrations : int;
  mutable blocks : int;
  mutable rejects : int;
  mutable publications : int;
  mutable stale_waits : int;
  mutable wall_releases : int;
  mutable wall_lag_sum : int;
  mutable wall_lag_max : int;
  mutable repartitions : int;
  mutable escalations : int;
}
(** A run's counts ({!Hdd_obs.Counters}): the sum of every worker's
    executor record (commits, aborts, reads per protocol, writes,
    publications) and the coordinator's (wall releases and lag,
    repartitions, escalations).  A worker runs its classes one
    transaction at a time, so begins, registrations, blocks and
    rejections stay 0. *)

type run = {
  records : Hdd_obs.Trace.record list;  (** merged; empty when untraced *)
  outcomes : (Txn.id * bool) list;  (** per descriptor: committed? sorted by id *)
  stats : stats;
}

val default_owner_map : segments:int -> workers:int -> int array
(** The initial class-to-worker assignment: class [c] is owned by
    worker [c mod workers]. *)

val rotated_map : int array -> int -> int array
(** [rotated_map map workers] moves every class to the next worker
    modulo [workers] — the canonical repartition plan step. *)

val run_script :
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  ?plan:(int array * string) list ->
  ?mode_plan:int array list ->
  config ->
  script:desc array ->
  run
(** Execute the script: update descriptors are pushed in order into a
    bounded per-class mailbox drained by the class's current owner,
    read-only ones round-robin by id into per-worker mailboxes
    (backpressure when full: the caller retries one {!Wait.nap} apart,
    polling the coordinator between retries).  Returns when every
    descriptor has finished and every worker has exited.

    A worker that raises ends the run: its peers and the caller leave
    their waits, and once every worker has exited the first exception
    raised is re-raised here — {!Wait.Stalled} if a wait ran out of
    budget.

    [plan] is a list of live repartitions: each entry [(target, kind)]
    is a class-to-worker owner map (length = segment count, entries in
    [0, workers)) the coordinator installs behind a park barrier while
    the run is in flight, one per coordinator poll, in order (the first
    before the first descriptor is pushed) — see
    DESIGN.md §17.  Every repartition emits a
    {!Hdd_obs.Trace.event.Repartition} record and counts in
    [stats.repartitions].  The default is no repartitions.

    [mode_plan] is a list of live CC-mode swaps (DESIGN.md §18): each
    entry is a per-class mode vector (length = segment count; 0 = plain
    HDD init-stamped versions, 1 = escalated commit-stamped versions)
    the coordinator installs behind the same park barrier, one per
    poll, in order.  Because every worker is between transactions when
    the vector swaps, no transaction ever straddles a mode change; each
    swap emits a {!Hdd_obs.Trace.event.Escalation} record and counts in
    [stats.escalations].  Classes run by the engine are
    domain-sequential, so commit order equals initiation order and
    either stamping discipline yields the same committed outcomes — the
    escalation-equivalence property in [test_hybrid.ml].
    @raise Invalid_argument on an update descriptor writing outside its
    root segment or reading a segment its class may not read, and,
    before any domain is spawned, on a [plan] map or [mode_plan] vector
    without one in-range entry per class. *)

(** {1 Timed self-generating runs (benchmark mode)} *)

type mix = {
  ro_frac : float;  (** share of read-only (Protocol C) transactions *)
  abort_frac : float;  (** share of update transactions that abort *)
  cross_reads : int;  (** Protocol A reads per update transaction *)
  own_ops : int;  (** Protocol B ops per update transaction (first is a write) *)
  keys_per_segment : int;
}

type timed = {
  t_stats : stats;
  t_elapsed_s : float;
  t_latency : Hdd_obs.Metrics.t;
      (** [commit_latency_us] histogram across all workers *)
}

val run_timed :
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  workers:int ->
  seconds:float ->
  ?publish_every:int ->
  ?rotate_every_s:float ->
  mix:mix ->
  seed:int ->
  unit ->
  timed
(** Untraced closed-loop run: each worker generates and executes its own
    transactions until the deadline, while the caller polls the
    coordinator one {!Wait.nap} apart (a poll acts every 100 µs); it
    returns once every worker has exited, re-raising the first
    exception a worker raised, {!Wait.Stalled} included.  Used by
    [hdd_cli bench parallel] for the scaling curves.  [publish_every]
    defaults to 8.

    [rotate_every_s] > 0 makes the coordinator apply a live whole-map
    ownership rotation ({!rotated_map}) behind a park barrier every
    that many seconds — the [bench adapt] live-repartition load.
    0 (the default) disables it. *)

val alloc_probe : ?commits:int -> unit -> float
(** Marginal heap bytes allocated per committed transaction on the
    steady-state Protocol B commit path: a single-domain loop (one
    write + one own-segment read per transaction, publication deferred,
    trace and outcome recording off) measured via [Gc.allocated_bytes]
    deltas, with periodic watermark/prune maintenance inside the
    measured window so in-place compaction absorbs all growth.  The
    zero-allocation gate in [test_runtime.ml] asserts this is exactly
    [0.]. *)

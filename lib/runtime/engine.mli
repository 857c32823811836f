(** The multicore parallel execution engine: one domain per group of
    transaction classes, coordination-free cross-class reads.

    Topology (DESIGN.md §13): class [Ti] is owned by worker domain
    [i mod workers].  An owner runs its classes' transactions one at a
    time, so Protocol B inside each root segment is domain-local with no
    locks, never blocks and never rejects — intra-class concurrency is
    the coordination the paper's decomposition removes, and giving it up
    buys lock-freedom; the parallelism that remains, cross-class, is
    exactly what the paper makes free.  On commit an owner appends committed
    versions to a packed-int {!Hdd_mvstore.Pstore} per root segment —
    the zero-allocation commit path, gated by {!alloc_probe} — and once
    per [publish_every] finished transactions (or on request) publishes
    frozen store views with one [Atomic.set] each, followed by its
    {!Registry.snapshot} together with an [upto] bound (the global
    clock value at capture: the snapshot answers [I_old]/[C_late]
    exactly for arguments at or below it — store before activity, so
    any reader that derives a threshold from the activity publication
    finds every version below that threshold already in the view it
    fetches afterwards) and its quiescence summary (DESIGN.md §16).

    A Protocol A read by class [i] of segment [j] composes
    [I_old] along the critical path over published snapshots — waiting,
    if a snapshot's [upto] lags the argument, for the owner's next
    republication (the waiter posts a republication request the owner
    serves between transactions, and keeps serving requests aimed at
    itself, so two waiters always unblock each other; classes the
    reading worker itself owns are answered from its live registry with
    no wait at all) — then loads the segment's published view and
    serves the latest committed version below the threshold: the same historical fact the serial scheduler computes,
    because [I_old(m)] is fixed once the clock passes [m].

    A wall-coordinator domain anchors Protocol C walls at
    [m = min_i q_i] where [q_i = I_old^i(upto_i)] — below [q_i] class
    [i] is quiescent and fully published.  Each worker precomputes its
    classes' [q] at publication time, so a release attempt folds
    O(workers) summaries instead of rescanning every class's history;
    the coordinator evaluates [E_s^i(m)] over the same snapshots,
    re-checks every component against [q], and releases through a
    wait-free {!Epochwall} (the {!Seqwall} seqlock stays as the
    ablation partner).  Read-only transactions load the wall before
    ticking their initiation, so a released wall always satisfies
    [released_at < init].

    Correctness is checked differentially ({!Differential}): merged
    per-domain traces are certified by the MVSG certifier, replayed
    through the invariant {!Hdd_obs.Monitor}, and compared against the
    serial {!Hdd_core.Scheduler} oracle. *)

type op =
  | Read of Granule.t
  | Write of Granule.t * int  (** update transactions: own root segment only *)

type desc = {
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
  trace_capacity : int;
  mailbox_capacity : int;
  wall_poll_s : float;  (** coordinator poll between release attempts *)
  publish_every : int;
      (** batched publication: workers publish registry/store snapshots
          once per [publish_every] finished transactions, plus on
          republication requests from waiters and a stuck coordinator.
          1 restores PR 5's publish-per-commit behaviour; outcomes are
          identical at every value (the batching equivalence property in
          [test_runtime.ml]) *)
}

val default_config : workers:int -> config

type stats = {
  committed : int;
  aborted : int;
  reads_a : int;
  reads_b : int;
  reads_c : int;
  writes : int;
  publications : int;  (** activity/store publications across workers *)
  wall_releases : int;
  wall_lag_sum : int;  (** sum of [released_at - m] in clock ticks *)
  wall_lag_max : int;
  repartitions : int;
      (** live ownership migrations applied behind a park barrier *)
  escalations : int;
      (** live per-class CC mode swaps applied behind the same barrier
          (DESIGN.md §18) *)
}

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
    (backpressure when full).  Returns when every descriptor has
    finished and the coordinator has stopped.

    [plan] is a list of live repartitions: each entry [(target, kind)]
    is a class-to-worker owner map (length = segment count, entries in
    [0, workers)) the coordinator installs behind a park barrier while
    the run is in flight, one per coordinator poll, in order — see
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
    root segment or reading a segment its class may not read. *)

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
  ?wall_poll_s:float ->
  ?publish_every:int ->
  ?rotate_every_s:float ->
  ?control:(int array -> int array option) ->
  mix:mix ->
  seed:int ->
  unit ->
  timed
(** Untraced closed-loop run: each worker generates and executes its own
    transactions until the deadline.  Used by [hdd_cli bench parallel]
    for the scaling curves.  [publish_every] defaults to 8.

    [rotate_every_s] > 0 makes the coordinator apply a live whole-map
    ownership rotation ({!rotated_map}) behind a park barrier every
    that many seconds — the [bench adapt] live-repartition load.
    0 (the default) disables it.

    [control] is the closed-loop placement controller
    ({!Hdd_adapt.Control}): once per coordinator poll it is fed a racy
    snapshot of cumulative per-class commit counts and may return a
    target owner map, which the coordinator installs behind a park
    barrier (kind ["auto"], counted in [stats.repartitions]).  Rate
    limiting and hysteresis are the controller's responsibility — the
    engine applies whatever it returns. *)

val alloc_probe : ?commits:int -> unit -> float
(** Marginal heap bytes allocated per committed transaction on the
    steady-state Protocol B commit path: a single-domain loop (one
    write + one own-segment read per transaction, publication deferred,
    trace and outcome recording off) measured via [Gc.allocated_bytes]
    deltas, with periodic watermark/prune maintenance inside the
    measured window so in-place compaction absorbs all growth.  The
    zero-allocation gate in [test_runtime.ml] asserts this is exactly
    [0.]. *)

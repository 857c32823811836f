(** The one wait of the parallel runtimes.  The engine ({!Engine}), its
    run loop ({!Crew}) and the shard layer pace every wait with {!nap}
    or {!backoff}; a wait on another party's action is an {!until},
    bounded by one budget.  Only the seqlock read retries of {!Actboard}
    and {!Seqwall} spin on their own, bounded by a retry count. *)

exception Stalled of { waiter : string; awaited : string; waited_s : float }
(** An {!until} that outlasted {!budget_s}: a bug, since the protocols
    never deadlock.  [waiter] names who waited (["engine worker 1"],
    ["the wall coordinator"], ["shard 0"]), [awaited] what for (["a
    publication of shard 1 covering 3"]), [waited_s] for how long. *)

val budget_s : float
(** 10 s: over a hundred times the longest wait measured across the
    test suite and the benchmarks (83 ms, a worker awaiting an owner's
    publication in [bench parallel] at 8 workers on 2 cores). *)

val nap : unit -> unit
(** The shortest sleep, [Unix.sleepf 1e-6]: the kernel's timer slack
    sets its length (about 57 µs on Linux by default).  A longer
    request only adds to it, and each µs of nap shows in the runs that
    wait most, such as a park barrier (DESIGN.md §16). *)

val backoff : int -> unit
(** Turn [n] of a worker's wait: [Domain.cpu_relax] for 64 turns, then
    {!nap}, so that on a host with fewer cores than domains the waiter
    does not starve the domain it waits for. *)

val until :
  waiter:string -> awaited:(unit -> string) -> step:(int -> unit) ->
  (unit -> bool) -> unit
(** [until ~waiter ~awaited ~step cond] returns once [cond ()] holds,
    running [step 0], [step 1], ... between checks: the site's own work
    and pacing.  A condition that already holds runs no step.
    @raise Stalled once {!budget_s} has passed (the clock is read at
    the first failed check and every 256 turns); only then does
    [awaited] run, so a wait that never stalls formats nothing. *)

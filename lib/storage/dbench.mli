(** The durable-engine benchmark behind [hdd_cli bench durable] and
    [BENCH_durable.json].

    Two families of measurements, both against the real file sink (every
    fsync is a real [fsync(2)]):

    - {b Group commit}: a closed-loop single-write committer over the
      [max_batch x max_delay] knob grid (plus the sync-per-commit
      baseline, reported as [max_batch = 0]), measuring throughput,
      fsyncs per commit and the submit-to-acknowledged latency
      distribution (p50/p99).  Headline: [fsync_reduction_at_8], the
      factor by which an 8-deep batch window cuts fsyncs per commit
      against sync-per-commit.
    - {b Recovery}: logs built at several history lengths under a fixed
      checkpoint cadence — manifest recovery must track the {e tail},
      not the history ([recovery_tail_flatness], the ratio of the
      largest history's recovery time to the smallest's) — and at a
      fixed history under several checkpoint intervals, reporting
      recovery time against full-log replay.

    {!gates} checks the structural truths (reduction at least 4x,
    flatness bounded) that hold at any machine speed; magnitude
    regressions are gated nightly against the committed baseline. *)

val run : ?quick:bool -> ?dir:string -> unit -> Hdd_benchkit.Jsonlite.t
(** Run the full matrix ([quick] shrinks workloads roughly 6x for
    per-push CI) using scratch files under [dir] (default the system
    temp directory; the files are removed afterwards). *)

val gates : Hdd_benchkit.Jsonlite.t -> string list
(** Structural-gate failures in a {!run} report; empty means healthy. *)

val tracked : Hdd_benchkit.Jsonlite.t -> (string * float) list
(** Gated against a baseline: [txns_per_sec] of the sync-per-commit
    cell and of the (8, 16) and (32, 64) batch windows. *)

val pp : Format.formatter -> Hdd_benchkit.Jsonlite.t -> unit

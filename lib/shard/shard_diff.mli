(** The cross-shard differential oracle.

    A sharded run is accepted by exactly the four checks the multicore
    engine answers to ({!Hdd_runtime.Differential}): the per-shard
    traces are merged on the global clock order (at, dom, seq), the
    merged history is MVSG-certified, replayed through the invariant
    monitors, and compared — verdicts and Protocol-B read-from sets —
    against the serial single-process oracle.  {!Sclock} guarantees the
    merge is sound: timestamps are globally unique and extend
    happens-before across the wire. *)

type mode = [ `Det | `Domains | `Processes ]

val check :
  ?mode:mode ->
  ?config:Node.config ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  shards:int ->
  seed:int ->
  script:Cluster.script ->
  unit ->
  Hdd_runtime.Differential.report
(** Run [script] on a [shards]-node cluster in [mode] (default the
    deterministic single-thread mode; [seed] only shapes the [`Det]
    interleaving) and apply all four checks to the merged run. *)

val check_det :
  ?fault:Netfault.plan ->
  ?config:Node.config ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  shards:int ->
  seed:int ->
  script:Cluster.script ->
  unit ->
  Hdd_runtime.Differential.report
(** {!check} in deterministic mode with a {!Netfault.plan} scripted over
    the publication traffic — the fault suite's entry point: faults may
    add waiting, never a failed check. *)

val stress_one :
  ?mode:mode ->
  seed:int ->
  shards:int ->
  txns:int ->
  profile:Hdd_runtime.Differential.profile ->
  unit ->
  Hdd_runtime.Differential.report
(** The sharded twin of {!Hdd_runtime.Differential.stress_one}: the same
    {!Hdd_runtime.Differential.stress_case}, executed on [shards] nodes
    instead of worker domains. *)

(** {1 Curated scenarios}

    The explorer's Figure 1 / Figures 3-4 / wall scenarios as descriptor
    scripts, classes ordered so each class's root segment is its own
    index.  At two shards each scenario crosses the wire: Protocol A
    reads compose thresholds from remote snapshots and Protocol C reads
    wait out remote walls. *)

type golden = {
  g_name : string;
  g_partition : Hdd_core.Partition.t;
  g_init : Granule.t -> int;
  g_script : Cluster.script;
}

val fig1 : golden
val fig34 : golden
val wall : golden
val goldens : golden list

val golden_records :
  ?shards:int -> ?seed:int -> golden -> Hdd_obs.Trace.record list
(** The merged deterministic-mode trace (defaults: 2 shards, seed 7) —
    what the golden files under [test/golden/shard_*.trace] freeze. *)

val golden_check :
  ?shards:int -> ?seed:int -> golden -> Hdd_runtime.Differential.report

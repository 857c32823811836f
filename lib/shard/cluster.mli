(** Drive a fleet of {!Node}s over a script and hand back an
    {!Hdd_runtime.Engine.run} — the same shape the multicore engine
    returns, so the one oracle ({!Hdd_core.Oracle}, asked through
    {!Hdd_runtime.Differential.check_run}) judges a sharded history
    exactly as it judges the engine's.

    Three ways to run the same node code:

    - {!run_script_det}: every node on one thread, descriptors
      interleaved by a seeded round-robin, each node's wait hook
      pumping the others.  Fully deterministic — same seed, same
      merged trace, byte for byte — which is what the golden traces
      and the netfault suite want.
    - {!run_script_domains}: one domain per shard over the loopback
      (a locked inbox per shard); real parallelism, still one process.  A shard that
      raises ends the run: its peers leave their waits and stop, and
      the first exception re-raises.
    - {!run_script_processes}: one forked OS process per shard, pipes
      to a star router in the parent, traces and outcomes shipped home
      as {!Wire.Trace_slice}/{!Wire.Outcome} messages.  What
      [hdd_cli shard --processes] runs.

    Update descriptors go to their class's owner ([class mod shards]),
    read-only ones round-robin by id. *)

type script = Hdd_runtime.Engine.desc array

val run_script_det :
  ?fault:Netfault.plan ->
  ?config:Node.config ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  shards:int ->
  seed:int ->
  script:script ->
  unit ->
  Hdd_runtime.Engine.run

val run_script_domains :
  ?config:Node.config ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  shards:int ->
  script:script ->
  unit ->
  Hdd_runtime.Engine.run

exception Shard_died of { shard : int; reason : string }
(** A shard process of {!run_script_processes} died: it closed its pipe
    before reporting its outcome (a child that raises prints
    ["shard i died: ..."] and exits with status 2), it sent a frame
    that fails its checks ([reason] carries the decoder's error), or
    the router heard nothing from any child for 30 s while [shard]
    still owed a message.  The other children are killed and every
    child is reaped before this is raised, as before any other
    exception that leaves the router. *)

val run_script_processes :
  ?config:Node.config ->
  partition:Hdd_core.Partition.t ->
  init:(Granule.t -> int) ->
  shards:int ->
  script:script ->
  unit ->
  Hdd_runtime.Engine.run
(** The run's [stats] are the shards' [Outcome] counters summed; that
    pinned frame ({!Wire.counters}) carries no publication count, so
    [stats.publications] reads 0 here, while the other two modes sum
    each node's own counts.
    @raise Shard_died naming the first shard that died. *)

(** The sharded engine's wire protocol (DESIGN.md §15).

    Everything that crosses a shard boundary is one {!packet}: a source
    shard, a destination, the sender's {!Sclock} stamp (receivers
    {!Sclock.catch_up} on it before anything else), and a {!msg}.
    Packets travel as {!Hdd_util.Binc} frames — length-prefixed,
    CRC-guarded, with a result-returning {!decode} — so a torn pipe or
    a corrupted byte surfaces as a clean error, never a nonsense
    snapshot.

    The concurrency-control payloads are deliberately the same values
    the multicore runtime shares through [Atomic]s: registry snapshots
    ([Pub]; written from the sender's live registry, decoded into a
    {!Registry.snapshot}), committed version batches ([Delta]) and
    released time walls ([Wall]).  Shipping CC state instead of
    taking locks is the whole point — the read path needs no
    registration round trip (PAPER.md; "transparent concurrency
    control" in PAPERS.md). *)

(** A publication's activity state.  A sender names its live registry
    ([Live]): {!Registry.write} writes it as it stands when the packet
    is encoded, which every carrier does inside its [send], so the
    frame is a snapshot taken at send time with no frozen copy
    (transport.mli).  A decoded publication holds fresh views
    ([Frozen], {!Registry.read}); encoding one writes the same layout
    ({!Registry.write_snapshot}). *)
type activity = Live of Registry.t | Frozen of Registry.snapshot

(** An activity publication: shard [p_shard]'s registry, exact for
    every argument at or below [p_upto].  [p_marks.(seg)] is the number
    of [Delta] messages for own segment [seg] broadcast before the
    capture: a receiver that has applied that many deltas and sees a
    class quiescent below a threshold in [p_act] holds every version
    the threshold can reach.  A sender names its live marks, as it
    names its live registry.  [p_seq] orders publications per sender
    so late or duplicated ones are ignored. *)
type pub = {
  p_shard : int;
  p_seq : int;
  p_upto : Time.t;
  p_marks : int array;
  p_act : activity;
}

(** A replication batch: the versions one commit installed into one of
    the sender's own segments.  Reliable FIFO per channel — faults are
    for publications only (see {!Netfault}). *)
type delta = {
  dl_shard : int;
  dl_segment : int;
  dl_versions : (int * Time.t * int) list;  (** key, write ts, value *)
}

(** Per-shard tallies carried home by [Outcome] in process mode: the
    frame's fixed layout of a node's {!Hdd_obs.Counters} (its executor's
    and its wall releaser's), publications left out. *)
type counters = {
  k_committed : int;
  k_aborted : int;
  k_reads_a : int;
  k_reads_b : int;
  k_reads_c : int;
  k_writes : int;
  k_stale_waits : int;
  k_wall_releases : int;
  k_wall_lag_sum : int;
  k_wall_lag_max : int;
}

type msg =
  | Pub of pub
  | Delta of delta
  | Wall of Hdd_core.Timewall.wall  (** coordinator broadcast *)
  | Read_req of { req : int; segment : int; key : int; threshold : Time.t }
      (** 2PC-baseline only: read at the owner *)
  | Read_reply of { req : int; slice : (Time.t * int) list }
      (** the visible slice under the threshold, newest first *)
  | Lock_req of { req : int; segment : int }  (** 2PC-baseline only *)
  | Lock_reply of { req : int; granted : bool }
  | Unlock of { segment : int }
  | Exec of Hdd_runtime.Engine.desc  (** router -> node work dispatch *)
  | Drain  (** router -> node: no more [Exec]s are coming *)
  | Outcome of {
      shard : int;
      outcomes : (Txn.id * bool) list;
      counters : counters;
    }
  | Trace_slice of { shard : int; records : Hdd_obs.Trace.record list }
  | Bye of { shard : int }

type packet = { src : int; dst : int; stamp : Time.t; msg : msg }

val encode : packet -> bytes
(** One {!Hdd_util.Binc} frame.
    @raise Invalid_argument on a message the codec cannot express
    (there are none today). *)

val encode_into : Hdd_util.Binc.writer -> packet -> unit
(** The frame {!encode} returns, written into a reused writer: reset,
    packet, seal.  The frame lies in bytes [\[0, Binc.length w)] of
    [Binc.buffer w] until the writer's next use.  Nothing is allocated
    unless the frame outgrows the buffer ({!Registry.write}'s
    conditions for a [Live] publication). *)

val decode : bytes -> pos:int -> (packet * int, string) result
(** Cut and decode one frame at [pos]; never raises.  A [Pub] decodes
    into [Frozen] fresh views, their shape checked by
    {!Registry.read}. *)

val dst_of : bytes -> pos:int -> (int, string) result
(** The [dst] of the frame at [pos], once its header and CRC check
    out: read from the payload's first bytes, with the rest left
    undecoded.  Never raises. *)

val equal : packet -> packet -> bool
(** Structural equality, field by field; activity states compare by
    their bytes, so a [Live] registry equals the [Frozen] snapshot
    decoded from it.  For the round-trip property suite. *)

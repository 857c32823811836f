(** The multi-version database: one {!Segment} controller per data segment
    of the partition, addressed through {!Granule.t}.  Chains are the
    array-backed {!Achain} representation; the list-backed {!Chain}
    remains available as the benchmark ablation partner. *)

type 'a t

val create : segments:int -> init:(Granule.t -> 'a) -> 'a t
(** Segments are numbered [0 .. segments-1].
    @raise Invalid_argument if [segments <= 0]. *)

val segment_count : 'a t -> int

val set_trace : 'a t -> Hdd_obs.Trace.t option -> unit
(** Propagate a trace sink to every segment controller; see
    {!Segment.set_trace}. *)

val segment : 'a t -> int -> 'a Segment.t
(** @raise Invalid_argument when out of range. *)

val chain : 'a t -> Granule.t -> 'a Achain.t

val committed_before : 'a t -> Granule.t -> ts:Time.t -> 'a Chain.version option
(** Protocol A / C read: latest committed version strictly below [ts]. *)

val candidate_before : 'a t -> Granule.t -> ts:Time.t -> 'a Chain.read_candidate option
(** Protocol B / MVTO read candidate. *)

val predecessor_rts : 'a t -> Granule.t -> ts:Time.t -> Time.t option
(** Read timestamp of the latest live version below [ts] — the MVTO
    late-write check. *)

val latest_committed : 'a t -> Granule.t -> 'a Chain.version option

val install : 'a t -> Granule.t -> ts:Time.t -> writer:Txn.id -> value:'a -> 'a Chain.version
val commit_version : 'a t -> Granule.t -> ts:Time.t -> unit
val discard_version : 'a t -> Granule.t -> ts:Time.t -> unit

val commit_installed : 'a t -> 'a Chain.version -> unit
(** O(1) commit through the handle {!install} returned. *)

val discard_installed : 'a t -> Granule.t -> 'a Chain.version -> unit
(** Discard through the handle — no timestamp search of the chain. *)

val gc : 'a t -> before:Time.t -> int
(** Uniform-threshold collection: every segment trimmed below [before]. *)

val gc_wall : 'a t -> wall:Time.t array -> int
(** Wall-driven collection (§7.3): segment [i] is trimmed to the newest
    committed version below [wall.(i)] plus everything above it — the
    per-segment thresholds a released time wall (or the scheduler's
    per-segment watermark vector) justifies.
    @raise Invalid_argument if the vector length differs from
    {!segment_count}. *)

val dump : 'a t -> (Granule.t * (Time.t * 'a) list) list
(** The committed versions of every granule that has one, oldest first,
    in granule order — a canonical committed-state snapshot, directly
    comparable with [=] between two stores over the same partition, and
    the serialization view checkpoints use.  Pending versions are
    invisible (not yet part of the committed database) and so is the
    bootstrap version (timestamp zero): it is derivable from [init], not
    logged history, and chains re-create it on demand, so including it
    would make dumps depend on which side happened to materialize a
    chain. *)

val trim_dump :
  wall:Time.t array ->
  (Granule.t * (Time.t * 'a) list) list ->
  (Granule.t * (Time.t * 'a) list) list
(** Apply the {!gc_wall} cut rule to a dump: per granule of segment [i],
    keep the newest version below [wall.(i)] plus everything at or above
    it.  Pure — the oracle form of the cut, used to state checkpoint
    equivalence. *)

val dump_at_wall : 'a t -> wall:Time.t array -> (Granule.t * (Time.t * 'a) list) list
(** [trim_dump ~wall (dump t)] with the length check of {!gc_wall} — the
    consistent snapshot a checkpoint serializes at a released wall.
    @raise Invalid_argument if the vector length differs from
    {!segment_count}. *)

val version_count : 'a t -> int

val max_chain_length : 'a t -> int
(** Longest chain anywhere in the store (telemetry). *)

(** Checkpoints: consistent snapshots of the committed store, cut at a
    released time wall, that turn recovery from O(log) into O(tail).

    {b Walls as consistent prefixes.}  A released wall (clamped by the
    scheduler's watermark for in-flight activity) is a per-segment
    threshold vector [w] such that every transaction still running — or
    yet to begin — carries timestamps at or above it.  So the store cut
    at [w] by the {!Hdd_mvstore.Store.gc_wall} rule (newest committed
    version below [w.(i)] plus everything above), together with the
    engine's in-flight write table, is a pure function of the log
    prefix [0, log_offset): every record in the tail re-installs at or
    above [w], which is exactly what makes
    [load(checkpoint) + replay(tail) = cut(replay(whole log), w)] an
    equality and not an approximation — the checkpoint-equivalence
    invariant the torture harness checks.

    {b File discipline.}  The data file ([<log>.ckpt.<seq>]) is one
    {!Hdd_util.Binc} frame — varints and count-prefixed lists, guarded
    by the frame's own length and CRC-32 — written to a temp file,
    checksummed whole ({!Hdd_util.Binc.crc32_sub}, the tree's only CRC),
    and renamed into place; then the manifest ([<log>.manifest], JSON,
    newest entry first) is rewritten the same way.  A crash between the
    two leaves the old manifest pointing at old checkpoints — never at a
    half-written file.  {!best} verifies length and checksum, then
    decodes the frame, and falls back entry by entry (and finally to
    full replay) on any damage — a data file in any other format, such
    as the JSON of earlier versions, included.  All four steps cross
    {!Fault.point}s ([Checkpoint_write]/[Checkpoint_rename]/
    [Manifest_write]/[Manifest_rename]) so torture scripts can kill or
    corrupt each. *)

type meta = {
  seq : int;  (** strictly increasing per log *)
  file : string;  (** data file basename, relative to the log's directory *)
  log_offset : int;  (** replay the log from this byte *)
  wall : Time.t array;  (** the cut vector *)
  last_time : Time.t;  (** clock upper bound at the cut *)
  crc : int;  (** CRC-32 of the data file *)
  bytes : int;  (** length of the data file *)
}

val manifest_path : log:string -> string
val data_path : log:string -> seq:int -> string

val read_manifest : log:string -> meta list
(** Newest first.  A missing or unparseable manifest reads as empty —
    recovery then falls back to full replay. *)

val write :
  ?faults:Fault.plan ->
  log:string ->
  seq:int ->
  log_offset:int ->
  wall:Time.t array ->
  last_time:Time.t ->
  committed:int ->
  aborted:int ->
  versions:(Granule.t * (Time.t * int) list) list ->
  pending:Replay.Inflight.entry list ->
  unit ->
  meta
(** Write checkpoint [seq]: data file (temp + checksum + rename), then
    the pruned manifest (temp + rename).  [versions] is the wall-cut
    committed dump ({!Hdd_mvstore.Store.dump_at_wall}); [pending] the
    engine's in-flight table ({!Replay.Inflight.entries}).
    @raise Fault.Crash or {!Fault.Io_error} from a scripted fault at any
    of the four points; the transient case leaves no manifest entry, so
    the checkpoint simply didn't happen. *)

val best :
  ?trace:Hdd_obs.Trace.t ->
  log:string ->
  segments:int ->
  init:(Granule.t -> int) ->
  unit ->
  (Replay.t * meta) option
(** Load the newest manifest entry whose data file exists, has the
    recorded length and checksum, and parses — falling back to older
    entries on damage; [None] when nothing valid remains.  The returned
    replay state holds the cut store, counters, last_time and the
    restored in-flight table, ready for tail replay. *)

val latest_seq : log:string -> int
(** Newest manifest sequence number; 0 when no manifest. *)

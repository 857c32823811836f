(** Deterministic fault injection for the durable storage layer.

    A {!sink} is the byte-level append interface the {!Wal} writes
    through.  The production path is {!file_sink} — plain append-only
    file I/O, exactly what the WAL did before the sink existed.  Tests
    and the {!Torture} harness wrap any sink with {!apply} and a
    scripted {!plan} of faults: simulated crashes after a byte or frame
    count, torn final writes, silent bit flips, transient append errors
    and fsync failures.  All fault logic lives in the wrapper, so the
    hot path carries no test hooks.

    {b Logical injection points.}  Batching made raw ordinals (frame
    index, byte offset) unstable addresses: the same script byte lands
    in a different operation depending on the group-commit knobs.  So
    the pipeline stages of the durable engine — batch append, batch
    fsync, ack delivery, checkpoint data/manifest write and rename, log
    shipping send/apply — each cross a named {!point}.  A script
    targets a point with {!event.Crash_at} / {!event.Error_at} /
    {!event.Torn_at} / {!event.Corrupt_at}, and the plan records every
    point reached so a harness can assert exhaustive coverage against
    {!kinds}.

    {b Crash model.}  {!Crash} simulates the machine dying at a chosen
    point in the append stream.  Everything appended before the crash
    point is flushed to the file — recovery will see exactly that
    prefix — and nothing after it is ever written; once crashed, every
    operation except {!sink.close} raises {!Crash} again.  Loss of
    OS-buffered bytes is expressed by scripting an earlier crash point,
    so the one model covers both torn appends and lost buffers while
    staying fully deterministic.  Crashes raised at logical points obey
    the same model: every sink registered with {!apply} on the plan is
    flushed before the exception propagates. *)

exception Crash of string
(** The simulated machine died.  The sink's file holds exactly the bytes
    appended before the crash point; the handle is unusable except for
    {!sink.close}. *)

exception Io_error of string
(** A transient I/O failure: the operation did not happen and the sink
    remains usable.  Callers treat it like a failed syscall — abort the
    affected transaction, retry with backoff, or give the operation up. *)

type sink = {
  append : bytes -> unit;  (** append one encoded frame *)
  flush : unit -> unit;  (** push buffered bytes to the OS *)
  sync : unit -> unit;  (** durability barrier (flush, then fsync) *)
  close : unit -> unit;  (** release resources; never injects faults *)
}

val file_sink : ?fsync:bool -> path:string -> unit -> sink
(** The production sink: open [path] for appending (creating it if
    needed) with the same flags the WAL always used.  [fsync] (default
    true) set to false turns {!sink.sync} into a plain flush — torture
    runs use it because under the simulated crash model the flush
    boundary {e is} the durability boundary, and skipping thousands of
    real fsyncs keeps 500-cycle runs fast.
    @raise Sys_error on an unwritable path. *)

(** A logical operation in the durable pipeline — the stable address a
    fault script targets.  Indexes identify the operation instance, not
    a byte position: batches and fsync rounds are numbered 1-based in
    execution order, checkpoints by their manifest sequence number,
    ships 1-based per shipper. *)
type point =
  | Batch_append of { batch : int; frame : int }
      (** appending frame [frame] (0-based) of commit batch [batch] *)
  | Batch_fsync of int  (** the [n]-th fsync round of the group pipeline *)
  | Batch_ack of int  (** delivering durability acks after fsync round [n] *)
  | Checkpoint_write of int  (** writing the temp data file of checkpoint [seq] *)
  | Checkpoint_rename of int  (** renaming checkpoint [seq] into place *)
  | Manifest_write of int  (** writing the temp manifest after checkpoint [seq] *)
  | Manifest_rename of int  (** renaming the manifest after checkpoint [seq] *)
  | Ship_send of int  (** sending ship batch [n] to the replica *)
  | Ship_apply of int  (** the replica applying ship batch [n] *)

val kind : point -> string
(** The point's kind name, e.g. ["batch_fsync"] — the coverage unit. *)

val kinds : string list
(** Every point kind, one per constructor of {!point}.  The torture
    harness asserts its runs reached (and fired faults at) all of them. *)

(** One scripted fault.  Frame indexes are 0-based positions in the
    append stream; byte offsets are absolute positions in the log file;
    points are logical operations.  Each event fires at most once. *)
type event =
  | Crash_after_frames of int
      (** crash at the end of the append that completes this many
          frames: the frame is on disk, but the appender never hears the
          acknowledgement *)
  | Crash_after_bytes of int
      (** bytes at offsets [>= n] never reach the file; the append that
          crosses the boundary is cut short and the crash fires — a torn
          tail at an arbitrary byte *)
  | Torn_write of { frame : int; keep : int }
      (** the append of frame [frame] writes only its first [keep] bytes
          (clamped to at most the frame length - 1) and then crashes *)
  | Bit_flip of { byte : int; bit : int }
      (** flip bit [bit land 7] of the byte at absolute offset [byte] as
          it is appended — silent corruption, no error is raised *)
  | Append_error of { frame : int }
      (** the append of frame [frame] raises {!Io_error} once, writing
          nothing; a retried append of the same frame index succeeds *)
  | Sync_error of { sync : int }
      (** the [sync]-th call to {!sink.sync} (1-based) raises
          {!Io_error} before reaching the inner sink *)
  | Crash_at of point
      (** crash when the pipeline crosses [point]: nothing of the
          operation at the point happens, appended bytes stay durable *)
  | Error_at of point
      (** crossing [point] raises {!Io_error} once; the operation did
          not happen and may be retried *)
  | Torn_at of { point : point; keep : int }
      (** a {!cross_write} at [point] writes only the first [keep] bytes
          of its payload and crashes — a torn checkpoint or manifest *)
  | Corrupt_at of { point : point; byte : int; bit : int }
      (** flip bit [bit land 7] of byte [byte] of the payload written at
          [point] — silent file corruption, no error *)

val pp_event : Format.formatter -> event -> unit

type plan
(** A mutable fault script: the events plus counters of frames, bytes
    and syncs seen so far, which events have fired, and which logical
    points were reached. *)

val plan : event list -> plan

val apply : plan -> sink -> sink
(** Wrap a sink so the plan's faults fire at their scripted points.  The
    wrapper counts every frame and byte that reaches the inner sink;
    wrapping with an empty plan is the identity plus counters.  The
    inner sink's [flush] is also registered on the plan, so a crash
    raised at a logical point ({!cross}, {!cross_write}) flushes the
    appended prefix exactly like a crash raised inside the sink. *)

val cross : plan -> point -> unit
(** Record that the pipeline reached [point] and fire any scripted
    {!event.Error_at} / {!event.Crash_at} targeting it.  Call it
    immediately {e before} performing the operation the point names, so
    a crash means the operation never happened.
    @raise Io_error on a scripted transient fault
    @raise Crash on a scripted crash, or when the plan already crashed *)

val cross_write : plan -> point -> path:string -> bytes -> unit
(** A whole-file write (checkpoint data, manifest) routed through the
    fault plan: crossing [point] can fail transiently ({!event.Error_at};
    nothing written), crash before writing ({!event.Crash_at}), write a
    torn prefix and crash ({!event.Torn_at}), or silently corrupt
    payload bytes ({!event.Corrupt_at}).  With no matching event the
    payload is written to [path] whole. *)

val crashed : plan -> bool
(** Has a crash event fired? *)

val fired : plan -> event list
(** Events that have fired, most recent first. *)

val reached : plan -> point list
(** Logical points crossed, most recent first (faulted or not). *)

val bytes_appended : plan -> int
(** Bytes that reached the inner sink (the on-disk length, for an
    initially empty file). *)

(** Compact length-prefixed binary framing — the wire codec primitives
    of the sharded engine (DESIGN.md §15) and the format of checkpoint
    data files (DESIGN.md §14).

    {!Jsonlite} is the right tool for reports a human (or CI gate) reads
    back; the shard wire protocol instead moves registry snapshots and
    store deltas on every commit, so it wants a codec that is dense,
    allocation-light and — because it crosses process boundaries —
    paranoid: every frame is length-prefixed and CRC-guarded, and
    {!decode} returns a clean [Error] on any truncation or corruption
    rather than raising or silently mis-parsing.  The property suite
    cuts frames at every byte and flips single bits to pin exactly
    that.

    Integers use zigzag LEB128 varints (small magnitudes, the common
    case for times, ids and keys, cost one byte); strings and lists are
    count-prefixed.  A {e frame} is [[payload length : u32 LE][crc32 of
    payload : u32 LE][payload]], the same armor the WAL frames wear.

    Frames are written and read in place.  A {!writer} is the frame
    under construction: it keeps the 8 header bytes free and appends
    the payload after them, so {!seal} fills in the header where the
    frame lies and {!reset} empties the writer for the next one.  A
    writer reused this way allocates only when a frame outgrows its
    buffer; {!frame} seals and cuts one exact-length copy for a caller
    that keeps the frame.  {!decode} checks the header and CRC and
    then reads the payload where it lies, through a reader bounded by
    the frame's end: no payload is copied, and bytes after the frame
    are never read as part of it. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer

val reset : writer -> unit
(** Drop the frame written so far, keeping the buffer. *)

val w_int : writer -> int -> unit
(** Zigzag LEB128; any OCaml [int] round-trips.  A value in [-64, 63]
    is one byte, written inline. *)

val w_bool : writer -> bool -> unit
val w_string : writer -> string -> unit

val w_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
(** Count-prefixed. *)

val w_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit

val w_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit

val seal : writer -> unit
(** Fill in the header (length, CRC) in place: bytes
    [\[0, length w)] of [buffer w] are now the frame, until the next
    write or {!reset}. *)

val buffer : writer -> bytes
(** The writer's buffer.  It is replaced when a write outgrows it, so
    read it again after writing. *)

val length : writer -> int
(** Bytes written, header included. *)

val frame : writer -> bytes
(** {!seal}, then a copy of the frame: length, CRC, body. *)

(** {1 Reading} *)

type reader

exception Error of string
(** Raised by the [r_*] readers on truncation or a malformed encoding.
    {!decode} catches it — only result-returning entry points are meant
    for untrusted bytes. *)

val r_int : reader -> int
val r_bool : reader -> bool
val r_string : reader -> string

val r_count : reader -> int
(** A count prefix, as {!w_list}/{!w_array} write it.  Refused when it
    exceeds the payload bytes left, since every element costs at least
    one byte. *)

val r_list : reader -> (reader -> 'a) -> 'a list
val r_array : reader -> (reader -> 'a) -> 'a array
val r_option : reader -> (reader -> 'a) -> 'a option

(** {1 Frames} *)

val crc32_sub : bytes -> int -> int -> int
(** [crc32_sub buf pos len]: CRC-32 (IEEE, polynomial 0xEDB88320) of
    [len] bytes of [buf] from [pos], as a non-negative int, computed
    without allocating.  The tree's only CRC: WAL frames, checkpoint
    files, log-shipping batches and {!frame}s all use it.
    @raise Invalid_argument if the range is outside [buf]. *)

val max_payload : int
(** The longest payload a frame may claim: 2{^26} bytes.  {!decode}
    refuses a longer length header as implausible, and a stream reader
    should refuse it before waiting for the body. *)

val decode : bytes -> pos:int -> f:(reader -> 'a) -> ('a * int, string) result
(** Check the frame starting at [pos] (header, length, CRC over its
    payload), then run [f] over the payload in place, requiring it to
    consume every byte: [Ok (v, next)] with [next] the offset just past
    the frame.  The reader stops at the frame's end, so a payload cut
    short reads as truncated even when more bytes follow in [buf].  A
    truncated or corrupt frame, any {!Error} and any [Invalid_argument]
    a validating constructor inside [f] raises come back as [Error];
    nothing escapes. *)

val peek : bytes -> pos:int -> f:(reader -> 'a) -> ('a * int, string) result
(** {!decode}'s checks of the frame at [pos], then [f] over the start
    of its payload only: the bytes [f] leaves unread are not an error.
    For a router that reads a frame's address and passes the frame on
    as it lies. *)

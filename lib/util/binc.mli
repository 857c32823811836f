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
    payload : u32 LE][payload]], the same armor the WAL frames wear. *)

(** {1 Writing} *)

type writer

val writer : unit -> writer

val w_int : writer -> int -> unit
(** Zigzag LEB128; any OCaml [int] round-trips. *)

val w_bool : writer -> bool -> unit
val w_string : writer -> string -> unit

val w_list : writer -> (writer -> 'a -> unit) -> 'a list -> unit
(** Count-prefixed. *)

val w_array : writer -> (writer -> 'a -> unit) -> 'a array -> unit

val w_option : writer -> (writer -> 'a -> unit) -> 'a option -> unit

val frame : writer -> bytes
(** The framed payload: length, CRC, body. *)

(** {1 Reading} *)

type reader

exception Error of string
(** Raised by the [r_*] readers on truncation or a malformed encoding.
    {!decode} catches it — only result-returning entry points are meant
    for untrusted bytes. *)

val reader : bytes -> reader

val r_int : reader -> int
val r_bool : reader -> bool
val r_string : reader -> string
val r_list : reader -> (reader -> 'a) -> 'a list
val r_array : reader -> (reader -> 'a) -> 'a array
val r_option : reader -> (reader -> 'a) -> 'a option

val at_end : reader -> bool

(** {1 Frames} *)

val crc32_sub : bytes -> int -> int -> int
(** [crc32_sub buf pos len]: CRC-32 (IEEE, polynomial 0xEDB88320) of
    [len] bytes of [buf] from [pos], as a non-negative int, computed
    without allocating.  The tree's only CRC: WAL frames, checkpoint
    files, log-shipping batches and {!frame}s all use it.
    @raise Invalid_argument if the range is outside [buf]. *)

val unframe : bytes -> pos:int -> (bytes * int, string) result
(** Cut one frame starting at [pos]: [Ok (payload, next)] once the CRC
    over the frame's bytes checks out (only then is the payload copied),
    [Error reason] on a truncated or corrupt frame.  Never
    raises. *)

val decode : bytes -> pos:int -> f:(reader -> 'a) -> ('a * int, string) result
(** {!unframe}, then run [f] over the payload, requiring it to consume
    every byte.  Any {!Error} (and any [Invalid_argument] a validating
    constructor inside [f] raises) comes back as [Error]; nothing
    escapes. *)

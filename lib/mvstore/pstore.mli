(** Packed-int multi-version store: the multicore runtime's per-segment
    store and the shard node's.

    Each granule's version chain is one packed [int array] of
    [ts; value] pairs in ascending-ts order — the same layout trick that
    took trace events 116→12 ns (DESIGN.md §9) — and the store has two
    faces:

    - the {e owner face} ({!t}): mutable, touched only by the owning
      domain.  {!add_commit} appends in place and allocates nothing
      once buffers reach steady-state capacity (in-place compaction
      below the {!set_watermark} point reclaims space instead of
      growing);
    - the {e reader face} ({!view}): one table per segment of frozen
      exact-length per-key buffers.  {!publish} stores a fresh copy for
      each key written since the last publication into that table, in
      place, so a publication costs the keys it changed.  A stored
      buffer is never written again, so a cross-domain reader that
      loads the table after the owner's publication record (DESIGN.md
      §13) meets a buffer at least as new as that publication.

    The owner keeps its per-key state in three arrays indexed by key —
    the packed buffers (filled with the static [[||]]), their used
    lengths and their dirty flags — rather than an array of per-key
    records.  Widening the key range therefore copies arrays whose fill
    is static or immediate, which never forces a collection; a young
    record fill would force a stop-the-world minor collection at every
    widening past 256 keys (DESIGN.md §16).

    Reads return the version timestamp directly ([Time.zero] = the
    bootstrap value predating every commit) — no option, no tuple — so
    the Protocol A/B/C read paths allocate nothing.  Every read and
    write raises [Invalid_argument "Pstore: negative key"] on a
    negative key. *)

type t
(** Owner face: one per segment, single-domain mutable. *)

type view
(** Reader face: the published table, safe to read from any domain. *)

val create : unit -> t
val empty_view : view

val add_commit : t -> key:int -> ts:Time.t -> value:int -> unit
(** Append a version; [ts] must exceed the key's newest version.
    Amortized zero-allocation: appends in place, compacting versions
    below the watermark out of the buffer before growing it. *)

val set_watermark : t -> Time.t -> unit
(** Advance the oldest timestamp future reads may name (a released wall
    component).  Versions below it — except the newest such version,
    which a read exactly at the watermark still serves — become
    reclaimable by in-place compaction.  Monotone; lower values are
    ignored. *)

val latest_before : t -> key:int -> ts:Time.t -> Time.t
(** Timestamp of the newest version strictly below [ts], or [Time.zero]
    when the read predates every version (bootstrap). *)

val value_of : t -> key:int -> ts:Time.t -> fallback:int -> int
(** Value of the exact version [ts], or [fallback] if absent. *)

val publish : t -> view
(** Store one exact-length copy of each key dirtied since the last
    publish into the segment's table and return the table.  A bigger
    table is allocated only when the key range has grown; clean keys
    keep their buffers. *)

val view_latest_before : view -> key:int -> ts:Time.t -> Time.t
(** {!latest_before} over the published buffers. *)

val latest_before_pair : t -> key:int -> ts:Time.t -> (Time.t * int) option
(** Allocating convenience: the newest version strictly below [ts] with
    its value, or [None] for the bootstrap. *)

val dirty_count : t -> int
(** Keys with versions the published table does not hold — zero means
    {!publish} would change nothing, so the caller can skip it. *)

(** Per-class activity boards — wait-free cross-class [I_old].

    Batched publication (DESIGN.md §16) makes registry snapshots stale
    for up to K commits, and a Protocol A reader that insisted on a
    snapshot covering its own initiation would wait a scheduling
    round-trip per cross-read on an oversubscribed machine.  The board
    sidesteps the wait: each class's owner publishes
    {e state + active init + the last two activity windows} through a
    per-class seqlock, and readers compute [I_old] from that alone.

    Exactness hinges on the transition states.  The owner writes
    {!begin_txn} ([starting]) {e before} ticking the transaction's
    init, and {!set_ending} {e before} ticking its end.  A reader that
    ticked its own initiation [at] and then observes:

    - [busy a] with [a < at]: the running transaction's end tick is
      provably still in the future (it follows the [ending] write,
      which follows this read in the SC order), so its window spans
      [at] and [I_old at = a] — exact.
    - [idle]: any transaction not yet on the board will tick its init
      after this read, hence after [at] — the retained windows are the
      whole story below [at].
    - [starting]/[ending]: undecidable (the neighbouring tick may or
      may not have happened); the caller falls back to an awaited
      registry publication.  These windows are a few instructions
      wide. *)

type t

val create : classes:int -> t

(** Writer side — only the owning domain may call these for a class. *)

val begin_txn : t -> int -> unit
(** Mark [starting].  Must precede the init tick. *)

val set_busy : t -> int -> init:int -> unit
(** Record the ticked init; the class shows one active transaction. *)

val set_ending : t -> int -> unit
(** Mark [ending].  Must precede the end tick. *)

val set_idle : t -> int -> init:int -> endt:int -> unit
(** Close the window [(init, endt)], shifting the previous newest
    window into second position.  Must follow the end tick {e and} the
    commit's version-ring appends, so a reader that sees the window
    can also see its versions. *)

(** Reader side. *)

val read_into : t -> int -> out:int array -> retries:int -> bool
(** Copy the class record ([state; a_init; i1; e1; i2; e2]) into
    [out.(0..5)] under a stable sequence.  [false] after [retries]
    failed attempts (writer preempted mid-cycle) — take the snapshot
    fallback. *)

val i_old_of_record : int array -> at:int -> int
(** [I_old] at [at] over a consistently-read record, agreeing with
    {!Hdd_txn.Registry.i_old} on the engine's single-active-per-class
    histories.  [-1] when the argument falls below the two retained
    windows or the record is in a transition state. *)

(** Structured tracing for the HDD stack.

    A trace is a ring buffer of typed records, each stamped with a
    sequence number and the logical sim-time at which it was emitted, plus
    a list of synchronous subscribers ({!Metrics.attach},
    {!Monitor.attach}).  The schema mirrors the paper's vocabulary —
    transactions and their classes, protocol A/B/C reads with their
    version-selection thresholds, time-wall releases, garbage collection
    with its watermark vector — so the stream is sufficient to re-derive
    every invariant the offline certifier checks.

    This module is deliberately dependency-free (times, transaction ids,
    segments and keys are plain [int]s, which is what they are everywhere
    in the tree), so every layer from [Hdd_txn.Registry] up to the CLI
    can emit without dependency cycles.

    Cost model: producers hold a [Trace.t option]; [None] (the default
    everywhere) costs one pattern match per potential emission point and
    allocates nothing.  A present-but-{!disable}d trace additionally pays
    one load and branch.  Only an enabled trace allocates records. *)

type protocol = A | B | C
(** Which of the paper's protocols served an access (§4.2, §5.2). *)

type txn_kind =
  | Update of int  (** member of update class [Ti] *)
  | Read_only  (** Protocol C, walled *)
  | Hosted of int  (** read-only hosted below this class (§5.0) *)
  | Adhoc of { wsegs : int list; rsegs : int list }  (** §7.1.1 *)

type reject_stage =
  | Routing
      (** specification violation: an access the partition analysis
          forbids (wrong segment, not higher in the DHG, …) *)
  | Barrier  (** the ad-hoc activity-window barrier (§7.1.1) *)
  | Rule
      (** a protocol rule fired: the MVTO late-write check, or a
          snapshot read finding its version collected — the rejections
          the invariant monitors care about *)

type event =
  | Begin of { txn : int; kind : txn_kind; init : int }
  | Read of {
      txn : int;
      protocol : protocol;
      segment : int;
      key : int;
      threshold : int;  (** version-selection threshold used *)
      version : int;  (** timestamp of the version served *)
    }
  | Block of {
      txn : int;
      protocol : protocol;
      segment : int;
      key : int;
      on : int list;  (** writer transactions waited on *)
    }
  | Reject of {
      txn : int;
      protocol : protocol option;  (** [None] before routing resolved *)
      stage : reject_stage;
      segment : int;  (** [-1] when no single segment applies *)
      reason : string;
    }
  | Write of { txn : int; segment : int; key : int; ts : int }
  | Commit of { txn : int; at : int }
  | Abort of { txn : int; at : int }
  | Wall_release of { m : int; released_at : int; components : int array }
  | Wall_blocked of { on : int }  (** release failed: [on] still active *)
  | Gc of { watermark : int; vector : int array; dropped : int }
  | Seg_gc of { segment : int; dropped : int }
  | Registry_prune of {
      upto : int;
      records_dropped : int;
      windows_dropped : int;
    }
  | Sim of { label : string; txn : int }
      (** driver-level happenings: restart, deadlock, give_up, … *)
  | Note of string
  | Durable_ack of { txn : int; at : int }
      (** the durable engine acknowledged commit [at] of [txn] as on
          disk — after the fsync (grouped or not) covering its commit
          record succeeded *)
  | Durable_recovered of { txn : int; at : int }
      (** replay re-installed the commit [at] of [txn]; emitted by
          full-log recovery, whose replay visits every commit record *)
  | Recovery_complete of { last_time : int }
      (** replay finished: every {!Durable_ack}ed commit must have been
          {!Durable_recovered} by now — the durability monitor rule *)
  | Checkpoint_cut of { seq : int; components : int array }
      (** checkpoint [seq] cut the store at this wall vector; successive
          cuts must be componentwise monotone *)
  | Repartition of {
      epoch : int;  (** the partition epoch entered — strictly increasing *)
      kind : string;  (** "migrate", "split", "merge", … *)
      moved : int list;
          (** the classes (migration) or segments (split/merge) touched *)
      fresh_store : bool;
          (** true when the repair rebuilt the physical store (segment
              identities changed), false for a pure ownership migration —
              drives the monitor's shadow reset *)
    }
      (** a dynamic-decomposition repair was applied behind a wall
          barrier: every transaction begun before this event ran under
          the old partition, every one after under the new *)
  | Escalation of { seq : int; modes : int list }
      (** the hybrid CC layer switched per-class modes behind a
          mode-switch barrier.  [seq] is strictly increasing; [modes]
          is the complete per-class vector after the switch (0 = plain
          HDD init-stamped, 1 = escalated commit-stamped).  No update
          transaction of a class whose mode changes may be in flight
          when this event fires — the monitor enforces exactly that
          relaxed form, which both the engine's full park barrier and
          the serial scheduler's per-class drain satisfy *)

type record = { seq : int; at : int; dom : int; ev : event }
(** [dom] is the emitting trace's {!domain} tag — 0 for the serial stack,
    the owning domain's index under the parallel runtime, where each
    domain writes its own ring and drains merge by logical time. *)

type t

val create : ?capacity:int -> ?domain:int -> unit -> t
(** A fresh, enabled trace.  [capacity] (default 65536) bounds the ring;
    older records are evicted ({!dropped} counts them).  Subscribers see
    every record regardless of eviction.  [domain] (default 0) tags every
    record decoded from this trace; under the parallel runtime each
    domain owns a private ring, so the tag never needs to live in the
    ring encoding itself.
    @raise Invalid_argument if [capacity <= 0]. *)

val enabled : t -> bool
val enable : t -> unit
val disable : t -> unit

val domain : t -> int
(** The tag stamped into this trace's records. *)

val emit : t -> at:int -> event -> unit
(** Append a record stamped [at] (a logical time) and fan it out to the
    subscribers.  No-op when disabled. *)

val emit_here : t -> event -> unit
(** Emit at the time of the most recent {!emit} — for producers that hold
    no clock (segments, registries) and whose events are always nested
    inside a clocked caller's. *)

val subscribe : t -> (record -> unit) -> unit
(** Synchronous fan-out, in subscription order.  A subscriber exception
    propagates to the emitter — the behaviour invariant monitors want. *)

val records : t -> record list
(** Retained records, oldest first. *)

val merge : record list list -> record list
(** Records of several rings (or shards), sorted by [(at, dom, seq)].
    With every emitted event ticking the shared logical clock, [at]
    values are unique and the merge is a total order consistent with
    the clock's happens-before. *)

val merged : t list -> record list
(** {!merge} over the retained records of several rings. *)

val emitted : t -> int
(** Total records emitted, evicted ones included. *)

val dropped : t -> int
(** Records evicted by ring overflow. *)

val clear : t -> unit
(** Drop retained records and reset counters; subscribers stay. *)

val pp_event : Format.formatter -> event -> unit
val pp_record : Format.formatter -> record -> unit

val text_of_records : record list -> string
(** The golden-trace serialization of an already-drained record list —
    what {!to_text} uses, exposed for merged cross-shard traces. *)

val to_text : t -> string
(** One line per retained record, deterministic for a fixed event stream
    — the golden-trace serialization. *)

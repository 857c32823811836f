(** Scripted network faults for the loopback transport — the shard-net
    sibling of {!Hdd_storage.Fault}.

    The storage fault plans perturb WAL writes at scripted {e points};
    these perturb {e activity publications} ([Pub] messages) at
    scripted {e ordinals}: the [n]th [Pub] send through the transport
    (counting every per-destination send of every broadcast, from 0)
    can be dropped, duplicated, delayed behind later publications, or
    reordered with the next one to the same destination.

    Only publications are fair game.  [Delta] messages are the
    replication stream and are contractually reliable FIFO (a real
    deployment would put them on a sequenced channel); publications are
    pure hints — a reader that misses one just waits for the next, so
    every fault here must cost waiting, never consistency.  The
    transport fault suite pins exactly that: seeds run with faulted
    publications must still pass the full cross-shard oracle. *)

type event =
  | Drop of int  (** lose the [n]th publication send entirely *)
  | Dup of int  (** deliver the [n]th publication send twice *)
  | Delay of { pub : int; by : int }
      (** hold the [n]th publication until [by] later publications to
          the same destination have been delivered *)
  | Reorder of int
      (** swap the [n]th publication with the next one to the same
          destination (equals [Delay { by = 1 }]) *)

val kind : event -> string
(** Stable tag, mirroring {!Hdd_storage.Fault.kind}: ["net_drop"],
    ["net_dup"], ["net_delay"], ["net_reorder"]. *)

val kinds : string list
(** Every tag {!kind} can produce, for coverage assertions. *)

type plan
(** Mutable: the transport consumes one publication ordinal per [Pub]
    send and records which events fired. *)

val plan : event list -> plan

(** Transport-side interface. *)

type action =
  | Deliver
  | Skip
  | Twice
  | Hold of int  (** deliver after this many later pubs to the same dst *)

val on_pub : plan -> action
(** Consume the next publication ordinal and say what to do with it.
    An ordinal named by several events obeys the first in plan order. *)

val fired : plan -> event list
(** Events whose ordinal has been reached, oldest first. *)

val sends : plan -> int
(** Publication sends consumed so far: one per [Pub] frame per
    destination. *)

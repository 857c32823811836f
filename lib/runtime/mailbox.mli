(** Bounded multi-producer single-consumer mailboxes — the work-feed of
    the parallel runtime.

    A mutex-protected ring.  Nothing here waits: {!push} to a full box
    reports it and returns, so the producer decides how to wait — the
    engine's feeder polls the wall coordinator between retries — and
    the bound is the backpressure that keeps a fast producer from
    ballooning memory ahead of a slow owner domain.  Consumers poll
    with {!try_pop} or {!pop_into}, so an idle owner can interleave
    housekeeping (activity republication) with draining. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity <= 0]. *)

val push : 'a t -> 'a -> bool
(** Enqueue without waiting.  [false] when the box is full or closed:
    the item is not queued.  A full box accepts again once a pop frees
    a slot; a closed one never does. *)

val try_pop : 'a t -> 'a option

val pop_into : 'a t -> 'a array -> max:int -> int
(** Batched drain: pop up to [max] items (bounded by [Array.length out])
    into [out.(0 .. n-1)] under one lock acquisition and return [n].
    Zero on an empty box.  The engine drains one publication batch per
    acquisition so mailbox locking amortizes with everything else
    (DESIGN.md §16). *)

val close : 'a t -> unit
(** No further pushes succeed; queued items remain poppable. *)

val is_drained : 'a t -> bool
(** Closed and empty — the consumer's exit condition. *)

val length : 'a t -> int

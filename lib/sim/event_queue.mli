(** Priority queue of timed events for the discrete-event simulator.
    Events at equal times pop in insertion order (a monotone sequence
    number breaks ties), which keeps runs deterministic. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> time:float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
val size : 'a t -> int
val is_empty : 'a t -> bool

(** Streaming and batch statistics for experiment reporting. *)

type t
(** A mutable accumulator of float observations. *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val total : t -> float
val mean : t -> float
(** [nan] when empty. *)

val stddev : t -> float
(** Sample standard deviation; [nan] when fewer than two observations. *)

val min_value : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t p] for [p] in [\[0, 100\]], by nearest-rank on the stored
    observations.  @raise Invalid_argument on empty accumulator or [p]
    outside the range. *)

val observations : t -> float array
(** Copy of all recorded observations, in insertion order. *)

(** Fixed-width histogram over [\[lo, hi)] with [buckets] bins; values
    outside the range are clamped to the edge bins. *)
module Histogram : sig
  type h

  val create : lo:float -> hi:float -> buckets:int -> h
  val add : h -> float -> unit
  val counts : h -> int array
  val render : h -> width:int -> string
  (** ASCII bar rendering used by the CLI. *)
end

(** A data granule: the smallest unit of access visible to concurrency
    control (§4.0, Notations).  A granule is addressed by the segment it
    lives in and a key within that segment. *)

type t = { segment : int; key : int }

val make : segment:int -> key:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t

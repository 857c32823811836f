(** A small JSON value type with an emitter and a parser, sufficient for
    the benchmark reports ([BENCH_hot_paths.json]) and the CI regression
    gate that reads them back.  Deliberately dependency-free: the toolchain
    ships no JSON library and the grammar we need is the one we emit. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val num_of_int : int -> t

val schema_version : int
(** Version of every JSON document this tree emits.  Bumped when a
    report's shape changes incompatibly; readers tolerate unknown fields
    (the parser keeps them, the accessors ignore them), so additions
    don't bump it. *)

val with_schema : (string * t) list -> t
(** An object with [schema_version] prepended — the constructor every
    emitted report goes through. *)

val schema_of : t -> int option
(** The document's [schema_version] field, if it is an integer.  Old
    documents (pre-versioning) return [None]; readers treat that as
    version 1. *)

val to_string : t -> string
(** Pretty-printed, two-space indent, trailing newline.  Non-finite
    numbers (JSON has no token for them) emit as [null]. *)

val to_file : string -> t -> unit

exception Parse_error of string

val of_string : string -> t
(** @raise Parse_error on malformed input. *)

val of_file : string -> t

val member : string -> t -> t option
(** Field of an object; [None] elsewhere. *)

val path : string list -> t -> t option
(** Nested {!member}. *)

val number : t -> float option

val num_at : string list -> t -> float
(** The number at a {!path}; [nan] when it is missing or not a number. *)

(** Single-version store: the substrate of the classical baselines
    (two-phase locking, basic timestamp ordering and SDD-1), which keep
    one copy of each granule plus the read/write registrations the paper
    wants to avoid.

    The cell records the write timestamp of the last writer so the schedule
    log can name the version a read observed, and the read timestamp
    register that basic TSO maintains.  Writes in place by a live
    transaction go through {!write_undoable}, which keeps the undo image
    its abort restores. *)

type 'a cell = private {
  mutable value : 'a;
  mutable wts : Time.t;  (** [I] of the last (committed or in-place) writer *)
  mutable rts : Time.t;  (** basic-TSO read register *)
}

type 'a t

val create : init:(Granule.t -> 'a) -> 'a t
val cell : 'a t -> Granule.t -> 'a cell
val read : 'a t -> Granule.t -> 'a * Time.t
(** Value and the write timestamp of the version it represents. *)

val write : 'a t -> Granule.t -> value:'a -> wts:Time.t -> unit
val set_rts : 'a t -> Granule.t -> Time.t -> unit
(** Raise the cell's read register to at least the given time. *)

val granule_count : 'a t -> int

(** {1 Undo images}

    Keyed by transaction id: each entry holds the cell as it stood before
    the transaction's first write of the granule. *)

val write_undoable :
  'a t -> Txn.id -> Granule.t -> value:'a -> wts:Time.t -> unit
(** {!write} on behalf of a live transaction, keeping the undo image on
    its first write of the granule. *)

val written : 'a t -> Txn.id -> Granule.t list
(** The granules the transaction has written, newest first. *)

val forget : 'a t -> Txn.id -> unit
(** Commit: drop the transaction's undo images. *)

val undo : 'a t -> Txn.id -> unit
(** Abort: restore every granule the transaction wrote, then {!forget}. *)

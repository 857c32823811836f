(** The multi-version schedule of §2.0: the ordered sequence of steps
    [<transaction id, action, version of a data granule>].

    Every controller in the repository (HDD and all baselines) appends its
    granted accesses here; the serializability certifier replays the log to
    build the transaction dependency graph.  A version is identified by the
    write timestamp of the transaction that created it, which is unique per
    granule because writers of one granule carry distinct timestamps. *)

type action = Read | Write

type step = {
  txn : Txn.id;
  action : action;
  granule : Granule.t;
  version : Time.t;  (** write timestamp of the version read or created *)
}

type t

val create : unit -> t
val log_read : t -> txn:Txn.id -> granule:Granule.t -> version:Time.t -> unit
val log_write : t -> txn:Txn.id -> granule:Granule.t -> version:Time.t -> unit

val drop_txn : t -> Txn.id -> unit
(** Erase the steps of an aborted transaction: the final schedule contains
    committed work only (the paper's formalism has no aborts). *)

(** The same three into a controller's optional log: [None] records
    nothing. *)

val log_read_opt :
  t option -> txn:Txn.id -> granule:Granule.t -> version:Time.t -> unit

val log_write_opt :
  t option -> txn:Txn.id -> granule:Granule.t -> version:Time.t -> unit

val drop_txn_opt : t option -> Txn.id -> unit

val steps : t -> step list
(** In append order, aborted-and-dropped steps excluded. *)

val length : t -> int

(** The serializability certifier (§2.0, strengthened).

    Replays a {!Sched_log} into the full multiversion serialization graph
    (Bernstein & Goodman) with the version order given by write
    timestamps, and checks it for cycles: acyclicity certifies one-copy
    serializability.  This is a strict strengthening of the paper's §2
    dependency graph (reader-of-version and adjacent-overwrite arcs):
    the extra version-order arcs are what catch Figure 1's lost update
    when a single-version controller logs its in-place writes.  Every
    protocol in the repository, the paper's and the baselines', is
    validated against this single ground truth; the counter-example
    experiments (Figures 1, 3 and 4) use the witness cycle it reports.

    Arc orientation follows the paper ([t2 -> t1] reads "t2 depends on
    t1"). *)

type verdict = {
  graph : Hdd_graph.Digraph.t;  (** nodes are transaction ids *)
  serializable : bool;
  cycle : int list option;  (** witness when not serializable *)
}

val dependency_graph : Sched_log.t -> Hdd_graph.Digraph.t

val certify : Sched_log.t -> verdict

val serializable : Sched_log.t -> bool

val equivalent_serial_order : Sched_log.t -> Txn.id list option
(** A topological order of the dependency graph reversed into an
    equivalent serial schedule (dependants after the transactions they
    depend on); [None] when not serializable. *)

val pp_verdict : Format.formatter -> verdict -> unit

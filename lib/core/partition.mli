(** Hierarchical database decomposition (§3.2).

    Builds the data hierarchy graph DHG(P, Tᵘ) of a {!Spec.t} — an arc
    [Di -> Dj] whenever some update-transaction type writes in [Di] and
    accesses [Dj] — and validates that the partition is *TST-hierarchical*:
    the DHG must be a transitive semi-tree.  On success it packages the
    graph, its transitive reduction (the critical arcs), and the derived
    transaction classification ([T_i] writes [D_i]) that the protocols and
    activity-link functions are defined over.  The transaction hierarchy
    graph THG shares the DHG's shape (classes and segments are in
    bijection), so one graph serves both roles. *)

type error =
  | Multiple_write_segments of string * int list
      (** a type writes more than one segment — §3.2's Property shows
          this always breaks TST-hierarchy; reported eagerly with the
          offending type *)
  | Cyclic of int list  (** witness cycle, as segment ids *)
  | Not_semi_tree of int * int
      (** two distinct undirected critical paths join these segments *)

val error_to_string : error -> string

type t = private {
  spec : Spec.t;
  dhg : Hdd_graph.Digraph.t;  (** nodes: all segment ids *)
  reduction : Hdd_graph.Digraph.t;  (** critical arcs *)
  n : int;  (** segment count *)
  cp : int list option array;
      (** dense [CP_i^j] matrix, row-major [i*n + j], filled at build
          time — the graph is static, so path lookups on the read path
          are O(1) array reads *)
  ucp_m : int list option array;  (** dense undirected-CP matrix *)
  lowest : int list;  (** precomputed {!lowest_classes} *)
}

val dhg_of_spec : Spec.t -> Hdd_graph.Digraph.t
(** The raw graph, before any validation — exposed for experiments that
    show rejection of illegal partitions. *)

val build : Spec.t -> (t, error) result

val build_exn : Spec.t -> t
(** @raise Invalid_argument with the rendered error. *)

val segment_count : t -> int

val class_of_type : t -> Spec.txn_type -> int
(** The root segment (= class index) of an update type. *)

val critical_path : t -> int -> int -> int list option
(** [CP_i^j] as segment ids [i; ...; j]; [Some [i]] when [i = j].
    An O(1) lookup in the precomputed matrix. *)

val critical_path_search : t -> int -> int -> int list option
(** Reference implementation of {!critical_path}: the per-call DFS over
    the reduction that the matrix is built from.  Kept as the benchmark
    ablation partner and the oracle for the equivalence property. *)

val higher_than : t -> int -> int -> bool
(** [higher_than h j i] is the paper's [T_j ↑ T_i]. *)

val on_one_critical_path : t -> int -> int -> bool
(** Do [CP_i^j] or [CP_j^i] exist (or [i = j])? *)

val ucp : t -> int -> int -> int list option
(** Unique undirected critical path [<i, ..., j>]; O(1) matrix lookup. *)

val ucp_search : t -> int -> int -> int list option
(** Reference implementation of {!ucp} (per-call BFS), same role as
    {!critical_path_search}. *)

val lowest_classes : t -> int list
(** Classes minimal in the ↑ order — no other class lies below them
    (in-degree zero in the reduction).  §5.2 starts time walls here. *)

val may_read : t -> class_id:int -> segment:int -> bool
(** Does the declared access pattern let class [class_id] read [segment]?
    True when equal (Protocol B) or when the segment's class is higher
    (Protocol A). *)

val to_dot : t -> string

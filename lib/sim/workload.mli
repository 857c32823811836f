(** Workload definitions: the synthetic stand-ins for the paper's §7.4
    case studies (see DESIGN.md, substitutions).

    A workload bundles a validated partition, transaction templates with
    mix weights, and the store initialiser, so the same workload value
    drives every controller. *)

type op = Read of Granule.t | Write of Granule.t * int

type template = {
  tpl_name : string;
  kind : Controller.kind;
  weight : float;
  gen : Hdd_util.Prng.t -> op list;
      (** fresh operation list per transaction instance *)
}

type t = {
  wl_name : string;
  partition : Hdd_core.Partition.t;
  templates : template list;
  init : Granule.t -> int;
}

val pick_template : t -> Hdd_util.Prng.t -> template
(** Weighted choice. *)

val segment_count : t -> int

(** {1 Builders} *)

val inventory :
  ?base_keys:int ->
  ?items:int ->
  ?orders:int ->
  ?events_per_txn:int ->
  ?reads_per_recompute:int ->
  ?ro_weight:float ->
  ?adhoc_weight:float ->
  ?zipf_alpha:float ->
  unit ->
  t
(** The paper's §1.2.1 retail application.  Segments: [D0] = reorder
    records (lowest), [D1] = inventory levels, [D2] = event records
    (sales / modifications / arrivals, highest).  Type 1 inserts events
    into [D2]; type 2 reads events and posts an inventory level in [D1];
    type 3 reads events and inventory and writes a reorder record in
    [D0]; ad hoc read-only transactions audit all three. *)

val chain :
  depth:int ->
  ?keys_per_segment:int ->
  ?cross_read_fraction:float ->
  ?ro_weight:float ->
  ?zipf_alpha:float ->
  unit ->
  t
(** A [depth]-segment chain [D_{depth-1} <- … <- D0]: class [i] writes
    [D_i] and reads upward.  Every transaction makes four reads, and an
    update then one write.  [cross_read_fraction] sets the share of a
    transaction's reads that go to higher segments rather than its own —
    the knob of experiment E11. *)

val tree :
  ?branches:int ->
  ?keys_per_segment:int ->
  ?ro_weight:float ->
  unit ->
  t
(** Segment 0 on top, [branches] child segments each with a class that
    reads the top; read-only transactions span sibling branches — read
    sets on no single critical path, so only the time wall (Protocol C)
    serves them. *)

val random_hierarchy :
  seed:int ->
  ?segments:int ->
  ?keys_per_segment:int ->
  ?ro_weight:float ->
  unit ->
  t
(** A random TST-hierarchical workload: a random tree of segments (arcs
    point from each segment to its parent), one class per segment whose
    reads cover a random subset of its ancestor path (always a legal
    pattern — ancestor arcs are transitively induced), plus read-only
    transactions over arbitrary segments.  Used by the certification
    sweeps to cover hierarchy shapes beyond the fixed examples. *)

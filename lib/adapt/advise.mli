(** The repair advisor: turns {!Drift} signals into concrete,
    pre-validated decomposition repairs, scored by a cost model
    (DESIGN.md §17).

    Three moves exist, mirroring the two levels a repair can act on:

    - [Migrate] re-assigns a class to another worker domain.  Pure
      ownership change: the partition object is untouched, so the
      multicore engine applies it live behind a park barrier
      ({!Hdd_runtime.Engine.run_script}'s [plan]) and the differential
      oracle must not be able to tell.
    - [Split] carves the keys at or above [pivot] out of a segment into
      a fresh child segment with its own (new) transaction class — the
      granularity refinement of §7.2.2, online.  The child's class
      writes only the child and reads only child and parent, so the
      dynamic hierarchy graph grows a leaf and TST-ness is preserved by
      construction.
    - [Merge] collapses segment [b] into segment [a] — §7.2.1's
      legalization step, the repair for a {!Drift.signal.Tst_break}.

    Every spec-level move the advisor emits has already passed
    {!Hdd_core.Partition.build}: an advisor that can propose an illegal
    decomposition is a bug, and the mutation property in the test suite
    holds it to that. *)

type move =
  | Migrate of { class_id : int; to_worker : int }
  | Split of { segment : int; pivot : int }
  | Merge of { a : int; b : int }

val pp_move : Format.formatter -> move -> unit

type repair = {
  move : move;
  spec : Hdd_core.Spec.t option;
      (** the post-repair decomposition; [None] for [Migrate], which
          does not change the spec *)
  cost : float;  (** state moved / granularity lost, abstract units *)
  benefit : float;  (** contention spread / legality restored *)
  why : string;
}

(** {1 Spec transforms} *)

val split_spec : Hdd_core.Spec.t -> segment:int -> Hdd_core.Spec.t
(** Append segment ["<name>+"] as a child of [segment], plus a type
    ["t<name>+"] writing the child and reading child and parent.  The
    result always validates when the input does (leaf extension).
    @raise Invalid_argument on an out-of-range segment. *)

val merge_spec : Hdd_core.Spec.t -> a:int -> b:int -> Hdd_core.Spec.t * int array
(** Collapse segment [b] into [a]: every type's segment references are
    remapped, [b]'s name disappears, indices above [b] shift down.
    Returns the merged spec and the segment map (old id -> new id).
    The result does {e not} always validate — merging non-adjacent
    segments of a chain bends it into a cycle — which is why
    {!merge_candidates} filters through {!Hdd_core.Partition.build}.
    @raise Invalid_argument when [a = b] or out of range. *)

val merge_candidates : Hdd_core.Spec.t -> (int * int) list
(** The segment pairs whose merge validates as TST-hierarchical, i.e.
    the legal [Merge] moves from this spec. *)

(** {1 The advisor} *)

val propose :
  ?workers:int ->
  ?owner_map:int array ->
  ?keys_per_segment:int ->
  Drift.t ->
  repair list
(** Repairs for the detector's current {!Drift.signals}, best first:

    - a [Hotspot] yields a [Migrate] of the hot class to the
      least-loaded other worker (benefit = the hot share, cost ~ one
      class's state) and a [Split] of the hot segment at
      [keys_per_segment / 2] (benefit = half the hot share, cost ~ a
      fresh segment plus moved keys);
    - a [Tst_break] yields the [Merge] restoring legality: the first
      merge {!Hdd_core.Legalize} would perform on the observed spec
      (benefit = 1, cost = granularity lost, i.e. merges needed).

    [owner_map] (default {!Hdd_runtime.Engine.default_owner_map} over
    [workers], default 2) tells the advisor who owns what; [Migrate]
    proposals are omitted when only one worker exists. *)


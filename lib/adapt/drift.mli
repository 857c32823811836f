(** The drift detector: folds the live {!Hdd_obs.Trace} event stream
    into a rolling picture of the *dynamic* hierarchy — what the
    workload actually does, as opposed to what the transaction analysis
    declared — and raises signals when the decomposition has drifted
    (DESIGN.md §17).

    Two kinds of drift matter to the paper's technique:

    - {b contention concentration}: the share of recent commits rooted
      in one class exceeds [hot_share] — the decomposition still holds,
      but one worker owns most of the work and the parallelism the
      hierarchy promised is gone.  Repair: migrate classes between
      workers, or split the hot segment (§7.2.2's granularity choice
      revisited online).
    - {b TST-ness breaks}: recurring ad-hoc update transactions
      (§7.1.1) whose footprints, admitted into the analysis as real
      transaction types, would make the data hierarchy graph stop being
      a transitive semi-tree.  Occasional ad-hoc traffic is what the
      barrier rule is for; a *recurring* footprint ([adhoc_promote]
      sightings in the window) is the paper's §7.2.1 restructuring
      trigger.  Repair: merge the offending segments
      ({!Hdd_core.Legalize}'s transformation, applied online).

    The detector is a pure fold: feed it records (live via
    {!Hdd_obs.Trace.subscribe}, or offline over a merged trace) and ask
    for {!signals} at any point.  It never mutates the engine. *)

type config = {
  window : int;  (** sliding window size, in committed transactions *)
  hot_share : float;
      (** commit share above which a class is flagged hot *)
  min_commits : int;
      (** no hotspot verdicts before the window holds this many *)
  adhoc_promote : int;
      (** sightings before an ad-hoc footprint joins the observed
          analysis *)
}

val default_config : config
(** window 256, hot_share 0.5, min_commits 32, adhoc_promote 3. *)

type signal =
  | Hotspot of { class_id : int; share : float; commits : int }
      (** [share] of the window's commits root in [class_id] *)
  | Tst_break of {
      edge : int * int;
          (** the DHG edge witnessing the violation: the segment pair
              joined by two distinct undirected critical paths (or the
              first two nodes of a witness cycle) *)
      wsegs : int list;
      rsegs : int list;  (** the promoted footprint that broke it *)
      error : Hdd_core.Partition.error;
    }

type t

val create : ?config:config -> spec:Hdd_core.Spec.t -> unit -> t

val feed : t -> Hdd_obs.Trace.record -> unit
(** Fold one record: [Begin] records classify the transaction, [Commit]
    records advance the window.  Everything else is ignored. *)

val observe : t -> Hdd_obs.Trace.record list -> unit
(** [feed] a whole merged trace, in order. *)

val observed_spec : t -> Hdd_core.Spec.t
(** The declared spec plus one transaction type per promoted ad-hoc
    footprint — the spec whose DHG is the rolling dynamic hierarchy. *)

val dhg : t -> Hdd_graph.Digraph.t
(** The rolling dynamic-hierarchy graph: {!Hdd_core.Partition.dhg_of_spec}
    of {!observed_spec}. *)

val witness_edge : Hdd_core.Partition.error -> int * int
(** The DHG edge witnessing a build failure: [Not_semi_tree]'s pair,
    the first arc of a [Cyclic] witness, or the first two write
    segments of a [Multiple_write_segments] type.  [(-1, -1)] when the
    error carries no usable pair.  Used by the advisor's reasons and by
    the mutation property's shrinker output. *)

val signals : t -> signal list
(** Current drift verdicts: at most one [Hotspot] (the hottest class
    over threshold) and one [Tst_break] per promoted footprint the
    declared hierarchy cannot absorb. *)

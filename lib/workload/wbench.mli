(** The hybrid-CC workload benchmark ([hdd_cli bench hybrid],
    DESIGN.md §18): the {!Tpcc} suite at {low, high} contention, closed
    loop, across pure HDD, the adaptive {!Hdd_hybrid.Hybrid_sched} and
    the MV2PL baseline, plus an open-loop million-user SLO section per
    contention point.  All virtual time: deterministic per seed, so the
    throughput-ratio gates hold on any machine. *)

type cell = {
  c_controller : string;  (** "hdd" | "hybrid" | "mv2pl" *)
  c_contention : string;  (** "low" | "high" *)
  c_committed : int;
  c_restarts : int;
  c_gave_up : int;
  c_throughput : float;  (** commits per unit of virtual time *)
  c_escalations : int;  (** hybrid: applied mode flips; others 0 *)
  c_escalated_high : bool;
      (** hybrid: the stock class ran escalated at some point *)
}

type result = {
  w_seed : int;
  w_quick : bool;
  w_mpl : int;
  w_target : int;
  w_cells : cell list;
  w_ratio_low : float;  (** hybrid / hdd throughput, low contention *)
  w_ratio_high : float;  (** hybrid / hdd throughput, high contention *)
  w_slo_users : int;
  w_slo : (string * Openloop.slo) list;  (** hybrid, per contention *)
}

val run : ?quick:bool -> ?seed:int -> unit -> result
(** [quick] shrinks the closed loops (300 instead of 1500 target
    commits) for per-push CI. *)

val gates : result -> string list
(** Empty when every cell committed, the hybrid escalated at the high
    point, both throughput-ratio floors hold, and the SLO quantiles
    are finite and ordered. *)

val to_json : result -> Hdd_benchkit.Jsonlite.t

val tracked : Hdd_benchkit.Jsonlite.t -> (string * float) list
(** Gated against a baseline: [ratio_high]. *)

val pp : Format.formatter -> result -> unit

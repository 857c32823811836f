(** Convenience layer used by the experiments, the CLI and the
    integration tests: build fresh controllers for a workload and run a
    protocol comparison over it. *)

type spec =
  | Hdd
  | S2pl
  | S2plNoRl  (** 2PL with read locks off — the Figure 3 cripple *)
  | Tso
  | TsoNoRts  (** TSO with read timestamps off — the Figure 4 cripple *)
  | Mvto
  | Mv2pl
  | Prudent
      (** prudent-precedence ordering — commit-waits require a driver
          honouring [Controller.try_commit], as {!Runner} and the
          schedule-space explorer do *)
  | Sdd1
  | Nocc

val spec_name : spec -> string
val all_controlled : spec list
(** Every controller that actually enforces serializability (i.e. all but
    [Nocc] and the crippled variants), in Figure 10 presentation order:
    [Hdd; Sdd1; Mv2pl; S2pl; Tso; Mvto]. *)

val all : spec list
(** Every spec, crippled variants and [Nocc] included — the set the
    schedule-space explorer sweeps. *)

val make :
  ?log:Sched_log.t -> ?trace:Hdd_obs.Trace.t -> spec -> Workload.t ->
  Controller.t
(** A fresh controller instance (own clock and store) for the workload.
    [trace] is threaded to the HDD scheduler (the baselines carry no
    emission hooks and ignore it). *)

val compare_protocols :
  ?config:Runner.config ->
  ?specs:spec list ->
  Workload.t ->
  Runner.result list
(** Run the workload once per controller, each from a fresh instance with
    the same seed, and return the results in spec order. *)

val certified_run :
  ?config:Runner.config -> spec -> Workload.t -> Runner.result * bool
(** Run with schedule logging on and certify the final committed schedule;
    the boolean is the serializability verdict. *)

val traced_run :
  ?config:Runner.config ->
  ?capacity:int ->
  spec ->
  Workload.t ->
  Runner.result * Hdd_obs.Trace.t * Hdd_obs.Metrics.t * Hdd_core.Oracle.report
(** Run with the full observability stack on: a fresh enabled trace of
    [capacity] records (default 65536), the standard {!Hdd_obs.Metrics}
    bridge and a non-raising {!Hdd_core.Oracle} subscribed to the trace
    while the run executes, so its monitor sees every record, those the
    ring evicts included.  The report's [monitor-replay] family is the
    verdict; for the baselines the trace only carries driver-level
    [Sim] records. *)

(** The discrete-event simulation driver: closed loop ({!run}) and open
    Poisson arrivals ({!run_open}).

    In closed mode, [mpl] workers each run transactions back to back:
    draw a template, begin, issue operations (each costing [op_cost] of
    virtual time), commit, repeat.  A blocked operation parks the worker until all its
    blockers finish; a rejected operation aborts the transaction and
    restarts it with a fresh timestamp under the [retry] policy:
    exponential backoff with jitter per consecutive restart, a
    per-transaction restart cap after which the transaction is given up
    ({!result.gave_up}), and a system-wide livelock detector that fails
    the run rather than spin.  The driver maintains the waits-for
    relation over parked workers and resolves deadlocks by aborting the
    requester whose wait closed a cycle (none of the timestamp-based
    controllers can deadlock; the locking ones can).

    Virtual time, not wall time, is reported: the simulator substitutes
    for the paper's multi-processor testbed (see DESIGN.md). *)

type config = {
  mpl : int;  (** multiprogramming level: concurrent workers *)
  target_commits : int;  (** stop once this many transactions committed *)
  seed : int;
  op_cost : float;  (** virtual service time per granted operation *)
  retry : Retry.policy;  (** restart/backoff/give-up discipline *)
  max_events : int;  (** hard safety bound; exceeded = livelock bug *)
}

val default_config : config

type result = {
  controller : string;
  workload : string;
  committed : int;
  restarts : int;  (** aborts from rejections and deadlocks *)
  deadlocks : int;
  gave_up : int;  (** transactions dropped by the restart cap *)
  total_backoff : float;  (** virtual time spent backing off *)
  max_restart_streak : int;
      (** longest run of restarts with no commit in between *)
  vtime : float;  (** virtual time consumed *)
  throughput : float;  (** commits per unit of virtual time *)
  mean_response : float;
  p95_response : float;
  counters : Hdd_obs.Counters.t;  (** controller-side deltas *)
}

val run : ?trace:Hdd_obs.Trace.t -> config -> Workload.t -> Controller.t -> result
(** Closed loop: [mpl] workers run transactions back to back.  With
    [trace], driver-level outcomes the controller never sees — restarts,
    deadlock aborts, give-ups — emit [Sim] records.
    @raise Failure when [max_events] is exceeded. *)

val run_open :
  ?trace:Hdd_obs.Trace.t ->
  ?on_response:(float -> unit) ->
  arrival_rate:float -> config -> Workload.t -> Controller.t -> result
(** Open system: transactions arrive in a Poisson stream of the given
    rate and are served by [mpl] workers; arrivals finding every worker
    busy queue FIFO, and response time is measured from the arrival
    instant, so queueing delay counts.  Offered load beyond the service
    capacity shows up as unbounded response times, which is the point of
    the load-latency experiment.  [on_response] observes every commit's
    response time — the workload suite feeds latency histograms with it.
    @raise Invalid_argument on a non-positive rate;
    @raise Failure when [max_events] is exceeded. *)

val run_arrivals :
  ?trace:Hdd_obs.Trace.t ->
  ?on_response:(float -> unit) ->
  interarrival:(Hdd_util.Prng.t -> float) ->
  config -> Workload.t -> Controller.t -> result
(** Like {!run_open} but with an arbitrary interarrival sampler — the
    hook for bursty (MMPP) and think-time-driven arrival processes from
    the workload suite.  Negative samples are clamped to 0. *)

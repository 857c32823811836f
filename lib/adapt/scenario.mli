(** Deterministic drift scenarios — the end-to-end
    detect → advise → execute loop run serially with a trace attached,
    frozen as byte-stable goldens under [test/golden/adapt_*.trace].

    Each scenario is fully deterministic (serial executor, fixed
    workload, no randomness), so two runs produce identical record
    lists and the golden files pin the whole adaptive pipeline: what
    the detector flags, which repair the advisor ranks first, and the
    exact trace the executor emits through the swap. *)

type golden = {
  g_name : string;
  g_what : string;  (** one-line description for reports *)
}

val goldens : golden list
(** The two scenarios, in this order:

    - [hotspot_migration]: a chain hierarchy where one class takes over
      the commit window: the detector flags the hotspot, the advisor's
      best repair is a [Migrate], and the executor applies it (epoch
      bump, [fresh_store = false]).
    - [class_split]: the same drift pushed further: the advisor's split
      repair is applied instead, carving the hot segment's upper key
      range into a fresh child class ([fresh_store = true], state
      carried), after which traffic runs against the refined
      decomposition. *)

val golden_records : golden -> Hdd_obs.Trace.record list
(** Re-run the scenario and return its merged trace — what the golden
    files freeze, and what the monitor replays in the test suite. *)

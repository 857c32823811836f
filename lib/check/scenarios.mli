(** The paper's anomaly figures as bounded workloads for the explorer.

    Each scenario fixes a tiny workload together with the set of systems
    expected to exhibit a non-serializable committed schedule somewhere
    in its interleaving space.  The conformance tests sweep every system
    over every scenario and check the anomaly sets match exactly: the
    HDD scheduler and the full-strength baselines must certify every
    interleaving, while the explorer must {e rediscover} the classic
    anomalies on the susceptible systems — Figure 1's lost update under
    no concurrency control, and the Figure 3/4 failure modes on the
    deliberately crippled 2PL and TSO variants. *)

type t = {
  sc_name : string;
  description : string;
  workload : Explore.workload;
  expect_anomaly : string list;
      (** {!Explore.system} names for which some interleaving must fail
          certification; every other system must show zero anomalies. *)
}

val fig1 : t
(** Figure 1's lost update: two transactions of one class, both
    read-modify-write the same account granule. *)

val fig34 : t
(** The inventory pipeline of Figures 3 and 4: an event insert, an
    inventory posting that reads events, and a reorder computation that
    reads both.  Exposes the unprotected-read failure of 2PL without
    read locks (Figure 3) and of TSO without read timestamps
    (Figure 4). *)

val wall : t
(** A two-segment chain plus an ad-hoc read-only transaction spanning
    both segments — the schedules Protocol C's time walls exist to
    serialise. *)

val adhoc : t
(** The inventory partition with an ad-hoc update transaction writing
    two segments — outside every analysed class, handled by the §7.1.1
    barrier in HDD and by plain locking/timestamps in the baselines. *)

val all : t list

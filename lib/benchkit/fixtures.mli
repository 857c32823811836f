(** Shared benchmark fixtures.  The [micro] and [hot_paths] suites of
    [hdd_cli bench] build their worlds from here, so the two cannot
    drift apart. *)

val chain_partition : int -> Hdd_core.Partition.t
(** A depth-[n] linear hierarchy: class [i] writes segment [i] and reads
    every segment above it — the worst case for activity-link
    composition length. *)

val branch_partition : int -> Hdd_core.Partition.t
(** [n] independent branches over one shared base segment. *)

val populated_ctx :
  ?finished:int -> depth:int -> unit -> Hdd_core.Activity.ctx * Time.t
(** A registry in steady state over a {!chain_partition}, wrapped in an
    activity context: per class, [finished] committed transactions
    (default 40, the knob that scales registry depth for the
    scan-vs-index comparisons) and two still-running ones.  Also returns
    the clock's current time as a representative query point. *)

val list_chain : ?stride:int -> versions:int -> unit -> int Hdd_mvstore.Chain.t
(** A committed list-backed version chain (the pre-PR representation).
    Timestamps are [stride, 2*stride, ...] (default stride 2) so lookups
    can be aimed anywhere in the chain's history. *)

val array_chain : ?stride:int -> versions:int -> unit -> int Hdd_mvstore.Achain.t
(** The same chain in the array-backed representation the store serves. *)

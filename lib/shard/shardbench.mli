(** Cross-shard read throughput: HDD's publication-composed thresholds
    against an in-tree 2PC-read baseline ([BENCH_shard.json]).

    Both sides run the same closed loop — one domain per shard over the
    loopback hub, each transaction writing its own segment and reading
    [cross] keys of the next segment up the chain, which a different
    shard owns.  The HDD side serves those reads passively off received
    publications and deltas (Protocol A: no read-time round trip); the
    2PC side pays lock / read / unlock — three round trips per read —
    and in exchange gets the cheapest possible write path
    ({!Node.commit_local}: no registry, no replication, no
    publications).  The gate is simply that shipping CC state beats
    asking permission: [speedup > 1]. *)

type side = {
  s_txns : int;
  s_cross_reads : int;
  s_txns_per_sec : float;
  s_cross_reads_per_sec : float;
  s_lat_p50_us : float;
      (** closed-loop per-transaction latency quantiles: one sample is
          a full exec+pump round trip on the issuing shard *)
  s_lat_p95_us : float;
  s_lat_p99_us : float;
}

type result = {
  r_shards : int;
  r_seconds : float;
  r_cross_per_txn : int;
  r_publish_every : int;  (** publication batch of the batched HDD run *)
  r_hdd : side;  (** HDD at publish_every = 1 (per-commit publication) *)
  r_hdd_batched : side option;
      (** HDD at [r_publish_every]; [None] when the batch is 1 *)
  r_tpc : side;
  r_speedup : float;  (** per-commit HDD cross-reads/sec over 2PC's *)
  r_batch_delta_p50_us : float option;
      (** batched p50 minus per-commit p50 — negative means batching
          shortened the commit path *)
}

val run :
  ?shards:int ->
  ?seconds:float ->
  ?cross:int ->
  ?keys:int ->
  ?publish_every:int ->
  unit ->
  result
(** Defaults: 4 shards, 1s per side, 4 cross-shard reads per
    transaction, 64 keys per segment, publication batch 8 (clamped to
    >= 1; at 1 the batched side is skipped).  Spawns domains; do not
    call from a process that intends to fork afterwards. *)

val to_json : result -> Hdd_benchkit.Jsonlite.t

val tracked : Hdd_benchkit.Jsonlite.t -> (string * float) list
(** Gated against a baseline: [speedup]. *)

val gates : result -> string list
(** Structural failures ([] when sound): any side idle (including the
    batched one), or HDD not ahead of the baseline. *)

val pp : Format.formatter -> result -> unit

type t = {
  mutable begins : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reads_a : int;
  mutable reads_b : int;
  mutable reads_c : int;
  mutable writes : int;
  mutable read_registrations : int;
  mutable blocks : int;
  mutable rejects : int;
  mutable publications : int;
  mutable stale_waits : int;
  mutable wall_releases : int;
  mutable wall_lag_sum : int;
  mutable wall_lag_max : int;
  mutable repartitions : int;
  mutable escalations : int;
}

let create () =
  { begins = 0; committed = 0; aborted = 0; reads_a = 0; reads_b = 0;
    reads_c = 0; writes = 0; read_registrations = 0; blocks = 0; rejects = 0;
    publications = 0; stale_waits = 0; wall_releases = 0; wall_lag_sum = 0;
    wall_lag_max = 0; repartitions = 0; escalations = 0 }

let copy c = { c with begins = c.begins }

(* every field but the lag maximum combines by [f] *)
let combine f a b ~lag_max =
  { begins = f a.begins b.begins;
    committed = f a.committed b.committed;
    aborted = f a.aborted b.aborted;
    reads_a = f a.reads_a b.reads_a;
    reads_b = f a.reads_b b.reads_b;
    reads_c = f a.reads_c b.reads_c;
    writes = f a.writes b.writes;
    read_registrations = f a.read_registrations b.read_registrations;
    blocks = f a.blocks b.blocks;
    rejects = f a.rejects b.rejects;
    publications = f a.publications b.publications;
    stale_waits = f a.stale_waits b.stale_waits;
    wall_releases = f a.wall_releases b.wall_releases;
    wall_lag_sum = f a.wall_lag_sum b.wall_lag_sum;
    wall_lag_max = lag_max;
    repartitions = f a.repartitions b.repartitions;
    escalations = f a.escalations b.escalations }

let add a b = combine ( + ) a b ~lag_max:(Int.max a.wall_lag_max b.wall_lag_max)
let diff a b = combine ( - ) a b ~lag_max:a.wall_lag_max
let reads c = c.reads_a + c.reads_b + c.reads_c

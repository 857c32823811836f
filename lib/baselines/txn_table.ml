open Hdd_core.Outcome

type 's t = {
  name : string;
  clock : Time.Clock.clock;
  log : Sched_log.t option;
  m : Hdd_obs.Counters.t;
  live : (Txn.id, Txn.t * 's) Hashtbl.t;
  mutable next_id : int;
}

let create ?log ?(metrics = Hdd_obs.Counters.create ()) ~name ~clock () =
  { name; clock; log; m = metrics; live = Hashtbl.create 64; next_id = 1 }

let metrics t = t.m
let tick t = Time.Clock.tick t.clock

let begin_txn t ~kind s =
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn = Txn.make ~id ~kind ~init:(tick t) in
  Hashtbl.replace t.live id (txn, s);
  t.m.begins <- t.m.begins + 1;
  txn

let state t (txn : Txn.t) =
  match Hashtbl.find_opt t.live txn.Txn.id with
  | Some (_, s) -> s
  | None ->
    invalid_arg (Printf.sprintf "%s: unknown transaction %d" t.name txn.Txn.id)

let reading t txn =
  let s = state t txn in
  t.m.reads_b <- t.m.reads_b + 1;
  s

let writing t txn =
  let s = state t txn in
  t.m.writes <- t.m.writes + 1;
  s

let fold f t acc = Hashtbl.fold (fun _ (txn, s) acc -> f txn s acc) t.live acc
let register t = t.m.read_registrations <- t.m.read_registrations + 1

let block t ids =
  t.m.blocks <- t.m.blocks + 1;
  Blocked ids

let reject t why =
  t.m.rejects <- t.m.rejects + 1;
  Rejected why

let log_read t (txn : Txn.t) g v =
  Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:v

let log_write t (txn : Txn.t) g v =
  Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g ~version:v

let commit ?at t txn =
  ignore (state t txn);
  Txn.commit txn ~at:(match at with Some at -> at | None -> tick t);
  Hashtbl.remove t.live txn.Txn.id;
  t.m.committed <- t.m.committed + 1

let abort t txn =
  ignore (state t txn);
  Sched_log.drop_txn_opt t.log txn.Txn.id;
  Txn.abort txn ~at:(tick t);
  Hashtbl.remove t.live txn.Txn.id;
  t.m.aborted <- t.m.aborted + 1

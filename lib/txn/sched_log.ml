type action = Read | Write

type step = {
  txn : Txn.id;
  action : action;
  granule : Granule.t;
  version : Time.t;
}

type t = {
  mutable steps : step list;  (* reversed *)
  mutable count : int;
  dropped : (Txn.id, unit) Hashtbl.t;
}

let create () = { steps = []; count = 0; dropped = Hashtbl.create 16 }

let push t s =
  t.steps <- s :: t.steps;
  t.count <- t.count + 1

let log_read t ~txn ~granule ~version =
  push t { txn; action = Read; granule; version }

let log_write t ~txn ~granule ~version =
  push t { txn; action = Write; granule; version }

let drop_txn t id = Hashtbl.replace t.dropped id ()

(* Inlined so that a controller without a log pays one test in place,
   not a call, on every read and write. *)
let[@inline] log_read_opt log ~txn ~granule ~version =
  match log with None -> () | Some t -> log_read t ~txn ~granule ~version

let[@inline] log_write_opt log ~txn ~granule ~version =
  match log with None -> () | Some t -> log_write t ~txn ~granule ~version

let drop_txn_opt log id = match log with None -> () | Some t -> drop_txn t id

let steps t =
  List.filter (fun s -> not (Hashtbl.mem t.dropped s.txn)) (List.rev t.steps)

let length t = t.count

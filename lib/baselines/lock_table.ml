type mode = Shared | Exclusive

type lock = { mutable holders : (Txn.id * mode) list }  (** newest first *)

type t = {
  locks : lock Granule.Tbl.t;
  held : (Txn.id, Granule.t list) Hashtbl.t;  (** per transaction *)
  m : Hdd_obs.Counters.t;
}

let create m = { locks = Granule.Tbl.create 256; held = Hashtbl.create 64; m }

let lock_of t g =
  match Granule.Tbl.find_opt t.locks g with
  | Some l -> l
  | None ->
    let l = { holders = [] } in
    Granule.Tbl.add t.locks g l;
    l

let hold t id g =
  let gs = Option.value ~default:[] (Hashtbl.find_opt t.held id) in
  Hashtbl.replace t.held id (g :: gs)

let others lock id keep =
  List.filter_map
    (fun (h, m) -> if h <> id && keep m then Some h else None)
    lock.holders

let refuse t holders =
  t.m.blocks <- t.m.blocks + 1;
  holders

let shared t id g =
  let lock = lock_of t g in
  if List.mem_assoc id lock.holders then []
  else
    match others lock id (( = ) Exclusive) with
    | [] ->
      lock.holders <- (id, Shared) :: lock.holders;
      hold t id g;
      (* setting the read lock is the registration the paper counts *)
      t.m.read_registrations <- t.m.read_registrations + 1;
      []
    | holders -> refuse t holders

let exclusive t id g =
  let lock = lock_of t g in
  let mine = List.assoc_opt id lock.holders in
  if mine = Some Exclusive then []
  else
    match others lock id (fun _ -> true) with
    | [] ->
      if mine = None then hold t id g;
      lock.holders <- [ (id, Exclusive) ];
      []
    | holders -> refuse t holders

let release t id =
  List.iter
    (fun g ->
      let lock = lock_of t g in
      lock.holders <- List.filter (fun (h, _) -> h <> id) lock.holders)
    (Option.value ~default:[] (Hashtbl.find_opt t.held id));
  Hashtbl.remove t.held id

let count t =
  Granule.Tbl.fold (fun _ l acc -> acc + List.length l.holders) t.locks 0

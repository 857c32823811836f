module Sv = Hdd_mvstore.Sv_store
open Hdd_core.Outcome

type mode = Shared | Exclusive

type lock = { mutable holders : (Txn.id * mode) list }

type 'a undo = { granule : Granule.t; old_value : 'a; old_wts : Time.t }

type 'a txn_state = {
  txn : Txn.t;
  mutable locks : Granule.t list;
  mutable undo : 'a undo list;
}

type 'a t = {
  clock : Time.Clock.clock;
  store : 'a Sv.t;
  locks : lock Granule.Tbl.t;
  states : (Txn.id, 'a txn_state) Hashtbl.t;
  log : Sched_log.t option;
  read_locks : bool;
  m : Cc_metrics.t;
  mutable next_id : int;
}

let create ?log ?(read_locks = true) ~clock ~init () =
  { clock; store = Sv.create ~init; locks = Granule.Tbl.create 256;
    states = Hashtbl.create 64; log; read_locks; m = Cc_metrics.create ();
    next_id = 1 }

let metrics t = t.m

let lock_of t g =
  match Granule.Tbl.find_opt t.locks g with
  | Some l -> l
  | None ->
    let l = { holders = [] } in
    Granule.Tbl.add t.locks g l;
    l

let state_of t (txn : Txn.t) =
  match Hashtbl.find_opt t.states txn.Txn.id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "S2pl: unknown transaction %d" txn.Txn.id)

let begin_txn t ~read_only =
  ignore read_only;
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn =
    (* every 2PL transaction is "class 0": classes play no role here, but
       a concrete class keeps the record usable by shared reporting *)
    Txn.make ~id ~kind:(Txn.Update 0) ~init:(Time.Clock.tick t.clock)
  in
  Hashtbl.replace t.states id { txn; locks = []; undo = [] };
  t.m.begins <- t.m.begins + 1;
  txn

let holds lock id = List.mem_assoc id lock.holders

let others lock id =
  List.filter_map
    (fun (h, _) -> if h <> id then Some h else None)
    lock.holders

let read t txn g =
  let st = state_of t txn in
  let id = txn.Txn.id in
  let lock = lock_of t g in
  t.m.reads <- t.m.reads + 1;
  let grant () =
    let value, wts = Sv.read t.store g in
    Sched_log.log_read_opt t.log ~txn:id ~granule:g ~version:wts;
    Granted value
  in
  if not t.read_locks then grant ()
  else if holds lock id then grant ()
  else
    let exclusive_others =
      List.filter_map
        (fun (h, m) -> if h <> id && m = Exclusive then Some h else None)
        lock.holders
    in
    if exclusive_others <> [] then begin
      t.m.blocks <- t.m.blocks + 1;
      Blocked exclusive_others
    end
    else begin
      lock.holders <- (id, Shared) :: lock.holders;
      st.locks <- g :: st.locks;
      (* setting the read lock is the registration the paper counts *)
      t.m.read_registrations <- t.m.read_registrations + 1;
      grant ()
    end

let write t txn g value =
  let st = state_of t txn in
  let id = txn.Txn.id in
  let lock = lock_of t g in
  t.m.writes <- t.m.writes + 1;
  let apply () =
    let old_value, old_wts = Sv.read t.store g in
    (* first write of the granule records the undo image *)
    let already = List.exists (fun u -> Granule.equal u.granule g) st.undo in
    if not already then
      st.undo <- { granule = g; old_value; old_wts } :: st.undo;
    (* stamp with the write instant, not I(t): under 2PL the version order
       on a granule is the lock order, which initiation times need not
       follow, and the certifier orders versions by their stamps *)
    let wts = Time.Clock.tick t.clock in
    Sv.write t.store g ~value ~wts;
    Sched_log.log_write_opt t.log ~txn:id ~granule:g ~version:wts;
    Granted ()
  in
  match List.assoc_opt id lock.holders with
  | Some Exclusive -> apply ()
  | Some Shared ->
    let rest = others lock id in
    if rest <> [] then begin
      t.m.blocks <- t.m.blocks + 1;
      Blocked rest
    end
    else begin
      lock.holders <- [ (id, Exclusive) ];
      apply ()
    end
  | None ->
    let rest = others lock id in
    if rest <> [] then begin
      t.m.blocks <- t.m.blocks + 1;
      Blocked rest
    end
    else begin
      lock.holders <- [ (id, Exclusive) ];
      st.locks <- g :: st.locks;
      apply ()
    end

let release t st =
  List.iter
    (fun g ->
      let lock = lock_of t g in
      lock.holders <-
        List.filter (fun (h, _) -> h <> st.txn.Txn.id) lock.holders)
    st.locks;
  Hashtbl.remove t.states st.txn.Txn.id

let commit t txn =
  let st = state_of t txn in
  Txn.commit txn ~at:(Time.Clock.tick t.clock);
  release t st;
  t.m.commits <- t.m.commits + 1

let abort t txn =
  let st = state_of t txn in
  List.iter
    (fun u -> Sv.write t.store u.granule ~value:u.old_value ~wts:u.old_wts)
    st.undo;
  Sched_log.drop_txn_opt t.log txn.Txn.id;
  Txn.abort txn ~at:(Time.Clock.tick t.clock);
  release t st;
  t.m.aborts <- t.m.aborts + 1

let lock_count t =
  Granule.Tbl.fold (fun _ l acc -> acc + List.length l.holders) t.locks 0

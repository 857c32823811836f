module Sv = Hdd_mvstore.Sv_store
open Hdd_core.Outcome

type 'a undo = { granule : Granule.t; old_value : 'a; old_wts : Time.t }

type 'a txn_state = { txn : Txn.t; mutable undo : 'a undo list }

type 'a t = {
  clock : Time.Clock.clock;
  store : 'a Sv.t;
  dirty : Txn.id Granule.Tbl.t;  (** granule -> uncommitted in-place writer *)
  states : (Txn.id, 'a txn_state) Hashtbl.t;
  log : Sched_log.t option;
  thomas : bool;
  read_timestamps : bool;
  m : Cc_metrics.t;
  mutable next_id : int;
}

let create ?log ?(thomas_write_rule = false) ?(read_timestamps = true) ~clock
    ~init () =
  { clock; store = Sv.create ~init; dirty = Granule.Tbl.create 256;
    states = Hashtbl.create 64; log; thomas = thomas_write_rule;
    read_timestamps; m = Cc_metrics.create (); next_id = 1 }

let metrics t = t.m

let state_of t (txn : Txn.t) =
  match Hashtbl.find_opt t.states txn.Txn.id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Tso: unknown transaction %d" txn.Txn.id)

let begin_txn t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn = Txn.make ~id ~kind:(Txn.Update 0) ~init:(Time.Clock.tick t.clock) in
  Hashtbl.replace t.states id { txn; undo = [] };
  t.m.begins <- t.m.begins + 1;
  txn

let dirty_other t g id =
  match Granule.Tbl.find_opt t.dirty g with
  | Some w when w <> id -> Some w
  | _ -> None

let read t txn g =
  ignore (state_of t txn);
  let id = txn.Txn.id in
  t.m.reads <- t.m.reads + 1;
  match dirty_other t g id with
  | Some w ->
    t.m.blocks <- t.m.blocks + 1;
    Blocked [ w ]
  | None ->
    let cell = Sv.cell t.store g in
    if txn.Txn.init < cell.Sv.wts then begin
      t.m.rejects <- t.m.rejects + 1;
      Rejected "read timestamp below the granule's write stamp"
    end
    else begin
      (* writing the read register is the registration the paper counts *)
      if t.read_timestamps then begin
        Sv.set_rts t.store g txn.Txn.init;
        t.m.read_registrations <- t.m.read_registrations + 1
      end;
      Sched_log.log_read_opt t.log ~txn:id ~granule:g ~version:cell.Sv.wts;
      Granted cell.Sv.value
    end

let write t txn g value =
  let st = state_of t txn in
  let id = txn.Txn.id in
  t.m.writes <- t.m.writes + 1;
  match dirty_other t g id with
  | Some w ->
    t.m.blocks <- t.m.blocks + 1;
    Blocked [ w ]
  | None ->
    let cell = Sv.cell t.store g in
    if txn.Txn.init < cell.Sv.rts then begin
      t.m.rejects <- t.m.rejects + 1;
      Rejected "write timestamp below the granule's read stamp"
    end
    else if txn.Txn.init < cell.Sv.wts then
      if t.thomas then Granted () (* obsolete write: ignore *)
      else begin
        t.m.rejects <- t.m.rejects + 1;
        Rejected "write timestamp below the granule's write stamp"
      end
    else begin
      let already = List.exists (fun u -> Granule.equal u.granule g) st.undo in
      if not already then
        st.undo <-
          { granule = g; old_value = cell.Sv.value; old_wts = cell.Sv.wts }
          :: st.undo;
      Sv.write t.store g ~value ~wts:txn.Txn.init;
      Granule.Tbl.replace t.dirty g id;
      Sched_log.log_write_opt t.log ~txn:id ~granule:g ~version:txn.Txn.init;
      Granted ()
    end

let clear_dirty t st =
  List.iter (fun u -> Granule.Tbl.remove t.dirty u.granule) st.undo

let commit t txn =
  let st = state_of t txn in
  clear_dirty t st;
  Txn.commit txn ~at:(Time.Clock.tick t.clock);
  Hashtbl.remove t.states txn.Txn.id;
  t.m.commits <- t.m.commits + 1

let abort t txn =
  let st = state_of t txn in
  List.iter
    (fun u -> Sv.write t.store u.granule ~value:u.old_value ~wts:u.old_wts)
    st.undo;
  clear_dirty t st;
  Sched_log.drop_txn_opt t.log txn.Txn.id;
  Txn.abort txn ~at:(Time.Clock.tick t.clock);
  Hashtbl.remove t.states txn.Txn.id;
  t.m.aborts <- t.m.aborts + 1

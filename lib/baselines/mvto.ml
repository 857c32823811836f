module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
open Hdd_core.Outcome

type 'a txn_state = { txn : Txn.t; mutable written : Granule.t list }

type 'a t = {
  clock : Time.Clock.clock;
  store : 'a Store.t;
  states : (Txn.id, 'a txn_state) Hashtbl.t;
  log : Sched_log.t option;
  m : Cc_metrics.t;
  mutable next_id : int;
}

let create ?log ~clock ~segments ~init () =
  { clock; store = Store.create ~segments ~init;
    states = Hashtbl.create 64; log; m = Cc_metrics.create ();
    next_id = 1 }

let metrics t = t.m
let store t = t.store

let state_of t (txn : Txn.t) =
  match Hashtbl.find_opt t.states txn.Txn.id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Mvto: unknown transaction %d" txn.Txn.id)

let begin_txn t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let txn = Txn.make ~id ~kind:(Txn.Update 0) ~init:(Time.Clock.tick t.clock) in
  Hashtbl.replace t.states id { txn; written = [] };
  t.m.begins <- t.m.begins + 1;
  txn

let read t txn g =
  ignore (state_of t txn);
  t.m.reads <- t.m.reads + 1;
  match Store.candidate_before t.store g ~ts:txn.Txn.init with
  | None ->
    t.m.rejects <- t.m.rejects + 1;
    Rejected "version collected past timestamp"
  | Some (Chain.Wait_for writer) ->
    t.m.blocks <- t.m.blocks + 1;
    Blocked [ writer ]
  | Some (Chain.Version v) ->
    Chain.mark_read v ~at:txn.Txn.init;
    t.m.read_registrations <- t.m.read_registrations + 1;
    Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:v.Chain.ts;
    Granted v.Chain.value

let write t txn g value =
  let st = state_of t txn in
  let ts = txn.Txn.init in
  t.m.writes <- t.m.writes + 1;
  if List.exists (Granule.equal g) st.written then begin
    Store.discard_version t.store g ~ts;
    ignore (Store.install t.store g ~ts ~writer:txn.Txn.id ~value);
    Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g ~version:ts;
    Granted ()
  end
  else
    let late =
      match Store.predecessor_rts t.store g ~ts with
      | Some rts -> rts > ts
      | None -> false
    in
    if late then begin
      t.m.rejects <- t.m.rejects + 1;
      Rejected "a younger transaction already read the predecessor"
    end
    else begin
      ignore (Store.install t.store g ~ts ~writer:txn.Txn.id ~value);
      st.written <- g :: st.written;
      Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g ~version:ts;
      Granted ()
    end

let commit t txn =
  let st = state_of t txn in
  List.iter
    (fun g -> Store.commit_version t.store g ~ts:txn.Txn.init)
    st.written;
  Txn.commit txn ~at:(Time.Clock.tick t.clock);
  Hashtbl.remove t.states txn.Txn.id;
  t.m.commits <- t.m.commits + 1

let abort t txn =
  let st = state_of t txn in
  List.iter
    (fun g -> Store.discard_version t.store g ~ts:txn.Txn.init)
    st.written;
  Sched_log.drop_txn_opt t.log txn.Txn.id;
  Txn.abort txn ~at:(Time.Clock.tick t.clock);
  Hashtbl.remove t.states txn.Txn.id;
  t.m.aborts <- t.m.aborts + 1

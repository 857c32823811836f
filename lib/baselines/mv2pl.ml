module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
open Hdd_core.Outcome

type mode = Shared | Exclusive

type lock = { mutable holders : (Txn.id * mode) list }

type 'a txn_state = {
  txn : Txn.t;
  read_only : bool;
  mutable locks : Granule.t list;
  mutable buffer : (Granule.t * 'a) list;  (** deferred writes, newest first *)
}

type 'a t = {
  clock : Time.Clock.clock;
  store : 'a Store.t;
  locks : lock Granule.Tbl.t;
  states : (Txn.id, 'a txn_state) Hashtbl.t;
  log : Sched_log.t option;
  m : Cc_metrics.t;
  mutable next_id : int;
}

let create ?log ~clock ~segments ~init () =
  { clock; store = Store.create ~segments ~init;
    locks = Granule.Tbl.create 256; states = Hashtbl.create 64; log;
    m = Cc_metrics.create (); next_id = 1 }

let metrics t = t.m
let store t = t.store

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
  | None ->
    invalid_arg (Printf.sprintf "Mv2pl: unknown transaction %d" txn.Txn.id)

let begin_txn t ~read_only =
  let id = t.next_id in
  t.next_id <- id + 1;
  let kind = if read_only then Txn.Read_only else Txn.Update 0 in
  let txn = Txn.make ~id ~kind ~init:(Time.Clock.tick t.clock) in
  Hashtbl.replace t.states id { txn; read_only; locks = []; buffer = [] };
  t.m.begins <- t.m.begins + 1;
  txn

let buffered st g =
  List.find_map
    (fun (g', v) -> if Granule.equal g g' then Some v else None)
    st.buffer

let snapshot_read t (txn : Txn.t) g =
  match Store.committed_before t.store g ~ts:txn.Txn.init with
  | Some v ->
    Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:v.Chain.ts;
    Granted v.Chain.value
  | None ->
    t.m.rejects <- t.m.rejects + 1;
    Rejected "snapshot version collected"

let current_read t (txn : Txn.t) g =
  match Store.latest_committed t.store g with
  | Some v ->
    Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:v.Chain.ts;
    Granted v.Chain.value
  | None ->
    t.m.rejects <- t.m.rejects + 1;
    Rejected "no committed version"

let read t txn g =
  let st = state_of t txn in
  let id = txn.Txn.id in
  t.m.reads <- t.m.reads + 1;
  if st.read_only then snapshot_read t txn g
  else
    match buffered st g with
    | Some v -> Granted v (* own deferred write; no cross-txn dependency *)
    | None ->
      let lock = lock_of t g in
      if List.mem_assoc id lock.holders then current_read t txn g
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
          t.m.read_registrations <- t.m.read_registrations + 1;
          current_read t txn g
        end

let write t txn g value =
  let st = state_of t txn in
  let id = txn.Txn.id in
  t.m.writes <- t.m.writes + 1;
  if st.read_only then begin
    t.m.rejects <- t.m.rejects + 1;
    Rejected "read-only transaction may not write"
  end
  else
    let lock = lock_of t g in
    let others =
      List.filter_map
        (fun (h, _) -> if h <> id then Some h else None)
        lock.holders
    in
    match List.assoc_opt id lock.holders with
    | Some Exclusive ->
      st.buffer <- (g, value) :: List.remove_assoc g st.buffer;
      Granted ()
    | Some Shared when others <> [] ->
      t.m.blocks <- t.m.blocks + 1;
      Blocked others
    | Some Shared ->
      lock.holders <- [ (id, Exclusive) ];
      st.buffer <- (g, value) :: List.remove_assoc g st.buffer;
      Granted ()
    | None when others <> [] ->
      t.m.blocks <- t.m.blocks + 1;
      Blocked others
    | None ->
      lock.holders <- [ (id, Exclusive) ];
      st.locks <- g :: st.locks;
      st.buffer <- (g, value) :: List.remove_assoc g st.buffer;
      Granted ()

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
  let at = Time.Clock.tick t.clock in
  (* install deferred writes stamped with the commit instant: the version
     order on each granule equals the commit order the X locks serialise *)
  List.iter
    (fun (g, value) ->
      ignore (Store.install t.store g ~ts:at ~writer:txn.Txn.id ~value);
      Store.commit_version t.store g ~ts:at;
      Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g ~version:at)
    (List.rev st.buffer);
  Txn.commit txn ~at;
  release t st;
  t.m.commits <- t.m.commits + 1

let abort t txn =
  let st = state_of t txn in
  Sched_log.drop_txn_opt t.log txn.Txn.id;
  Txn.abort txn ~at:(Time.Clock.tick t.clock);
  release t st;
  t.m.aborts <- t.m.aborts + 1

module Store = Hdd_mvstore.Store
module Trace = Hdd_obs.Trace

type pending_txn = {
  class_id : int;
  init : Time.t;
  mutable writes : (Granule.t * Time.t * int) list;  (** newest first *)
}

type t = {
  store : int Store.t;
  pending : (Txn.id, pending_txn) Hashtbl.t;
  mutable last_time : Time.t;
  mutable committed : int;
  mutable aborted : int;
  trace : Trace.t option;
}

let create ?trace ~segments ~init () =
  { store = Store.create ~segments ~init;
    pending = Hashtbl.create 64;
    last_time = Time.zero;
    committed = 0;
    aborted = 0;
    trace }

let see t ts = if ts > t.last_time then t.last_time <- ts

let begin_pending t ~txn ~class_id ~init =
  see t init;
  Hashtbl.replace t.pending txn { class_id; init; writes = [] }

let add_pending_write t ~txn granule ~ts ~value =
  see t ts;
  match Hashtbl.find_opt t.pending txn with
  | Some p -> p.writes <- (granule, ts, value) :: p.writes
  | None ->
    (* a Write with no Begin in scope (e.g. the Begin fell before a
       checkpoint that lost the txn) — keep it, commit decides *)
    Hashtbl.replace t.pending txn
      { class_id = 0; init = ts; writes = [ (granule, ts, value) ] }

let install_writes t ~txn writes =
  List.iter
    (fun (granule, ts, value) ->
      (* the last write of a granule within a transaction wins; writes
         were buffered newest-first, so install the first occurrence of
         each granule.  The committed_before guard also makes re-applying
         an already-installed record a no-op — what a replica needs when
         a crashed shipper resends a batch. *)
      match Store.committed_before t.store granule ~ts:(ts + 1) with
      | Some v when v.Hdd_mvstore.Chain.ts = ts -> ()
      | _ ->
        ignore (Store.install t.store granule ~ts ~writer:txn ~value);
        Store.commit_version t.store granule ~ts)
    writes

let apply t (r : Codec.record) =
  match r with
  | Codec.Begin { txn; class_id; init } ->
    begin_pending t ~txn ~class_id ~init
  | Codec.Write { txn; granule; ts; value } ->
    add_pending_write t ~txn granule ~ts ~value
  | Codec.Commit { txn; at } ->
    see t at;
    (match Hashtbl.find_opt t.pending txn with
    | None -> ()
    | Some p ->
      install_writes t ~txn p.writes;
      Hashtbl.remove t.pending txn);
    t.committed <- t.committed + 1;
    (match t.trace with
    | Some tr -> Trace.emit tr ~at (Trace.Durable_recovered { txn; at })
    | None -> ())
  | Codec.Abort { txn; at } ->
    see t at;
    Hashtbl.remove t.pending txn;
    t.aborted <- t.aborted + 1
  | Codec.Wall _ -> ()

let apply_all t records = List.iter (apply t) records

let restore_pending t entries =
  List.iter
    (fun (txn, class_id, init, writes) ->
      see t init;
      List.iter (fun (_, ts, _) -> see t ts) writes;
      Hashtbl.replace t.pending txn { class_id; init; writes })
    entries

let lost_uncommitted t = Hashtbl.length t.pending

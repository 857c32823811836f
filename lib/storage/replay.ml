module Store = Hdd_mvstore.Store
module Trace = Hdd_obs.Trace

module Inflight = struct
  type txn = {
    class_id : int;
    init : Time.t;
    mutable writes : (Granule.t * Time.t * int) list;
  }

  type t = (Txn.id, txn) Hashtbl.t
  type entry = Txn.id * int * Time.t * (Granule.t * Time.t * int) list

  let create () : t = Hashtbl.create 64
  let start t id ~class_id ~init = Hashtbl.replace t id { class_id; init; writes = [] }

  (* a write with no Begin in scope (e.g. the Begin fell before a
     checkpoint that lost the txn) — keep it, commit decides *)
  let add_write t id ((_, ts, _) as w) =
    match Hashtbl.find_opt t id with
    | Some p -> p.writes <- w :: p.writes
    | None -> Hashtbl.replace t id { class_id = 0; init = ts; writes = [ w ] }

  let finish t id =
    match Hashtbl.find t id with
    | p ->
      Hashtbl.remove t id;
      p.writes
    | exception Not_found -> []

  let length = Hashtbl.length
  let min_init t = Hashtbl.fold (fun _ p acc -> Int.min acc p.init) t max_int

  let entries t =
    List.sort compare
      (Hashtbl.fold (fun id p acc -> (id, p.class_id, p.init, p.writes) :: acc) t [])

  let restore t =
    List.iter (fun (id, class_id, init, writes) ->
        Hashtbl.replace t id { class_id; init; writes })
end

type t = {
  store : int Store.t;
  pending : Inflight.t;
  mutable last_time : Time.t;
  mutable committed : int;
  mutable aborted : int;
  trace : Trace.t option;
}

let create ?trace ~segments ~init () =
  { store = Store.create ~segments ~init;
    pending = Inflight.create ();
    last_time = Time.zero;
    committed = 0;
    aborted = 0;
    trace }

let see t ts = if ts > t.last_time then t.last_time <- ts

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
    see t init;
    Inflight.start t.pending txn ~class_id ~init
  | Codec.Write { txn; granule; ts; value } ->
    see t ts;
    Inflight.add_write t.pending txn (granule, ts, value)
  | Codec.Commit { txn; at } ->
    see t at;
    install_writes t ~txn (Inflight.finish t.pending txn);
    t.committed <- t.committed + 1;
    (match t.trace with
    | Some tr -> Trace.emit tr ~at (Trace.Durable_recovered { txn; at })
    | None -> ())
  | Codec.Abort { txn; at } ->
    see t at;
    ignore (Inflight.finish t.pending txn);
    t.aborted <- t.aborted + 1
  | Codec.Wall _ -> ()

let apply_all t records = List.iter (apply t) records

let restore_pending t entries =
  List.iter
    (fun (_, _, init, writes) ->
      see t init;
      List.iter (fun (_, ts, _) -> see t ts) writes)
    entries;
  Inflight.restore t.pending entries

let lost_uncommitted t = Inflight.length t.pending

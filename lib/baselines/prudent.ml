module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
open Hdd_core.Outcome

(* Prudent precedence: reads never lock and never wait — they return the
   latest committed version and record the precedence edge
   [reader ≺ pending overwriter] instead.  Writes take an exclusive slot
   per granule with deferred installation, collecting the symmetric edge
   from every registered reader.  The price is paid at the commit point:
   a transaction may only commit once every recorded predecessor has
   finished, which the driver enforces through [try_commit] — a
   commit-wait cycle surfaces as a driver-level deadlock and restarts
   one participant.  [Table] is that discipline; the standalone
   controller below and the hybrid scheduler's escalated classes both
   drive it. *)

module Table = struct
  type gstate = {
    mutable writer : Txn.id option;  (** pending exclusive writer *)
    mutable readers : Txn.id list;  (** active readers of the latest version *)
  }

  type 'a entry = {
    mutable reads : Granule.t list;  (** granules registered as reader *)
    mutable writes : Granule.t list;  (** granules whose writer slot we hold *)
    mutable buffer : (Granule.t * 'a) list;  (** deferred, newest first *)
    mutable preds : Txn.id list;  (** must finish before our commit *)
  }

  type 'a t = {
    store : 'a Store.t;
    granules : gstate Granule.Tbl.t;
    entries : (Txn.id, 'a entry) Hashtbl.t;
    m : Hdd_obs.Counters.t;
  }

  type 'a read = Own of 'a | Latest of 'a Chain.version | Missing

  let create store =
    { store; granules = Granule.Tbl.create 256; entries = Hashtbl.create 64;
      m = Hdd_obs.Counters.create () }

  let metrics t = t.m
  let store t = t.store
  let mem t (txn : Txn.t) = Hashtbl.mem t.entries txn.Txn.id

  let join t (txn : Txn.t) =
    Hashtbl.replace t.entries txn.Txn.id
      { reads = []; writes = []; buffer = []; preds = [] }

  let entry t (txn : Txn.t) =
    match Hashtbl.find_opt t.entries txn.Txn.id with
    | Some e -> e
    | None ->
      invalid_arg (Printf.sprintf "Prudent: unknown transaction %d" txn.Txn.id)

  let gstate_of t g =
    match Granule.Tbl.find_opt t.granules g with
    | Some s -> s
    | None ->
      let s = { writer = None; readers = [] } in
      Granule.Tbl.add t.granules g s;
      s

  let add_pred e id = if not (List.mem id e.preds) then e.preds <- id :: e.preds

  let read t txn g =
    let e = entry t txn in
    let id = txn.Txn.id in
    t.m.reads_b <- t.m.reads_b + 1;
    match List.assoc_opt g e.buffer with
    | Some v -> Own v
    | None ->
      let gs = gstate_of t g in
      (* we read over the head of a pending write: the writer now
         commit-waits for us *)
      (match gs.writer with
      | Some w when w <> id -> (
        match Hashtbl.find_opt t.entries w with
        | Some we -> add_pred we id
        | None -> ())
      | _ -> ());
      if not (List.mem id gs.readers) then begin
        gs.readers <- id :: gs.readers;
        e.reads <- g :: e.reads;
        t.m.read_registrations <- t.m.read_registrations + 1
      end;
      (match Store.latest_committed t.store g with
      | Some v -> Latest v
      | None ->
        t.m.rejects <- t.m.rejects + 1;
        Missing)

  let write t txn g value =
    let e = entry t txn in
    let id = txn.Txn.id in
    t.m.writes <- t.m.writes + 1;
    let gs = gstate_of t g in
    match gs.writer with
    | Some w when w <> id ->
      t.m.blocks <- t.m.blocks + 1;
      Blocked [ w ]
    | held ->
      if held = None then begin
        gs.writer <- Some id;
        e.writes <- g :: e.writes;
        (* every current reader of the version we overwrite precedes us *)
        List.iter (fun r -> if r <> id then add_pred e r) gs.readers
      end;
      e.buffer <- (g, value) :: List.remove_assoc g e.buffer;
      Granted ()

  let admit t txn =
    let live = List.filter (Hashtbl.mem t.entries) (entry t txn).preds in
    if live = [] then Granted ()
    else begin
      t.m.blocks <- t.m.blocks + 1;
      Blocked live
    end

  let release t txn =
    let e = entry t txn in
    let id = txn.Txn.id in
    List.iter
      (fun g ->
        let gs = gstate_of t g in
        gs.readers <- List.filter (fun r -> r <> id) gs.readers)
      e.reads;
    List.iter
      (fun g ->
        let gs = gstate_of t g in
        if gs.writer = Some id then gs.writer <- None)
      e.writes;
    Hashtbl.remove t.entries id

  (* version order per granule = commit order, which the writer slots
     plus commit-waits serialise *)
  let install t txn ~stamp on_granule =
    List.iter
      (fun (g, value) ->
        ignore (Store.install t.store g ~ts:stamp ~writer:txn.Txn.id ~value);
        Store.commit_version t.store g ~ts:stamp;
        on_granule g)
      (List.rev (entry t txn).buffer);
    release t txn
end

type 'a t = { tx : unit Txn_table.t; table : 'a Table.t }

(* the transaction table counts begins, commits and aborts into the
   precedence table's own record *)
let create ?log ~clock ~segments ~init () =
  let table = Table.create (Store.create ~segments ~init) in
  { tx =
      Txn_table.create ?log ~metrics:(Table.metrics table) ~name:"Prudent"
        ~clock ();
    table }

let metrics t = Txn_table.metrics t.tx
let store t = Table.store t.table

let begin_txn t ~read_only =
  let kind = if read_only then Txn.Read_only else Txn.Update 0 in
  let txn = Txn_table.begin_txn t.tx ~kind () in
  Table.join t.table txn;
  txn

let read_version t txn g (v : _ Chain.version) =
  Txn_table.log_read t.tx txn g v.Chain.ts;
  Granted v.Chain.value

(* Read-only transactions read a snapshot at their initiation and never
   register: they take no part in the table's precedence edges. *)
let read t txn g =
  if Txn.is_update txn then
    match Table.read t.table txn g with
    | Table.Own v -> Granted v
    | Table.Latest v -> read_version t txn g v
    | Table.Missing -> Rejected "no committed version"
  else begin
    Txn_table.reading t.tx txn;
    match Store.committed_before (store t) g ~ts:txn.Txn.init with
    | Some v -> read_version t txn g v
    | None -> Txn_table.reject t.tx "snapshot version collected"
  end

let write t txn g value =
  if Txn.is_update txn then Table.write t.table txn g value
  else begin
    Txn_table.writing t.tx txn;
    Txn_table.reject t.tx "read-only transaction may not write"
  end

let try_commit t txn = Table.admit t.table txn

let commit t txn =
  let at = Txn_table.tick t.tx in
  Table.install t.table txn ~stamp:at (fun g ->
      Txn_table.log_write t.tx txn g at);
  Txn_table.commit t.tx txn ~at

let abort t txn =
  Txn_table.abort t.tx txn;
  Table.release t.table txn

module Sv = Hdd_mvstore.Sv_store
open Hdd_core.Outcome

type 'a t = {
  tx : unit Txn_table.t;
  store : 'a Sv.t;
  dirty : Txn.id Granule.Tbl.t;  (** granule -> uncommitted in-place writer *)
  thomas : bool;
  read_timestamps : bool;
}

let create ?log ?(thomas_write_rule = false) ?(read_timestamps = true) ~clock
    ~init () =
  { tx = Txn_table.create ?log ~name:"Tso" ~clock (); store = Sv.create ~init;
    dirty = Granule.Tbl.create 256; thomas = thomas_write_rule;
    read_timestamps }

let metrics t = Txn_table.metrics t.tx
let begin_txn t = Txn_table.begin_txn t.tx ~kind:(Txn.Update 0) ()

let dirty_other t g (txn : Txn.t) =
  match Granule.Tbl.find_opt t.dirty g with
  | Some w when w <> txn.Txn.id -> Some w
  | _ -> None

let read t txn g =
  Txn_table.reading t.tx txn;
  match dirty_other t g txn with
  | Some w -> Txn_table.block t.tx [ w ]
  | None ->
    let cell = Sv.cell t.store g in
    if txn.Txn.init < cell.Sv.wts then
      Txn_table.reject t.tx "read timestamp below the granule's write stamp"
    else begin
      (* writing the read register is the registration the paper counts *)
      if t.read_timestamps then begin
        Sv.set_rts t.store g txn.Txn.init;
        Txn_table.register t.tx
      end;
      Txn_table.log_read t.tx txn g cell.Sv.wts;
      Granted cell.Sv.value
    end

let write t txn g value =
  Txn_table.writing t.tx txn;
  match dirty_other t g txn with
  | Some w -> Txn_table.block t.tx [ w ]
  | None ->
    let cell = Sv.cell t.store g in
    if txn.Txn.init < cell.Sv.rts then
      Txn_table.reject t.tx "write timestamp below the granule's read stamp"
    else if txn.Txn.init < cell.Sv.wts then
      if t.thomas then Granted () (* obsolete write: ignore *)
      else
        Txn_table.reject t.tx "write timestamp below the granule's write stamp"
    else begin
      Sv.write_undoable t.store txn.Txn.id g ~value ~wts:txn.Txn.init;
      Granule.Tbl.replace t.dirty g txn.Txn.id;
      Txn_table.log_write t.tx txn g txn.Txn.init;
      Granted ()
    end

let clear_dirty t txn =
  List.iter (Granule.Tbl.remove t.dirty) (Sv.written t.store txn.Txn.id)

let commit t txn =
  Txn_table.commit t.tx txn;
  clear_dirty t txn;
  Sv.forget t.store txn.Txn.id

let abort t txn =
  Txn_table.abort t.tx txn;
  clear_dirty t txn;
  Sv.undo t.store txn.Txn.id

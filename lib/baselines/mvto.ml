module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
open Hdd_core.Outcome

type 'a t = {
  tx : Granule.t list ref Txn_table.t;
      (** per transaction, the granules holding its pending versions *)
  store : 'a Store.t;
}

let create ?log ~clock ~segments ~init () =
  { tx = Txn_table.create ?log ~name:"Mvto" ~clock ();
    store = Store.create ~segments ~init }

let metrics t = Txn_table.metrics t.tx
let store t = t.store
let begin_txn t = Txn_table.begin_txn t.tx ~kind:(Txn.Update 0) (ref [])

let read t txn g =
  ignore (Txn_table.reading t.tx txn);
  match Store.candidate_before t.store g ~ts:txn.Txn.init with
  | None -> Txn_table.reject t.tx "version collected past timestamp"
  | Some (Chain.Wait_for writer) -> Txn_table.block t.tx [ writer ]
  | Some (Chain.Version v) ->
    Chain.mark_read v ~at:txn.Txn.init;
    Txn_table.register t.tx;
    Txn_table.log_read t.tx txn g v.Chain.ts;
    Granted v.Chain.value

let write t txn g value =
  let w = Txn_table.writing t.tx txn in
  let ts = txn.Txn.init in
  let install () =
    ignore (Store.install t.store g ~ts ~writer:txn.Txn.id ~value);
    Txn_table.log_write t.tx txn g ts;
    Granted ()
  in
  if List.exists (Granule.equal g) !w then begin
    Store.discard_version t.store g ~ts;
    install ()
  end
  else
    let late =
      match Store.predecessor_rts t.store g ~ts with
      | Some rts -> rts > ts
      | None -> false
    in
    if late then
      Txn_table.reject t.tx "a younger transaction already read the predecessor"
    else begin
      w := g :: !w;
      install ()
    end

let finish t txn each =
  List.iter
    (fun g -> each t.store g ~ts:txn.Txn.init)
    !(Txn_table.state t.tx txn)

let commit t txn =
  finish t txn Store.commit_version;
  Txn_table.commit t.tx txn

let abort t txn =
  finish t txn Store.discard_version;
  Txn_table.abort t.tx txn

type 'a cell = {
  mutable value : 'a;
  mutable wts : Time.t;
  mutable rts : Time.t;
}

type 'a image = { granule : Granule.t; old_value : 'a; old_wts : Time.t }

type 'a t = {
  init : Granule.t -> 'a;
  cells : 'a cell Granule.Tbl.t;
  undo : (Txn.id, 'a image list) Hashtbl.t;  (** per writer, newest first *)
}

let create ~init =
  { init; cells = Granule.Tbl.create 256; undo = Hashtbl.create 64 }

let cell t g =
  match Granule.Tbl.find_opt t.cells g with
  | Some c -> c
  | None ->
    let c = { value = t.init g; wts = Time.zero; rts = Time.zero } in
    Granule.Tbl.add t.cells g c;
    c

let read t g =
  let c = cell t g in
  (c.value, c.wts)

let write t g ~value ~wts =
  let c = cell t g in
  c.value <- value;
  c.wts <- wts

let set_rts t g ts =
  let c = cell t g in
  if ts > c.rts then c.rts <- ts

let granule_count t = Granule.Tbl.length t.cells

let images t id = Option.value ~default:[] (Hashtbl.find_opt t.undo id)

let write_undoable t id g ~value ~wts =
  let c = cell t g in
  let older = images t id in
  if not (List.exists (fun i -> Granule.equal i.granule g) older) then
    Hashtbl.replace t.undo id
      ({ granule = g; old_value = c.value; old_wts = c.wts } :: older);
  c.value <- value;
  c.wts <- wts

let written t id = List.map (fun i -> i.granule) (images t id)
let forget t id = Hashtbl.remove t.undo id

let undo t id =
  List.iter (fun i -> write t i.granule ~value:i.old_value ~wts:i.old_wts)
    (images t id);
  forget t id

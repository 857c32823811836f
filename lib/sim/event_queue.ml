type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  mutable dummy : 'a entry option;  (* for array initialisation *)
}

let create () = { heap = [||]; len = 0; next_seq = 0; dummy = None }

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.len && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t ~time payload =
  let e = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  if t.dummy = None then t.dummy <- Some e;
  if t.len = Array.length t.heap then begin
    let filler = match t.dummy with Some d -> d | None -> e in
    let bigger = Array.make (Int.max 16 (2 * t.len)) filler in
    Array.blit t.heap 0 bigger 0 t.len;
    t.heap <- bigger
  end;
  t.heap.(t.len) <- e;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.heap.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.heap.(0) <- t.heap.(t.len);
      sift_down t 0
    end;
    Some (top.time, top.payload)
  end

let size t = t.len
let is_empty t = t.len = 0

(* Packed per-segment version store: per key a flat [int array] of
   [ts; value] pairs in ascending ts order.  The owner mutates [buf] in
   place; readers only ever see the frozen exact-length copies [publish]
   stores into the published table, so no synchronization beyond the
   engine's atomic view swap is needed (DESIGN.md §13).  Hot helpers
   are top-level and loop by tail recursion on ints — no refs, no
   tuples, no closures — so the steady-state commit path allocates
   nothing (DESIGN.md §16 budget table). *)

type slot = {
  mutable buf : int array;  (* packed [ts; value] pairs, ts ascending *)
  mutable len : int;        (* used ints (2 per version) *)
  mutable dirty : bool;     (* buf has versions the table has not *)
}

(* The published table: per key a frozen buffer whose length is its
   live range.  The owner replaces entries in place; a stored buffer is
   never written again. *)
type view = int array array

type t = {
  mutable slots : slot array;
  mutable nkeys : int;              (* 1 + highest key touched *)
  mutable dirty_keys : int array;   (* keys with [dirty] slots *)
  mutable dirty_n : int;
  mutable watermark : Time.t;       (* oldest ts future reads may name *)
  mutable table : view;
}

let empty_ints : int array = [||]
let empty_view : view = [||]

let create () =
  { slots = [||]; nkeys = 0; dirty_keys = [||]; dirty_n = 0;
    watermark = Time.zero; table = empty_view }

let negative_key () = invalid_arg "Pstore: negative key"

let ensure_key t key =
  if key < 0 then negative_key ();
  if key >= Array.length t.slots then begin
    let cap = max (key + 1) (max 8 (2 * Array.length t.slots)) in
    let slots = Array.init cap (fun i ->
        if i < Array.length t.slots then t.slots.(i)
        else { buf = empty_ints; len = 0; dirty = false })
    in
    t.slots <- slots;
    (* dirty_keys can never exceed the number of keys *)
    let dk = Array.make cap 0 in
    Array.blit t.dirty_keys 0 dk 0 t.dirty_n;
    t.dirty_keys <- dk
  end;
  if key >= t.nkeys then t.nkeys <- key + 1

(* Index of the first pair whose ts is >= [ts], in ints (even), over
   buf[0 .. len).  Tail-recursive binary search, no refs. *)
let rec first_at_or_above buf lo hi ts =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 land lnot 1 in
    if Array.unsafe_get buf mid >= ts then first_at_or_above buf lo mid ts
    else first_at_or_above buf (mid + 2) hi ts

(* Drop versions no wall-bounded read can name: everything below the
   watermark except the newest such version (the one a read exactly at
   the watermark would serve).  Compacts [buf] in place — readers only
   see frozen copies — so a steady watermark advance keeps capacity
   bounded without allocating. *)
let compact slot wm =
  let cut = first_at_or_above slot.buf 0 slot.len wm in
  let keep_from = if cut >= 2 then cut - 2 else 0 in
  if keep_from > 0 then begin
    Array.blit slot.buf keep_from slot.buf 0 (slot.len - keep_from);
    slot.len <- slot.len - keep_from
  end

let add_commit t ~key ~ts ~value =
  ensure_key t key;
  let slot = Array.unsafe_get t.slots key in
  if slot.len > 0 && Array.unsafe_get slot.buf (slot.len - 2) >= ts then
    invalid_arg
      (Printf.sprintf "Pstore.add_commit: ts %d not above newest %d at key %d"
         ts (Array.unsafe_get slot.buf (slot.len - 2)) key);
  if slot.len + 2 > Array.length slot.buf then begin
    (* Try in-place reclamation below the watermark first; grow only if
       less than a quarter of the buffer came back. *)
    let before = slot.len in
    compact slot t.watermark;
    if Array.length slot.buf - slot.len < max 2 (before / 4) then begin
      let cap = max 8 (2 * Array.length slot.buf) in
      let buf = Array.make cap 0 in
      Array.blit slot.buf 0 buf 0 slot.len;
      slot.buf <- buf
    end
  end;
  Array.unsafe_set slot.buf slot.len ts;
  Array.unsafe_set slot.buf (slot.len + 1) value;
  slot.len <- slot.len + 2;
  if not slot.dirty then begin
    slot.dirty <- true;
    Array.unsafe_set t.dirty_keys t.dirty_n key;
    t.dirty_n <- t.dirty_n + 1
  end

let set_watermark t wm = if wm > t.watermark then t.watermark <- wm

(* ts of the newest version strictly below [ts] over a packed buffer,
   or Time.zero when none: the bootstrap value. *)
let latest_ts_below buf len ts =
  let i = first_at_or_above buf 0 len ts in
  if i = 0 then Time.zero else Array.unsafe_get buf (i - 2)

let latest_before t ~key ~ts =
  if key < 0 then negative_key ()
  else if key >= t.nkeys then Time.zero
  else
    let slot = Array.unsafe_get t.slots key in
    latest_ts_below slot.buf slot.len ts

let value_of t ~key ~ts ~fallback =
  if key < 0 then negative_key ()
  else if key >= t.nkeys then fallback
  else
    let slot = Array.unsafe_get t.slots key in
    let i = first_at_or_above slot.buf 0 slot.len (ts + 1) in
    if i = 0 || Array.unsafe_get slot.buf (i - 2) <> ts then fallback
    else Array.unsafe_get slot.buf (i - 1)

let publish t =
  (* a bigger table only when the key range outgrew the last one; the
     old table keeps its entries and is never written again *)
  if t.nkeys > Array.length t.table then begin
    let table = Array.make (Array.length t.slots) empty_ints in
    Array.blit t.table 0 table 0 (Array.length t.table);
    t.table <- table
  end;
  for i = 0 to t.dirty_n - 1 do
    let key = Array.unsafe_get t.dirty_keys i in
    let slot = Array.unsafe_get t.slots key in
    Array.unsafe_set t.table key (Array.sub slot.buf 0 slot.len);
    slot.dirty <- false
  done;
  t.dirty_n <- 0;
  t.table

let view_latest_before v ~key ~ts =
  if key < 0 then negative_key ()
  else if key >= Array.length v then Time.zero
  else
    let buf = Array.unsafe_get v key in
    latest_ts_below buf (Array.length buf) ts

let latest_before_pair t ~key ~ts =
  let vts = latest_before t ~key ~ts in
  if vts = Time.zero then None
  else Some (vts, value_of t ~key ~ts:vts ~fallback:0)

let dirty_count t = t.dirty_n

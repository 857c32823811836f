(* Packed per-segment version store: per key a flat [int array] of
   [ts; value] pairs in ascending ts order.  The owner mutates a key's
   buffer in place; readers only ever see the frozen exact-length
   copies [publish] stores into the published table, so no
   synchronization beyond the engine's atomic view swap is needed
   (DESIGN.md §13).  Hot helpers are top-level and loop by tail
   recursion on ints — no refs, no tuples, no closures — so the
   steady-state commit path allocates nothing (DESIGN.md §16 budget
   table).

   The per-key state is three parallel arrays, not an array of
   records, so that widening the key range never forces a collection
   (pstore.mli, DESIGN.md §16). *)

(* The published table: per key a frozen buffer whose length is its
   live range.  The owner replaces entries in place; a stored buffer is
   never written again. *)
type view = int array array

type t = {
  mutable bufs : int array array;   (* per key: [ts; value] pairs, ts ascending *)
  mutable lens : int array;         (* per key: used ints (2 per version) *)
  mutable dirty : bool array;       (* per key: versions the table has not *)
  mutable nkeys : int;              (* 1 + highest key touched *)
  mutable dirty_keys : int array;   (* keys with [dirty] set *)
  mutable dirty_n : int;
  mutable watermark : Time.t;       (* oldest ts future reads may name *)
  mutable table : view;
}

let empty_ints : int array = [||]
let empty_view : view = [||]

let create () =
  { bufs = empty_view; lens = [||]; dirty = [||]; nkeys = 0;
    dirty_keys = [||]; dirty_n = 0; watermark = Time.zero;
    table = empty_view }

let negative_key () = invalid_arg "Pstore: negative key"

(* [a] widened to [cap] elements, the new ones [fill]; [fill] is static
   or immediate, so no collection is forced *)
let widen a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_key t key =
  if key < 0 then negative_key ();
  if key >= Array.length t.bufs then begin
    let cap = max (key + 1) (max 8 (2 * Array.length t.bufs)) in
    t.bufs <- widen t.bufs cap empty_ints;
    t.lens <- widen t.lens cap 0;
    t.dirty <- widen t.dirty cap false;
    (* dirty_keys can never exceed the number of keys *)
    t.dirty_keys <- widen t.dirty_keys cap 0
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
   the watermark would serve).  Compacts the key's buffer in place —
   readers only see frozen copies — so a steady watermark advance keeps
   capacity bounded without allocating. *)
let compact t key =
  let buf = Array.unsafe_get t.bufs key and len = Array.unsafe_get t.lens key in
  let cut = first_at_or_above buf 0 len t.watermark in
  let keep_from = if cut >= 2 then cut - 2 else 0 in
  if keep_from > 0 then begin
    Array.blit buf keep_from buf 0 (len - keep_from);
    Array.unsafe_set t.lens key (len - keep_from)
  end

let add_commit t ~key ~ts ~value =
  ensure_key t key;
  let buf = Array.unsafe_get t.bufs key and len = Array.unsafe_get t.lens key in
  if len > 0 && Array.unsafe_get buf (len - 2) >= ts then
    invalid_arg
      (Printf.sprintf "Pstore.add_commit: ts %d not above newest %d at key %d"
         ts (Array.unsafe_get buf (len - 2)) key);
  if len + 2 > Array.length buf then begin
    (* Try in-place reclamation below the watermark first; grow only if
       less than a quarter of the buffer came back. *)
    compact t key;
    if Array.length buf - Array.unsafe_get t.lens key < max 2 (len / 4) then
      Array.unsafe_set t.bufs key (widen buf (max 8 (2 * Array.length buf)) 0)
  end;
  let buf = Array.unsafe_get t.bufs key and len = Array.unsafe_get t.lens key in
  Array.unsafe_set buf len ts;
  Array.unsafe_set buf (len + 1) value;
  Array.unsafe_set t.lens key (len + 2);
  if not (Array.unsafe_get t.dirty key) then begin
    Array.unsafe_set t.dirty key true;
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
    latest_ts_below (Array.unsafe_get t.bufs key) (Array.unsafe_get t.lens key)
      ts

let value_of t ~key ~ts ~fallback =
  if key < 0 then negative_key ()
  else if key >= t.nkeys then fallback
  else
    let buf = Array.unsafe_get t.bufs key in
    let i = first_at_or_above buf 0 (Array.unsafe_get t.lens key) (ts + 1) in
    if i = 0 || Array.unsafe_get buf (i - 2) <> ts then fallback
    else Array.unsafe_get buf (i - 1)

let publish t =
  (* a bigger table only when the key range outgrew the last one; the
     old table keeps its entries and is never written again *)
  if t.nkeys > Array.length t.table then
    t.table <- widen t.table (Array.length t.bufs) empty_ints;
  for i = 0 to t.dirty_n - 1 do
    let key = Array.unsafe_get t.dirty_keys i in
    Array.unsafe_set t.table key
      (Array.sub (Array.unsafe_get t.bufs key) 0 (Array.unsafe_get t.lens key));
    Array.unsafe_set t.dirty key false
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

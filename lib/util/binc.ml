(* A writer is its frame under construction: bytes [0, 8) are kept for
   the header {!seal} fills in, and the payload grows from byte 8, so
   the frame is finished where it lies.  {!reset} keeps the buffer, so
   a writer reused frame after frame allocates only when a frame
   outgrows every earlier one. *)
type writer = { mutable buf : bytes; mutable len : int }

let header = 8
let writer () = { buf = Bytes.create 256; len = header }
let reset b = b.len <- header
let buffer b = b.buf
let length b = b.len

let grow b n =
  let buf = Bytes.create (Int.max (2 * Bytes.length b.buf) (b.len + n)) in
  Bytes.blit b.buf 0 buf 0 b.len;
  b.buf <- buf

(* Room for [n] more bytes, checked once per field. *)
let[@inline] reserve b n = if b.len + n > Bytes.length b.buf then grow b n

(* zigzag: sign bit into bit 0, so small magnitudes of either sign stay
   short.  [lsr 62] rather than 63: zigzag doubles, so the top bit of the
   doubled value is bit 62 of the magnitude. *)
let[@inline] zigzag n = (n lsl 1) lxor (n asr 62)
let[@inline] unzigzag n = (n lsr 1) lxor (-(n land 1))

(* The LEB128 digits of the unsigned [v] from [pos]; returns the end.
   Top-level and tail-recursive, so writing allocates nothing. *)
let rec put_varint buf pos v =
  if v lsr 7 = 0 then begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.unsafe_set buf pos (Char.unsafe_chr (v land 0x7f lor 0x80));
    put_varint buf (pos + 1) (v lsr 7)
  end

(* OCaml ints are 63-bit; as an unsigned quantity the zigzagged value
   needs at most 9 LEB128 digits *)
let w_varint b z =
  reserve b 9;
  b.len <- put_varint b.buf b.len z

(* Most fields are small: one digit, written inline. *)
let[@inline] w_int b n =
  let z = zigzag n in
  let p = b.len in
  if z lsr 7 = 0 && p < Bytes.length b.buf then begin
    Bytes.unsafe_set b.buf p (Char.unsafe_chr z);
    b.len <- p + 1
  end
  else w_varint b z

let w_bool b v =
  reserve b 1;
  Bytes.unsafe_set b.buf b.len (if v then '\001' else '\000');
  b.len <- b.len + 1

let w_string b s =
  let n = String.length s in
  w_int b n;
  reserve b n;
  Bytes.blit_string s 0 b.buf b.len n;
  b.len <- b.len + n

(* The element writers are called directly, not through [List.iter
   (f b)], whose partial application is a closure per list. *)
let rec w_elems b f = function
  | [] -> ()
  | x :: rest ->
    f b x;
    w_elems b f rest

let w_list b f l =
  w_int b (List.length l);
  w_elems b f l

let w_array b f a =
  w_int b (Array.length a);
  for i = 0 to Array.length a - 1 do
    f b (Array.unsafe_get a i)
  done

let w_option b f = function
  | None -> w_bool b false
  | Some v ->
    w_bool b true;
    f b v

(* CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), slicing-by-8:
   table [k] (entries [256k .. 256k+255]) advances a byte through [k]
   further zero bytes, so eight lookups retire eight input bytes per
   step. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to (8 * 256) - 1 do
    let p = t.(i - 256) in
    t.(i) <- (p lsr 8) lxor t.(p land 0xff)
  done;
  t

(* [i] is always a byte (0..255), so the index is in bounds *)
let[@inline] crc_t k i = Array.unsafe_get crc_tables ((k lsl 8) lor i)
let[@inline] u32_le buf i =
  Int32.to_int (Bytes.get_int32_le buf i) land 0xFFFFFFFF

let crc32_sub buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then
    invalid_arg "Binc.crc32_sub";
  let c = ref 0xFFFFFFFF and i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let lo = !c lxor u32_le buf !i and hi = u32_le buf (!i + 4) in
    c :=
      crc_t 7 (lo land 0xff)
      lxor crc_t 6 ((lo lsr 8) land 0xff)
      lxor crc_t 5 ((lo lsr 16) land 0xff)
      lxor crc_t 4 (lo lsr 24)
      lxor crc_t 3 (hi land 0xff)
      lxor crc_t 2 ((hi lsr 8) land 0xff)
      lxor crc_t 1 ((hi lsr 16) land 0xff)
      lxor crc_t 0 (hi lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := crc_t 0 ((!c lxor Bytes.get_uint8 buf !i) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let seal b =
  let n = b.len - header in
  Bytes.set_int32_le b.buf 0 (Int32.of_int n);
  Bytes.set_int32_le b.buf 4 (Int32.of_int (crc32_sub b.buf header n))

let frame b =
  seal b;
  Bytes.sub b.buf 0 b.len

(* --- reading --- *)

(* [stop] is the end of the reader's frame: the bytes after it belong to
   whatever follows in the buffer, never to this payload. *)
type reader = { buf : bytes; mutable pos : int; stop : int }

exception Error of string

let r_byte r =
  let p = r.pos in
  if p >= r.stop then raise (Error "truncated");
  r.pos <- p + 1;
  Char.code (Bytes.unsafe_get r.buf p)

(* One bound check per byte: [stop] never exceeds the buffer.  More than
   ten digits cannot come from {!w_int}. *)
let rec varint r buf pos shift acc =
  if shift > 63 then raise (Error "varint overflow")
  else if pos >= r.stop then raise (Error "truncated")
  else
    let d = Char.code (Bytes.unsafe_get buf pos) in
    let acc = acc lor ((d land 0x7f) lsl shift) in
    if d land 0x80 = 0 then begin
      r.pos <- pos + 1;
      acc
    end
    else varint r buf (pos + 1) (shift + 7) acc

(* The one-digit case inline, the rest through {!varint}. *)
let[@inline] r_int r =
  let p = r.pos in
  if p >= r.stop then raise (Error "truncated")
  else
    let d = Char.code (Bytes.unsafe_get r.buf p) in
    if d land 0x80 = 0 then begin
      r.pos <- p + 1;
      unzigzag d
    end
    else unzigzag (varint r r.buf p 0 0)

let r_bool r =
  match r_byte r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Error (Printf.sprintf "bad bool byte %d" n))

let r_string r =
  let n = r_int r in
  if n < 0 then raise (Error "negative string length");
  if n > r.stop - r.pos then raise (Error "truncated");
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_count r =
  let n = r_int r in
  (* an element costs at least one byte, so a count beyond the remaining
     bytes is corrupt — refuse before allocating *)
  if n < 0 || n > r.stop - r.pos then
    raise (Error (Printf.sprintf "bad count %d" n));
  n

(* Likewise the element readers, with no closure per list; tail modulo
   cons keeps a long list off the stack. *)
let[@tail_mod_cons] rec r_elems r n f =
  if n = 0 then []
  else
    let x = f r in
    x :: r_elems r (n - 1) f

let r_list r f = r_elems r (r_count r) f

let r_array r f =
  match r_count r with
  | 0 -> [||]
  | n ->
    let a = Array.make n (f r) in
    for i = 1 to n - 1 do
      Array.unsafe_set a i (f r)
    done;
    a

let r_option r f = if r_bool r then Some (f r) else None

let at_end r = r.pos = r.stop

(* --- frames --- *)

let max_payload = 1 lsl 26

(* Check the frame at [pos] (header, length, CRC), then run [f] over its
   payload in place, up to the frame's end; with [whole], [f] must read
   every payload byte. *)
let run buf ~pos ~f ~whole =
  let len = Bytes.length buf in
  if pos < 0 || pos > len - header then Result.Error "truncated frame header"
  else
    let plen = Int32.to_int (Bytes.get_int32_le buf pos) in
    let crc = Int32.to_int (Bytes.get_int32_le buf (pos + 4)) land 0xFFFFFFFF in
    if plen < 0 || plen > max_payload then
      Result.Error "implausible frame length"
    else if plen > len - pos - header then Result.Error "truncated frame body"
    else if crc32_sub buf (pos + header) plen <> crc then
      Result.Error "frame CRC mismatch"
    else
      let r = { buf; pos = pos + header; stop = pos + header + plen } in
      match f r with
      | v ->
        if (not whole) || at_end r then Result.Ok (v, r.stop)
        else Result.Error "trailing payload bytes"
      | exception Error e -> Result.Error e
      | exception Invalid_argument e -> Result.Error ("invalid: " ^ e)

let decode buf ~pos ~f = run buf ~pos ~f ~whole:true
let peek buf ~pos ~f = run buf ~pos ~f ~whole:false

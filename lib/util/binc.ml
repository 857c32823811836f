type writer = Buffer.t

let writer () = Buffer.create 256

(* zigzag: sign bit into bit 0, so small magnitudes of either sign stay
   short.  [lsr 62] rather than 63: zigzag doubles, so the top bit of the
   doubled value is bit 62 of the magnitude. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag n = (n lsr 1) lxor (-(n land 1))

let w_int b n =
  let v = ref (zigzag n) in
  (* OCaml ints are 63-bit; as an unsigned quantity [!v] needs at most
     9 LEB128 digits *)
  let continue = ref true in
  while !continue do
    let digit = !v land 0x7f in
    v := !v lsr 7;
    if !v = 0 then begin
      Buffer.add_uint8 b digit;
      continue := false
    end
    else Buffer.add_uint8 b (digit lor 0x80)
  done

let w_bool b v = Buffer.add_uint8 b (if v then 1 else 0)

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_list b f l =
  w_int b (List.length l);
  List.iter (f b) l

let w_array b f a =
  w_int b (Array.length a);
  Array.iter (f b) a

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

let frame b =
  let n = Buffer.length b in
  let out = Bytes.create (8 + n) in
  Buffer.blit b 0 out 8 n;
  Bytes.set_int32_le out 0 (Int32.of_int n);
  Bytes.set_int32_le out 4 (Int32.of_int (crc32_sub out 8 n));
  out

(* --- reading --- *)

type reader = { buf : bytes; mutable pos : int }

exception Error of string

let reader buf = { buf; pos = 0 }

let need r n =
  if r.pos + n > Bytes.length r.buf then raise (Error "truncated")

let r_byte r =
  need r 1;
  let v = Bytes.get_uint8 r.buf r.pos in
  r.pos <- r.pos + 1;
  v

let r_int r =
  let v = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !shift > 63 then raise (Error "varint overflow");
    let d = r_byte r in
    v := !v lor ((d land 0x7f) lsl !shift);
    shift := !shift + 7;
    if d land 0x80 = 0 then continue := false
  done;
  unzigzag !v

let r_bool r =
  match r_byte r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Error (Printf.sprintf "bad bool byte %d" n))

let r_string r =
  let n = r_int r in
  if n < 0 then raise (Error "negative string length");
  need r n;
  let s = Bytes.sub_string r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_count r =
  let n = r_int r in
  (* an element costs at least one byte, so a count beyond the remaining
     bytes is corrupt — refuse before allocating *)
  if n < 0 || n > Bytes.length r.buf - r.pos then
    raise (Error (Printf.sprintf "bad count %d" n));
  n

let r_list r f = List.init (r_count r) (fun _ -> f r)
let r_array r f = Array.init (r_count r) (fun _ -> f r)

let r_option r f = if r_bool r then Some (f r) else None

let at_end r = r.pos = Bytes.length r.buf

(* --- frames --- *)

let unframe buf ~pos =
  let len = Bytes.length buf in
  if pos < 0 || pos + 8 > len then Result.Error "truncated frame header"
  else
    let plen = Int32.to_int (Bytes.get_int32_le buf pos) in
    let crc = Int32.to_int (Bytes.get_int32_le buf (pos + 4)) land 0xFFFFFFFF in
    if plen < 0 || plen > 1 lsl 26 then Result.Error "implausible frame length"
    else if pos + 8 + plen > len then Result.Error "truncated frame body"
    else if crc32_sub buf (pos + 8) plen <> crc then
      Result.Error "frame CRC mismatch"
    else Result.Ok (Bytes.sub buf (pos + 8) plen, pos + 8 + plen)

let decode buf ~pos ~f =
  match unframe buf ~pos with
  | Result.Error _ as e -> e
  | Result.Ok (p, next) -> (
    let r = reader p in
    match f r with
    | v ->
      if at_end r then Result.Ok (v, next)
      else Result.Error "trailing payload bytes"
    | exception Error e -> Result.Error e
    | exception Invalid_argument e -> Result.Error ("invalid: " ^ e))

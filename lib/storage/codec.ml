type record =
  | Begin of { txn : Txn.id; class_id : int; init : Time.t }
  | Write of { txn : Txn.id; granule : Granule.t; ts : Time.t; value : int }
  | Commit of { txn : Txn.id; at : Time.t }
  | Abort of { txn : Txn.id; at : Time.t }
  | Wall of { released_at : Time.t; components : Time.t array }

let equal_record a b = a = b

let pp_record ppf = function
  | Begin { txn; class_id; init } ->
    Format.fprintf ppf "begin t%d T%d @%d" txn class_id init
  | Write { txn; granule; ts; value } ->
    Format.fprintf ppf "write t%d %a^%d=%d" txn Granule.pp granule ts value
  | Commit { txn; at } -> Format.fprintf ppf "commit t%d @%d" txn at
  | Abort { txn; at } -> Format.fprintf ppf "abort t%d @%d" txn at
  | Wall { released_at; components } ->
    Format.fprintf ppf "wall @%d [%s]" released_at
      (String.concat ","
         (Array.to_list (Array.map string_of_int components)))

(* frame: [payload length : u32 LE][crc32 of payload : u32 LE][payload];
   payload: 1-byte tag, then 8-byte little-endian signed ints.  Wall is
   count-prefixed: released_at, n, then n components. *)
let tag = function
  | Begin _ -> 1
  | Write _ -> 2
  | Commit _ -> 3
  | Abort _ -> 4
  | Wall _ -> 5

let field_count = function
  | Begin _ -> 3
  | Write _ -> 5
  | Commit _ | Abort _ -> 2
  | Wall { components; _ } -> 2 + Array.length components

(* field [i] sits after the 8-byte header and the tag *)
let set f i v = Bytes.set_int64_le f (9 + (8 * i)) (Int64.of_int v)

let encode r =
  let plen = 1 + (8 * field_count r) in
  let f = Bytes.create (8 + plen) in
  (match r with
  | Begin { txn; class_id; init } ->
    set f 0 txn;
    set f 1 class_id;
    set f 2 init
  | Write { txn; granule; ts; value } ->
    set f 0 txn;
    set f 1 granule.Granule.segment;
    set f 2 granule.Granule.key;
    set f 3 ts;
    set f 4 value
  | Commit { txn; at } | Abort { txn; at } ->
    set f 0 txn;
    set f 1 at
  | Wall { released_at; components } ->
    set f 0 released_at;
    set f 1 (Array.length components);
    Array.iteri (fun i v -> set f (2 + i) v) components);
  Bytes.set_uint8 f 8 (tag r);
  Bytes.set_int32_le f 0 (Int32.of_int plen);
  Bytes.set_int32_le f 4 (Int32.of_int (Hdd_util.Binc.crc32_sub f 8 plen));
  f

let decode buf ~pos =
  let len = Bytes.length buf in
  if pos + 8 > len then Error `Truncated
  else
    let plen = Int32.to_int (Bytes.get_int32_le buf pos) in
    let crc = Int32.to_int (Bytes.get_int32_le buf (pos + 4)) land 0xFFFFFFFF in
    if plen <= 0 || plen > 1 lsl 20 then Error `Corrupt
    else if pos + 8 + plen > len then Error `Truncated
    else if Hdd_util.Binc.crc32_sub buf (pos + 8) plen <> crc then
      Error `Corrupt
    else
      let field i = Int64.to_int (Bytes.get_int64_le buf (pos + 9 + (8 * i))) in
      let expect n = plen = 1 + (8 * n) in
      let next = pos + 8 + plen in
      match Bytes.get_uint8 buf (pos + 8) with
      | 1 when expect 3 ->
        Ok (Begin { txn = field 0; class_id = field 1; init = field 2 }, next)
      | 2 when expect 5 ->
        Ok
          ( Write
              { txn = field 0;
                granule = Granule.make ~segment:(field 1) ~key:(field 2);
                ts = field 3;
                value = field 4 },
            next )
      | 3 when expect 2 -> Ok (Commit { txn = field 0; at = field 1 }, next)
      | 4 when expect 2 -> Ok (Abort { txn = field 0; at = field 1 }, next)
      | 5 when plen >= 1 + (8 * 2) ->
        let n = field 1 in
        if n < 0 || not (expect (2 + n)) then Error `Corrupt
        else
          Ok
            ( Wall
                { released_at = field 0;
                  components = Array.init n (fun i -> field (2 + i)) },
              next )
      | _ -> Error `Corrupt

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let num_of_int i = Num (float_of_int i)

(* --- schema versioning --- *)

let schema_version = 2

let with_schema fields =
  Obj (("schema_version", num_of_int schema_version) :: fields)

let schema_of = function
  | Obj fields -> (
    match List.assoc_opt "schema_version" fields with
    | Some (Num f) when Float.is_integer f -> Some (int_of_float f)
    | _ -> None)
  | _ -> None

(* --- emission --- *)

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

let emit_number b f =
  (* JSON has no nan/infinity tokens; degrade to null rather than emit an
     unparseable document *)
  if Float.is_finite f then Buffer.add_string b (number_to_string f)
  else Buffer.add_string b "null"

let rec emit b indent v =
  let pad n = Buffer.add_string b (String.make n ' ') in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> emit_number b f
  | Str s ->
    Buffer.add_char b '"';
    escape b s;
    Buffer.add_char b '"'
  | List [] -> Buffer.add_string b "[]"
  | List xs ->
    Buffer.add_string b "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",\n";
        pad (indent + 2);
        emit b (indent + 2) x)
      xs;
    Buffer.add_char b '\n';
    pad indent;
    Buffer.add_char b ']'
  | Obj [] -> Buffer.add_string b "{}"
  | Obj kvs ->
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (k, x) ->
        if i > 0 then Buffer.add_string b ",\n";
        pad (indent + 2);
        Buffer.add_char b '"';
        escape b k;
        Buffer.add_string b "\": ";
        emit b (indent + 2) x)
      kvs;
    Buffer.add_char b '\n';
    pad indent;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  emit b 0 v;
  Buffer.add_char b '\n';
  Buffer.contents b

let to_file path v =
  let oc = open_out path in
  output_string oc (to_string v);
  close_out oc

(* --- parsing (recursive descent over the grammar we emit) --- *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_error "expected %c at %d, found %c" c !pos c'
    | None -> parse_error "expected %c at %d, found end of input" c !pos
  in
  let literal word v =
    if !pos + String.length word <= n
       && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else parse_error "invalid literal at %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> parse_error "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> Buffer.add_char b '"'; advance ()
        | Some '\\' -> Buffer.add_char b '\\'; advance ()
        | Some '/' -> Buffer.add_char b '/'; advance ()
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then parse_error "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          (* we only emit codes below 0x20; wider input degrades to '?' *)
          Buffer.add_char b (if code < 128 then Char.chr code else '?')
        | _ -> parse_error "bad escape at %d" !pos);
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> parse_error "bad number at %d" start
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); List [] end
      else begin
        let rec items acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> parse_error "expected ',' or ']' at %d" !pos
        in
        List (items [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> parse_error "expected ',' or '}' at %d" !pos
        in
        Obj (members [])
      end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error "trailing input at %d" !pos;
  v

let of_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  of_string s

(* --- navigation --- *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

let rec path keys v =
  match keys with
  | [] -> Some v
  | k :: rest -> ( match member k v with Some v -> path rest v | None -> None)

let number = function Num f -> Some f | _ -> None

let num_at keys v =
  match Option.bind (path keys v) number with Some f -> f | None -> nan

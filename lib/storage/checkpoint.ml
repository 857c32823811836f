module J = Hdd_benchkit.Jsonlite
module B = Hdd_util.Binc

type meta = {
  seq : int;
  file : string;  (** basename, relative to the log's directory *)
  log_offset : int;
  wall : Time.t array;
  last_time : Time.t;
  crc : int;
  bytes : int;
}

let manifest_path ~log = log ^ ".manifest"
let data_path ~log ~seq = Printf.sprintf "%s.ckpt.%d" log seq

let keep_checkpoints = 2

(* --- manifest: JSON --- *)

let num = J.num_of_int
let ints l = J.List (List.map num l)

let int_of j = Option.map int_of_float (J.number j)

let int_field name j = Option.bind (J.member name j) int_of

let int_array_field name j =
  match J.member name j with
  | Some (J.List l) ->
    let vs = List.filter_map int_of l in
    if List.length vs = List.length l then Some (Array.of_list vs) else None
  | _ -> None

let meta_json m =
  J.Obj
    [ ("seq", num m.seq);
      ("file", J.Str m.file);
      ("log_offset", num m.log_offset);
      ("wall", ints (Array.to_list m.wall));
      ("last_time", num m.last_time);
      ("crc", num m.crc);
      ("bytes", num m.bytes) ]

let meta_of_json j =
  match
    ( int_field "seq" j,
      J.member "file" j,
      int_field "log_offset" j,
      int_array_field "wall" j,
      int_field "last_time" j,
      int_field "crc" j,
      int_field "bytes" j )
  with
  | Some seq, Some (J.Str file), Some log_offset, Some wall, Some last_time,
    Some crc, Some bytes ->
    Some { seq; file; log_offset; wall; last_time; crc; bytes }
  | _ -> None

let read_manifest ~log =
  let path = manifest_path ~log in
  if not (Sys.file_exists path) then []
  else
    match J.of_file path with
    | exception _ -> []
    | j -> (
      match J.member "entries" j with
      | Some (J.List l) ->
        List.filter_map meta_of_json l
        |> List.sort (fun a b -> compare b.seq a.seq)
      | _ -> [])

let manifest_json entries =
  J.with_schema [ ("entries", J.List (List.map meta_json entries)) ]

(* --- data file: one Binc frame --- *)

let data_frame ~seq ~log_offset ~last_time ~committed ~aborted ~versions
    ~pending =
  let b = B.writer () in
  let ints = List.iter (B.w_int b) in
  ints [ seq; log_offset; last_time; committed; aborted ];
  B.w_list b
    (fun _ ((g : Granule.t), vs) ->
      ints [ g.segment; g.key ];
      B.w_list b (fun _ (ts, v) -> ints [ ts; v ]) vs)
    versions;
  B.w_list b
    (fun _ (txn, class_id, init, writes) ->
      ints [ txn; class_id; init ];
      B.w_list b
        (fun _ ((g : Granule.t), ts, v) -> ints [ g.segment; g.key; ts; v ])
        writes)
    pending;
  B.frame b

(* Fields in write order: OCaml evaluates tuple components in no fixed
   order, so every read is its own [let]. *)
let r_data r =
  let int () = B.r_int r in
  let granule () =
    let segment = int () in
    Granule.make ~segment ~key:(int ())
  in
  let seq = int () in
  let log_offset = int () in
  let last_time = int () in
  let committed = int () in
  let aborted = int () in
  let versions =
    B.r_list r (fun _ ->
        let g = granule () in
        (g, B.r_list r (fun _ -> let ts = int () in (ts, int ()))))
  in
  let pending =
    B.r_list r (fun _ ->
        let txn = int () in
        let class_id = int () in
        let init = int () in
        let writes =
          B.r_list r (fun _ ->
              let g = granule () in
              let ts = int () in
              (g, ts, int ()))
        in
        (txn, class_id, init, writes))
  in
  (seq, log_offset, (last_time, committed, aborted, versions, pending))

(* --- atomic file discipline: temp + checksum + rename --- *)

let write_atomic ?faults ~point_write ~point_rename ~path payload =
  let tmp = path ^ ".tmp" in
  (match faults with
  | Some p -> Fault.cross_write p point_write ~path:tmp payload
  | None ->
    let oc = Out_channel.open_bin tmp in
    Out_channel.output_bytes oc payload;
    Out_channel.close oc);
  (match faults with Some p -> Fault.cross p point_rename | None -> ());
  Sys.rename tmp path

(* Keep the newest [keep_checkpoints] manifest entries (newest first on
   input); best-effort removal of the dropped entries' data files. *)
let prune ~log entries =
  let rec split i = function
    | [] -> ([], [])
    | m :: rest ->
      if i < keep_checkpoints then
        let k, d = split (i + 1) rest in
        (m :: k, d)
      else ([], m :: rest)
  in
  let keep, drop = split 0 entries in
  List.iter
    (fun m ->
      let p = Filename.concat (Filename.dirname log) m.file in
      if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ())
    drop;
  keep

let write ?faults ~log ~seq ~log_offset ~wall ~last_time ~committed ~aborted
    ~versions ~pending () =
  let payload =
    data_frame ~seq ~log_offset ~last_time ~committed ~aborted ~versions
      ~pending
  in
  let crc = B.crc32_sub payload 0 (Bytes.length payload) in
  let path = data_path ~log ~seq in
  write_atomic ?faults ~point_write:(Fault.Checkpoint_write seq)
    ~point_rename:(Fault.Checkpoint_rename seq) ~path payload;
  let m =
    { seq; file = Filename.basename path; log_offset; wall = Array.copy wall;
      last_time; crc; bytes = Bytes.length payload }
  in
  let entries = prune ~log (m :: read_manifest ~log) in
  let manifest = Bytes.of_string (J.to_string (manifest_json entries)) in
  write_atomic ?faults ~point_write:(Fault.Manifest_write seq)
    ~point_rename:(Fault.Manifest_rename seq)
    ~path:(manifest_path ~log) manifest;
  m

(* --- load --- *)

let load_data ~log m =
  let path = Filename.concat (Filename.dirname log) m.file in
  if not (Sys.file_exists path) then None
  else
    let ic = In_channel.open_bin path in
    let payload = Bytes.of_string (In_channel.input_all ic) in
    In_channel.close ic;
    if
      Bytes.length payload <> m.bytes
      || B.crc32_sub payload 0 m.bytes <> m.crc
    then None
    else
      match B.decode payload ~pos:0 ~f:r_data with
      | Ok ((seq, log_offset, data), next)
        when next = m.bytes && seq = m.seq && log_offset = m.log_offset ->
        Some data
      | Ok _ | Error _ -> None

let restore ?trace ~segments ~init
    (last_time, committed, aborted, versions, pending) =
  let replay = Replay.create ?trace ~segments ~init () in
  List.iter
    (fun (g, vs) ->
      List.iter
        (fun (ts, value) ->
          Replay.install_writes replay ~txn:Txn.bootstrap.Txn.id
            [ (g, ts, value) ])
        vs)
    versions;
  replay.Replay.last_time <- last_time;
  replay.Replay.committed <- committed;
  replay.Replay.aborted <- aborted;
  Replay.restore_pending replay pending;
  replay

let best ?trace ~log ~segments ~init () =
  let rec try_entries = function
    | [] -> None
    | m :: rest -> (
      match load_data ~log m with
      | Some data -> Some (restore ?trace ~segments ~init data, m)
      | None -> try_entries rest)
  in
  try_entries (read_manifest ~log)

let latest_seq ~log =
  match read_manifest ~log with [] -> 0 | m :: _ -> m.seq

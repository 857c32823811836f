exception Crash of string
exception Io_error of string

type sink = {
  append : bytes -> unit;
  flush : unit -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

let file_sink ?(fsync = true) ~path () =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  { append = (fun b -> output_bytes oc b);
    flush = (fun () -> Stdlib.flush oc);
    sync =
      (fun () ->
        Stdlib.flush oc;
        if fsync then Unix.fsync fd);
    close = (fun () -> close_out oc (* flushes, closes the descriptor *)) }

(* --- logical injection points --- *)

type point =
  | Batch_append of { batch : int; frame : int }
  | Batch_fsync of int
  | Batch_ack of int
  | Checkpoint_write of int
  | Checkpoint_rename of int
  | Manifest_write of int
  | Manifest_rename of int
  | Ship_send of int
  | Ship_apply of int

let kind = function
  | Batch_append _ -> "batch_append"
  | Batch_fsync _ -> "batch_fsync"
  | Batch_ack _ -> "batch_ack"
  | Checkpoint_write _ -> "checkpoint_write"
  | Checkpoint_rename _ -> "checkpoint_rename"
  | Manifest_write _ -> "manifest_write"
  | Manifest_rename _ -> "manifest_rename"
  | Ship_send _ -> "ship_send"
  | Ship_apply _ -> "ship_apply"

let kinds =
  [ "batch_append"; "batch_fsync"; "batch_ack"; "checkpoint_write";
    "checkpoint_rename"; "manifest_write"; "manifest_rename"; "ship_send";
    "ship_apply" ]

let pp_point ppf = function
  | Batch_append { batch; frame } ->
    Format.fprintf ppf "batch_append(%d,%d)" batch frame
  | Batch_fsync n -> Format.fprintf ppf "batch_fsync(%d)" n
  | Batch_ack n -> Format.fprintf ppf "batch_ack(%d)" n
  | Checkpoint_write n -> Format.fprintf ppf "checkpoint_write(%d)" n
  | Checkpoint_rename n -> Format.fprintf ppf "checkpoint_rename(%d)" n
  | Manifest_write n -> Format.fprintf ppf "manifest_write(%d)" n
  | Manifest_rename n -> Format.fprintf ppf "manifest_rename(%d)" n
  | Ship_send n -> Format.fprintf ppf "ship_send(%d)" n
  | Ship_apply n -> Format.fprintf ppf "ship_apply(%d)" n

type event =
  | Crash_after_frames of int
  | Crash_after_bytes of int
  | Torn_write of { frame : int; keep : int }
  | Bit_flip of { byte : int; bit : int }
  | Append_error of { frame : int }
  | Sync_error of { sync : int }
  | Crash_at of point
  | Error_at of point
  | Torn_at of { point : point; keep : int }
  | Corrupt_at of { point : point; byte : int; bit : int }

let pp_event ppf = function
  | Crash_after_frames n -> Format.fprintf ppf "crash-after-%d-frames" n
  | Crash_after_bytes n -> Format.fprintf ppf "crash-after-%d-bytes" n
  | Torn_write { frame; keep } ->
    Format.fprintf ppf "torn-write frame %d keep %d" frame keep
  | Bit_flip { byte; bit } ->
    Format.fprintf ppf "bit-flip byte %d bit %d" byte bit
  | Append_error { frame } -> Format.fprintf ppf "append-error frame %d" frame
  | Sync_error { sync } -> Format.fprintf ppf "sync-error sync %d" sync
  | Crash_at p -> Format.fprintf ppf "crash-at %a" pp_point p
  | Error_at p -> Format.fprintf ppf "error-at %a" pp_point p
  | Torn_at { point; keep } ->
    Format.fprintf ppf "torn-at %a keep %d" pp_point point keep
  | Corrupt_at { point; byte; bit } ->
    Format.fprintf ppf "corrupt-at %a byte %d bit %d" pp_point point byte bit

type plan = {
  events : event list;
  mutable frames : int;
  mutable bytes : int;
  mutable sync_count : int;
  mutable is_crashed : bool;
  mutable fired_events : event list;
  mutable reached_points : point list;
  mutable on_crash : (unit -> unit) list;
}

let plan events =
  { events; frames = 0; bytes = 0; sync_count = 0; is_crashed = false;
    fired_events = []; reached_points = []; on_crash = [] }

let crashed p = p.is_crashed
let fired p = p.fired_events
let reached p = p.reached_points
let bytes_appended p = p.bytes

let fire p ev = p.fired_events <- ev :: p.fired_events

(* the first not-yet-fired event satisfying [select] *)
let next_match p select =
  List.find_opt
    (fun ev -> select ev && not (List.mem ev p.fired_events))
    p.events

(* The one crash path: flush whatever every registered sink buffered (the
   appended prefix becomes the recoverable state), mark the plan dead,
   raise. *)
let crash_now p msg =
  p.is_crashed <- true;
  List.iter (fun f -> try f () with _ -> ()) p.on_crash;
  raise (Crash msg)

let alive p =
  if p.is_crashed then raise (Crash "operation after simulated crash")

let cross p pt =
  alive p;
  p.reached_points <- pt :: p.reached_points;
  (match next_match p (function Error_at q -> q = pt | _ -> false) with
  | Some ev ->
    fire p ev;
    raise
      (Io_error (Format.asprintf "injected transient error at %a" pp_point pt))
  | None -> ());
  match next_match p (function Crash_at q -> q = pt | _ -> false) with
  | Some ev ->
    fire p ev;
    crash_now p (Format.asprintf "crash at %a" pp_point pt)
  | None -> ()

let write_file path b =
  let oc = Out_channel.open_bin path in
  Out_channel.output_bytes oc b;
  Out_channel.close oc

let cross_write p pt ~path b =
  alive p;
  p.reached_points <- pt :: p.reached_points;
  (match next_match p (function Error_at q -> q = pt | _ -> false) with
  | Some ev ->
    fire p ev;
    raise
      (Io_error (Format.asprintf "injected transient error at %a" pp_point pt))
  | None -> ());
  (match next_match p (function Crash_at q -> q = pt | _ -> false) with
  | Some ev ->
    fire p ev;
    crash_now p (Format.asprintf "crash at %a" pp_point pt)
  | None -> ());
  (match
     next_match p (function Torn_at { point; _ } -> point = pt | _ -> false)
   with
  | Some (Torn_at { keep; _ } as ev) ->
    fire p ev;
    let keep = max 0 (min keep (Bytes.length b - 1)) in
    write_file path (Bytes.sub b 0 keep);
    crash_now p
      (Format.asprintf "torn write at %a: %d of %d bytes" pp_point pt keep
         (Bytes.length b))
  | _ -> ());
  let b =
    match
      List.filter
        (fun ev ->
          (match ev with
          | Corrupt_at { point; byte; _ } ->
            point = pt && byte >= 0 && byte < Bytes.length b
          | _ -> false)
          && not (List.mem ev p.fired_events))
        p.events
    with
    | [] -> b
    | flips ->
      let c = Bytes.copy b in
      List.iter
        (function
          | Corrupt_at { byte; bit; _ } as ev ->
            fire p ev;
            Bytes.set_uint8 c byte
              (Bytes.get_uint8 c byte lxor (1 lsl (bit land 7)))
          | _ -> ())
        flips;
      c
  in
  write_file path b

let apply p inner =
  p.on_crash <- inner.flush :: p.on_crash;
  let die msg =
    (* everything appended so far becomes the recoverable prefix *)
    crash_now p msg
  in
  let append frame =
    alive p;
    let idx = p.frames in
    (match next_match p (function Append_error { frame = f } -> f = idx | _ -> false) with
    | Some ev ->
      fire p ev;
      raise (Io_error (Printf.sprintf "injected append error at frame %d" idx))
    | None -> ());
    let len = Bytes.length frame in
    let start = p.bytes in
    let frame =
      match
        List.filter
          (fun ev ->
            (match ev with
            | Bit_flip { byte; _ } -> byte >= start && byte < start + len
            | _ -> false)
            && not (List.mem ev p.fired_events))
          p.events
      with
      | [] -> frame
      | flips ->
        let b = Bytes.copy frame in
        List.iter
          (function
            | Bit_flip { byte; bit } as ev ->
              fire p ev;
              let off = byte - start in
              Bytes.set_uint8 b off
                (Bytes.get_uint8 b off lxor (1 lsl (bit land 7)))
            | _ -> ())
          flips;
        b
    in
    (match next_match p (function Torn_write { frame = f; _ } -> f = idx | _ -> false) with
    | Some (Torn_write { keep; _ } as ev) ->
      fire p ev;
      let keep = max 0 (min keep (len - 1)) in
      inner.append (Bytes.sub frame 0 keep);
      p.bytes <- start + keep;
      die (Printf.sprintf "torn write: frame %d cut to %d bytes" idx keep)
    | _ -> ());
    (match next_match p (function Crash_after_bytes n -> start + len >= n | _ -> false) with
    | Some (Crash_after_bytes n as ev) ->
      fire p ev;
      let keep = max 0 (min len (n - start)) in
      inner.append (Bytes.sub frame 0 keep);
      p.bytes <- start + keep;
      die (Printf.sprintf "crash after %d bytes" n)
    | _ -> ());
    inner.append frame;
    p.bytes <- start + len;
    p.frames <- p.frames + 1;
    match next_match p (function Crash_after_frames n -> p.frames >= n | _ -> false) with
    | Some ev ->
      fire p ev;
      die (Printf.sprintf "crash after %d frames" p.frames)
    | None -> ()
  in
  let flush () =
    alive p;
    inner.flush ()
  in
  let sync () =
    alive p;
    p.sync_count <- p.sync_count + 1;
    (match next_match p (function Sync_error { sync = s } -> s = p.sync_count | _ -> false) with
    | Some ev ->
      fire p ev;
      raise
        (Io_error (Printf.sprintf "injected fsync failure (sync %d)" p.sync_count))
    | None -> ());
    inner.sync ()
  in
  (* close must work even after a crash so tests can release descriptors *)
  { append; flush; sync; close = inner.close }

(* Tests for the durability substrate: codec roundtrips, WAL recovery
   with torn and corrupt tails, and end-to-end crash/recover/resume of a
   durable HDD database. *)

module Codec = Hdd_storage.Codec
module Wal = Hdd_storage.Wal
module Durable = Hdd_storage.Durable
module Fault = Hdd_storage.Fault
module Torture = Hdd_storage.Torture
module Checkpoint = Hdd_storage.Checkpoint
module Group_commit = Hdd_storage.Group_commit
module Replica = Hdd_storage.Replica
module Scheduler = Hdd_core.Scheduler
module Outcome = Hdd_core.Outcome
module Store = Hdd_mvstore.Store
module Prng = Hdd_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* Remove the log AND any checkpoint/manifest siblings a previous run
   left beside it: a stale manifest would hand recovery a checkpoint cut
   from some other history. *)
let fresh name =
  let path = tmp name in
  let dir = Filename.dirname path in
  Array.iter
    (fun f ->
      if
        String.length f >= String.length name
        && String.sub f 0 (String.length name) = name
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  path

let gr s k = Granule.make ~segment:s ~key:k

let ok = function
  | Outcome.Granted v -> v
  | Outcome.Blocked _ -> Alcotest.fail "unexpected block"
  | Outcome.Rejected why -> Alcotest.fail ("unexpected rejection: " ^ why)

(* --- codec --- *)

let sample_records =
  [ Codec.Begin { txn = 7; class_id = 2; init = 13 };
    Codec.Write { txn = 7; granule = gr 2 5; ts = 13; value = 42 };
    Codec.Write { txn = 7; granule = gr 0 0; ts = 13; value = -1 };
    Codec.Commit { txn = 7; at = 15 };
    Codec.Abort { txn = 9; at = 20 } ]

let test_codec_roundtrip () =
  List.iter
    (fun r ->
      let frame = Codec.encode r in
      match Codec.decode frame ~pos:0 with
      | Ok (r', next) ->
        checkb "roundtrip" true (Codec.equal_record r r');
        checki "consumed whole frame" (Bytes.length frame) next
      | Error _ -> Alcotest.fail "decode failed")
    sample_records

let test_codec_truncation () =
  let frame = Codec.encode (List.hd sample_records) in
  for cut = 0 to Bytes.length frame - 1 do
    match Codec.decode (Bytes.sub frame 0 cut) ~pos:0 with
    | Error `Truncated -> ()
    | Error `Corrupt -> Alcotest.fail "truncation misread as corruption"
    | Ok _ -> Alcotest.fail "decoded a truncated frame"
  done

let test_codec_corruption () =
  let frame = Codec.encode (List.nth sample_records 1) in
  (* flip one payload byte *)
  let bad = Bytes.copy frame in
  Bytes.set_uint8 bad 12 (Bytes.get_uint8 bad 12 lxor 0xff);
  match Codec.decode bad ~pos:0 with
  | Error `Corrupt -> ()
  | _ -> Alcotest.fail "corruption undetected"

(* One frame per record kind, byte for byte as the byte-at-a-time
   encoder wrote them: the in-place encoder must not move the log
   format. *)
let pinned_frames =
  [ ( Codec.Begin { txn = 7; class_id = 2; init = 41 },
      "19000000e8f5c51c01070000000000000002000000000000002900000000000000" );
    ( Codec.Write { txn = 7; granule = gr 1 300; ts = 41; value = -5 },
      "29000000379cf2ba02070000000000000001000000000000002c0100000000000029\
       00000000000000fbffffffffffffff" );
    ( Codec.Commit { txn = 7; at = 44 },
      "11000000552555c90307000000000000002c00000000000000" );
    ( Codec.Abort { txn = 9; at = 1 lsl 40 },
      "110000009bb25e660409000000000000000000000000010000" );
    ( Codec.Wall { released_at = 50; components = [| 3; 0; 50 |] },
      "29000000168b6f85053200000000000000030000000000000003000000000000000000\
       0000000000003200000000000000" ) ]

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let test_codec_pinned_frames () =
  List.iter
    (fun (r, expected) ->
      let frame = Codec.encode r in
      Alcotest.(check string) (Format.asprintf "%a" Codec.pp_record r) expected
        (hex frame);
      match Codec.decode frame ~pos:0 with
      | Ok (r', _) ->
        checkb "pinned frame decodes" true (Codec.equal_record r r')
      | Error _ -> Alcotest.fail "pinned frame rejected")
    pinned_frames

let prop_codec_random =
  QCheck2.Test.make ~name:"codec: random records roundtrip" ~count:300
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let r =
        match Prng.int rng 4 with
        | 0 ->
          Codec.Begin
            { txn = Prng.int rng 10000; class_id = Prng.int rng 8;
              init = Prng.int rng 100000 }
        | 1 ->
          Codec.Write
            { txn = Prng.int rng 10000;
              granule = gr (Prng.int rng 8) (Prng.int rng 1000);
              ts = Prng.int rng 100000;
              value = Prng.int rng 1000000 - 500000 }
        | 2 -> Codec.Commit { txn = Prng.int rng 10000; at = Prng.int rng 100000 }
        | _ -> Codec.Abort { txn = Prng.int rng 10000; at = Prng.int rng 100000 }
      in
      match Codec.decode (Codec.encode r) ~pos:0 with
      | Ok (r', _) -> Codec.equal_record r r'
      | Error _ -> false)

(* --- WAL --- *)

let test_wal_roundtrip () =
  let path = fresh "hdd_wal_roundtrip.log" in
  let wal = Wal.create ~path () in
  List.iter (Wal.append wal) sample_records;
  checki "appended" 5 (Wal.appended wal);
  Wal.sync wal;
  Wal.close wal;
  let { Wal.records; complete; _ } = Wal.read_all ~path in
  checkb "complete" true complete;
  checki "all back" 5 (List.length records);
  List.iter2
    (fun a b -> checkb "in order" true (Codec.equal_record a b))
    sample_records records

let test_wal_torn_tail () =
  let path = fresh "hdd_wal_torn.log" in
  let wal = Wal.create ~path () in
  List.iter (Wal.append wal) sample_records;
  Wal.close wal;
  (* tear the last 3 bytes off, as a crash mid-append would *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - 3)));
  let { Wal.records; complete; _ } = Wal.read_all ~path in
  checkb "tail dropped" false complete;
  checki "intact prefix survives" 4 (List.length records)

let test_wal_append_across_sessions () =
  let path = fresh "hdd_wal_sessions.log" in
  let w1 = Wal.create ~path () in
  Wal.append w1 (List.hd sample_records);
  Wal.close w1;
  let w2 = Wal.create ~path () in
  Wal.append w2 (List.nth sample_records 3);
  Wal.close w2;
  let { Wal.records; complete; _ } = Wal.read_all ~path in
  checkb "complete" true complete;
  checki "both sessions present" 2 (List.length records)

(* --- WAL damage properties ---

   A cut at any byte offset and a flip of any single bit must both be
   detected, recover to an intact prefix of what was written, and leave
   a log that [Durable.of_recovery] can truncate and resume cleanly. *)

(* A structurally valid random log — per transaction a Begin, a few
   Writes, then Commit or Abort, timestamps monotone: the shape
   [Durable.recover] replays. *)
let random_log rng =
  let time = ref 0 in
  let tick () =
    incr time;
    !time
  in
  let recs = ref [] in
  let ntxn = 1 + Prng.int rng 4 in
  for id = 1 to ntxn do
    let cls = Prng.int rng 3 in
    let init = tick () in
    recs := Codec.Begin { txn = id; class_id = cls; init } :: !recs;
    for _ = 1 to 1 + Prng.int rng 3 do
      recs :=
        Codec.Write
          { txn = id; granule = gr cls (Prng.int rng 3); ts = init;
            value = Prng.int rng 1000 }
        :: !recs
    done;
    if Prng.int rng 4 > 0 then
      recs := Codec.Commit { txn = id; at = tick () } :: !recs
    else recs := Codec.Abort { txn = id; at = tick () } :: !recs
  done;
  List.rev !recs

let write_log path records =
  let wal = Wal.create ~path () in
  List.iter (Wal.append wal) records;
  Wal.sync wal;
  Wal.close wal

let file_bytes path = In_channel.with_open_bin path In_channel.input_all

let rewrite path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let is_prefix_of written got =
  let rec go = function
    | _, [] -> true
    | w :: ws, g :: gs -> Codec.equal_record w g && go (ws, gs)
    | [], _ :: _ -> false
  in
  go (written, got)

(* The full damaged-log contract: read_all yields a prefix of what was
   written, recover agrees byte-for-byte with read_all, of_recovery
   resumes (truncating the dead tail), and the resumed log is intact. *)
let recovers_cleanly path written =
  let { Wal.records; complete; bytes_read } = Wal.read_all ~path in
  let prefix_ok = is_prefix_of written records in
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  let agree =
    r.Durable.valid_bytes = bytes_read && r.Durable.log_intact = complete
  in
  let db = Durable.of_recovery ~path ~partition:Fixtures.inventory r in
  let t = Durable.begin_update db ~class_id:0 in
  let resumed =
    match Durable.write db t (gr 0 0) 1 with
    | Outcome.Granted () -> true
    | _ -> false
  in
  Durable.commit db t;
  Durable.close db;
  let r2 = Wal.read_all ~path in
  prefix_ok && agree && resumed && r2.Wal.complete
  && List.length r2.Wal.records = List.length records + 3

let prop_wal_truncation_boundary =
  QCheck2.Test.make
    ~name:"wal: a cut at any byte offset recovers an intact prefix" ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let path = fresh (Printf.sprintf "hdd_wal_cut_%d.log" seed) in
      let written = random_log rng in
      write_log path written;
      let full = file_bytes path in
      let cut = Prng.int rng (String.length full + 1) in
      rewrite path (String.sub full 0 cut);
      let { Wal.bytes_read; _ } = Wal.read_all ~path in
      bytes_read <= cut && recovers_cleanly path written)

let prop_wal_bitflip =
  QCheck2.Test.make
    ~name:"wal: any single flipped bit is detected and the prefix recovers"
    ~count:60
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let path = fresh (Printf.sprintf "hdd_wal_flip_%d.log" seed) in
      let written = random_log rng in
      write_log path written;
      let full = Bytes.of_string (file_bytes path) in
      let pos = Prng.int rng (Bytes.length full) in
      let bit = Prng.int rng 8 in
      Bytes.set_uint8 full pos (Bytes.get_uint8 full pos lxor (1 lsl bit));
      rewrite path (Bytes.to_string full);
      let { Wal.records; complete; _ } = Wal.read_all ~path in
      (* CRC-32 catches every single-bit error, so the damage can never
         pass for a complete log; frames wholly before it must survive *)
      let frames_before =
        let n = ref 0 and off = ref 0 in
        List.iter
          (fun r ->
            off := !off + Bytes.length (Codec.encode r);
            if !off <= pos then incr n)
          written;
        !n
      in
      (not complete)
      && List.length records >= frames_before
      && recovers_cleanly path written)

(* --- durable database end to end --- *)

let partition = Fixtures.inventory

let test_durable_crash_recovery () =
  let path = fresh "hdd_durable_crash.log" in
  let db = Durable.create ~sync_on_commit:true ~path ~partition () in
  (* committed work *)
  let t1 = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t1 (gr 2 0) 11);
  ok (Durable.write db t1 (gr 2 1) 22);
  Durable.commit db t1;
  let t2 = Durable.begin_update db ~class_id:1 in
  let base = ok (Durable.read db t2 (gr 2 0)) in
  ok (Durable.write db t2 (gr 1 0) (base * 2));
  Durable.commit db t2;
  (* an aborted transaction *)
  let t3 = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t3 (gr 2 0) 999);
  Durable.abort db t3;
  (* an in-flight transaction lost to the crash *)
  let t4 = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t4 (gr 2 1) 777);
  Durable.close db (* crash: t4 never committed *);
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checkb "log intact" true r.Durable.log_intact;
  checki "two commits recovered" 2 r.Durable.committed;
  checki "one abort recovered" 1 r.Durable.aborted;
  checki "t4 lost" 1 r.Durable.lost_uncommitted;
  (* recovered state: committed values visible, aborted/lost invisible *)
  let read_latest g =
    match
      Store.committed_before r.Durable.store g ~ts:(r.Durable.last_time + 1)
    with
    | Some v -> v.Hdd_mvstore.Chain.value
    | None -> Alcotest.fail "missing recovered version"
  in
  checki "t1's first write" 11 (read_latest (gr 2 0));
  checki "t1's second write" 22 (read_latest (gr 2 1));
  checki "t2's derived value" 22 (read_latest (gr 1 0));
  (* resume and keep working *)
  let db2 = Durable.of_recovery ~path ~partition r in
  let t5 = Durable.begin_update db2 ~class_id:0 in
  checki "resumed reads see recovered data" 22
    (ok (Durable.read db2 t5 (gr 2 1)));
  ok (Durable.write db2 t5 (gr 0 0) 5);
  Durable.commit db2 t5;
  Durable.close db2;
  let r2 = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checki "post-resume commit recovered too" 3 r2.Durable.committed

let test_durable_torn_commit_loses_transaction () =
  let path = fresh "hdd_durable_torn.log" in
  let db = Durable.create ~path ~partition () in
  let t1 = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t1 (gr 2 0) 1);
  Durable.commit db t1;
  let t2 = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t2 (gr 2 0) 2);
  Durable.commit db t2;
  Durable.close db;
  (* tear into t2's commit record *)
  let full = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full - 5)));
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checkb "tear detected" false r.Durable.log_intact;
  checki "only t1 committed" 1 r.Durable.committed;
  (match
     Store.committed_before r.Durable.store (gr 2 0)
       ~ts:(r.Durable.last_time + 1)
   with
  | Some v -> checki "t1's value stands" 1 v.Hdd_mvstore.Chain.value
  | None -> Alcotest.fail "t1 lost")

let test_durable_rewrite_same_granule () =
  let path = fresh "hdd_durable_rewrite.log" in
  let db = Durable.create ~path ~partition () in
  let t = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t (gr 2 0) 1);
  ok (Durable.write db t (gr 2 0) 2);
  Durable.commit db t;
  Durable.close db;
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  match
    Store.committed_before r.Durable.store (gr 2 0)
      ~ts:(r.Durable.last_time + 1)
  with
  | Some v -> checki "last write wins after recovery" 2 v.Hdd_mvstore.Chain.value
  | None -> Alcotest.fail "version lost"

let prop_durable_random_recovery =
  QCheck2.Test.make
    ~name:"durable: recovery agrees with the in-memory committed state"
    ~count:25
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Prng.create seed in
      let path = fresh (Printf.sprintf "hdd_durable_rand_%d.log" seed) in
      let db = Durable.create ~path ~partition () in
      let expected : (Granule.t, int) Hashtbl.t = Hashtbl.create 16 in
      for _ = 1 to 40 do
        let cls = Prng.int rng 3 in
        let t = Durable.begin_update db ~class_id:cls in
        let writes =
          List.init
            (1 + Prng.int rng 2)
            (fun _ -> (gr cls (Prng.int rng 3), Prng.int rng 1000))
        in
        let granted =
          List.filter_map
            (fun (g, v) ->
              match Durable.write db t g v with
              | Outcome.Granted () -> Some (g, v)
              | _ -> None)
            writes
        in
        if Prng.int rng 10 < 8 && granted <> [] then begin
          Durable.commit db t;
          List.iter (fun (g, v) -> Hashtbl.replace expected g v) granted
        end
        else Durable.abort db t
      done;
      Durable.close db;
      let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
      Hashtbl.fold
        (fun g v acc ->
          acc
          &&
          match
            Store.committed_before r.Durable.store g
              ~ts:(r.Durable.last_time + 1)
          with
          | Some version -> version.Hdd_mvstore.Chain.value = v
          | None -> false)
        expected true)

let test_checkpoint_compacts_and_preserves () =
  let path = fresh "hdd_durable_ckpt.log" in
  let db = Durable.create ~path ~partition () in
  (* many overwrites of few granules: the log grows, the state does not *)
  for i = 1 to 50 do
    let t = Durable.begin_update db ~class_id:2 in
    ok (Durable.write db t (gr 2 (i mod 3)) i);
    Durable.commit db t
  done;
  checki "nothing in flight" 0 (Durable.in_flight db);
  let m = Durable.checkpoint db in
  let log_size = (Unix.stat path).Unix.st_size in
  checki "cut covers the whole log so far" log_size m.Checkpoint.log_offset;
  checkb "snapshot file exists" true
    (Sys.file_exists (Checkpoint.data_path ~log:path ~seq:m.Checkpoint.seq));
  (* the snapshot is the wall-cut: few granules, not fifty versions *)
  checkb "snapshot far smaller than the log" true
    (m.Checkpoint.bytes * 4 < log_size);
  (* the database keeps working and appending after the cut *)
  let t = Durable.begin_update db ~class_id:1 in
  let latest = ok (Durable.read db t (gr 2 2)) in
  ok (Durable.write db t (gr 1 0) latest);
  Durable.commit db t;
  Durable.close db;
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checkb "intact" true r.Durable.log_intact;
  (match r.Durable.from_checkpoint with
  | Some m' -> checki "recovered through the cut" m.Checkpoint.seq m'.Checkpoint.seq
  | None -> Alcotest.fail "recovery ignored the checkpoint");
  let read_latest g =
    match
      Store.committed_before r.Durable.store g ~ts:(r.Durable.last_time + 1)
    with
    | Some v -> v.Hdd_mvstore.Chain.value
    | None -> Alcotest.fail "missing version"
  in
  checki "latest of granule 0" 48 (read_latest (gr 2 0));
  checki "latest of granule 1" 49 (read_latest (gr 2 1));
  checki "latest of granule 2" 50 (read_latest (gr 2 2));
  checki "post-checkpoint commit present" 50 (read_latest (gr 1 0));
  (* and it lands on the same state as the full-log replay *)
  let oracle =
    Durable.recover ~use_checkpoints:false ~path ~segments:3
      ~init:(fun _ -> 0) ()
  in
  checkb "equivalent to full replay at the wall" true
    (Store.dump r.Durable.store
    = Store.trim_dump ~wall:m.Checkpoint.wall (Store.dump oracle.Durable.store))

let test_checkpoint_with_in_flight () =
  let path = fresh "hdd_durable_ckpt_busy.log" in
  let db = Durable.create ~path ~partition () in
  let t = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t (gr 2 0) 77);
  checki "one in flight" 1 (Durable.in_flight db);
  (* no drain required: the granted write rides in the pending table *)
  let m = Durable.checkpoint db in
  Durable.commit db t;
  Durable.close db;
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  (match r.Durable.from_checkpoint with
  | Some m' -> checki "used the busy cut" m.Checkpoint.seq m'.Checkpoint.seq
  | None -> Alcotest.fail "recovery ignored the checkpoint");
  checki "in-flight write committed by the tail" 77
    (match
       Store.committed_before r.Durable.store (gr 2 0)
         ~ts:(r.Durable.last_time + 1)
     with
    | Some v -> v.Hdd_mvstore.Chain.value
    | None -> Alcotest.fail "in-flight write lost")

let test_crash_point_fuzz () =
  (* cut the log at EVERY byte boundary: recovery must never raise, never
     resurrect an uncommitted write, and the committed count must be
     monotone in the cut position *)
  let path = fresh "hdd_durable_fuzz.log" in
  let db = Durable.create ~path ~partition () in
  for i = 1 to 6 do
    let t = Durable.begin_update db ~class_id:2 in
    ok (Durable.write db t (gr 2 (i mod 2)) i);
    if i mod 3 = 0 then Durable.abort db t else Durable.commit db t
  done;
  Durable.close db;
  let full = In_channel.with_open_bin path In_channel.input_all in
  let cut_path = fresh "hdd_durable_fuzz_cut.log" in
  let last_committed = ref 0 in
  for cut = 0 to String.length full do
    Out_channel.with_open_bin cut_path (fun oc ->
        Out_channel.output_string oc (String.sub full 0 cut));
    let r = Durable.recover ~path:cut_path ~segments:3 ~init:(fun _ -> 0) () in
    checkb "commits monotone in the prefix" true
      (r.Durable.committed >= !last_committed);
    last_committed := Int.max !last_committed r.Durable.committed
  done;
  checki "the full log recovers every commit" 4 !last_committed

let test_durable_adhoc_logged () =
  let path = fresh "hdd_durable_adhoc.log" in
  let db = Durable.create ~path ~partition () in
  let a = Durable.begin_adhoc_update db ~writes:[ 1; 2 ] ~reads:[] in
  ok (Durable.write db a (gr 2 0) 7);
  ok (Durable.write db a (gr 1 0) 8);
  Durable.commit db a;
  Durable.close db;
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  let read_latest g =
    match
      Store.committed_before r.Durable.store g ~ts:(r.Durable.last_time + 1)
    with
    | Some v -> v.Hdd_mvstore.Chain.value
    | None -> Alcotest.fail "missing version"
  in
  checki "adhoc write to D2 recovered" 7 (read_latest (gr 2 0));
  checki "adhoc write to D1 recovered" 8 (read_latest (gr 1 0))

(* --- fault injection through the sink --- *)

let faulty_db ~plan ~path =
  Durable.create ~sync_on_commit:true
    ~sink:(Fault.apply plan (Fault.file_sink ~fsync:false ~path ()))
    ~path ~partition ()

let test_wal_missing_file () =
  let path = fresh "hdd_wal_missing.log" in
  let { Wal.records; complete; bytes_read } = Wal.read_all ~path in
  checkb "missing file is the empty log" true complete;
  checki "no records" 0 (List.length records);
  checki "no bytes" 0 bytes_read;
  (* recovery of a database that was never written: initial state *)
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 42) () in
  checkb "intact" true r.Durable.log_intact;
  checki "nothing committed" 0 r.Durable.committed;
  (match
     Store.committed_before r.Durable.store (gr 2 0)
       ~ts:(r.Durable.last_time + 1)
   with
  | Some v -> checki "bootstrap value" 42 v.Hdd_mvstore.Chain.value
  | None -> Alcotest.fail "bootstrap version missing")

(* Crash between the write-append and the commit-append must never
   resurrect the transaction.  The workload logs exactly 7 frames
   (B,W,C for t1; B,W,W,C for t2); crash after every prefix length and
   check that t2's writes appear only once its commit frame is down.
   Note the crash fires while the commit append is still in flight, so
   the ack is returned only if the NEXT frame is also reached: acked
   implies the commit frame is durable, never the converse — at
   crash_at = 7 t2's commit is durable but unacknowledged (the
   "in-flight commit" recovery may keep). *)
let test_flush_ordering_no_resurrection () =
  for crash_at = 1 to 8 do
    let path = fresh "hdd_fault_order.log" in
    let plan = Fault.plan [ Fault.Crash_after_frames crash_at ] in
    let db = faulty_db ~plan ~path in
    let t1_acked = ref false and t2_acked = ref false in
    (try
       let t1 = Durable.begin_update db ~class_id:2 in
       ignore (Durable.write db t1 (gr 2 0) 1);
       Durable.commit db t1;
       t1_acked := true;
       let t2 = Durable.begin_update db ~class_id:2 in
       ignore (Durable.write db t2 (gr 2 1) 2);
       ignore (Durable.write db t2 (gr 2 0) 3);
       Durable.commit db t2;
       t2_acked := true
     with Fault.Crash _ -> ());
    (try Durable.close db with Fault.Crash _ -> ());
    checkb "t1 acked iff a frame beyond its commit went down" (crash_at >= 4)
      !t1_acked;
    checkb "t2 acked iff the crash never fired" (crash_at >= 8) !t2_acked;
    let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
    let latest g =
      match
        Store.committed_before r.Durable.store g
          ~ts:(r.Durable.last_time + 1)
      with
      | Some v -> v.Hdd_mvstore.Chain.value
      | None -> Alcotest.fail "missing version"
    in
    (* everything is deterministic: a txn's values are installed exactly
       when its commit frame (t1: frame 3, t2: frame 7) is durable; a
       write frame without its commit frame never resurrects *)
    let expect_0 = if crash_at >= 7 then 3 else if crash_at >= 3 then 1 else 0
    and expect_1 = if crash_at >= 7 then 2 else 0 in
    checki "granule 0 recovers its committed prefix" expect_0
      (latest (gr 2 0));
    checki "granule 1 recovers its committed prefix" expect_1
      (latest (gr 2 1))
  done

let test_fault_corrupt_mid_log () =
  let path = fresh "hdd_fault_corrupt.log" in
  (* three committed txns, one bit flipped inside the second txn's
     frames: recovery keeps the first, hides the rest, reports damage *)
  let plan = Fault.plan [ Fault.Bit_flip { byte = 130; bit = 4 } ] in
  let db = faulty_db ~plan ~path in
  for i = 1 to 3 do
    let t = Durable.begin_update db ~class_id:2 in
    ignore (Durable.write db t (gr 2 i) i);
    Durable.commit db t
  done;
  Durable.close db;
  checkb "the flip fired" true
    (List.exists
       (function Fault.Bit_flip _ -> true | _ -> false)
       (Fault.fired plan));
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checkb "damage detected" false r.Durable.log_intact;
  checki "only the prefix commit survives" 1 r.Durable.committed;
  (match
     Store.committed_before r.Durable.store (gr 2 1)
       ~ts:(r.Durable.last_time + 1)
   with
  | Some v -> checki "first txn intact" 1 v.Hdd_mvstore.Chain.value
  | None -> Alcotest.fail "first txn lost");
  (* the corrupted txns are hidden entirely, never half-applied *)
  List.iter
    (fun key ->
      match
        Store.committed_before r.Durable.store (gr 2 key)
          ~ts:(r.Durable.last_time + 1)
      with
      | Some v -> checki "corrupted txn hidden" 0 v.Hdd_mvstore.Chain.value
      | None -> ())
    [ 2; 3 ]

let test_double_recovery () =
  let path = fresh "hdd_fault_double.log" in
  (* session 1 tears mid-append; session 2 (on the recovered state)
     crashes whole-frame; session 3 must see both sessions' commits *)
  let plan1 = Fault.plan [ Fault.Torn_write { frame = 4; keep = 10 } ] in
  let db1 = faulty_db ~plan:plan1 ~path in
  (try
     let t1 = Durable.begin_update db1 ~class_id:2 in
     ignore (Durable.write db1 t1 (gr 2 0) 1);
     Durable.commit db1 t1;
     let t2 = Durable.begin_update db1 ~class_id:2 in
     ignore (Durable.write db1 t2 (gr 2 1) 2);
     Durable.commit db1 t2
   with Fault.Crash _ -> ());
  (try Durable.close db1 with Fault.Crash _ -> ());
  let r1 = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checkb "tear detected" false r1.Durable.log_intact;
  checki "session 1 commit recovered" 1 r1.Durable.committed;
  (* resume on the recovery (truncating the torn tail), commit, crash *)
  let plan2 = Fault.plan [ Fault.Crash_after_frames 3 ] in
  let db2 =
    Durable.of_recovery ~sync_on_commit:true
      ~sink:(Fault.apply plan2 (Fault.file_sink ~fsync:false ~path ()))
      ~path ~partition r1
  in
  (try
     let t3 = Durable.begin_update db2 ~class_id:1 in
     ignore (Durable.write db2 t3 (gr 1 0) 33);
     Durable.commit db2 t3;
     let t4 = Durable.begin_update db2 ~class_id:1 in
     ignore (Durable.write db2 t4 (gr 1 1) 44);
     Durable.commit db2 t4
   with Fault.Crash _ -> ());
  (try Durable.close db2 with Fault.Crash _ -> ());
  let r2 = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checki "both sessions' commits recovered" 2 r2.Durable.committed;
  let latest g =
    match
      Store.committed_before r2.Durable.store g ~ts:(r2.Durable.last_time + 1)
    with
    | Some v -> v.Hdd_mvstore.Chain.value
    | None -> Alcotest.fail "missing version"
  in
  checki "session 1's value" 1 (latest (gr 2 0));
  checki "session 2's value" 33 (latest (gr 1 0));
  checkb "session 2's unfinished txn hidden" true (latest (gr 1 1) = 0);
  checkb "clock dominates both sessions" true
    (r2.Durable.last_time >= r1.Durable.last_time)

let test_transient_append_error () =
  let path = fresh "hdd_fault_transient.log" in
  let plan = Fault.plan [ Fault.Append_error { frame = 0 } ] in
  let db = faulty_db ~plan ~path in
  (* the very first begin fails; Durable rolls the scheduler back *)
  (match Durable.begin_update db ~class_id:2 with
  | _ -> Alcotest.fail "append error swallowed"
  | exception Fault.Io_error _ -> ());
  checki "no half-begun transaction" 0 (Durable.in_flight db);
  (* the fault was transient: the next transaction goes through *)
  let t = Durable.begin_update db ~class_id:2 in
  ignore (Durable.write db t (gr 2 0) 9);
  Durable.commit db t;
  Durable.close db;
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checkb "log intact" true r.Durable.log_intact;
  checki "the retried transaction committed" 1 r.Durable.committed

(* --- group commit --- *)

let grouped_db ?(max_batch = 4) ?(max_delay = 100) ~plan ~path () =
  Durable.create
    ~sink:(Fault.apply plan (Fault.file_sink ~fsync:false ~path ()))
    ~group:{ Group_commit.max_batch; max_delay }
    ~faults:plan ~path ~partition ()

let commit_one db i =
  let t = Durable.begin_update db ~class_id:2 in
  ignore (Durable.write db t (gr 2 (i mod 3)) i);
  Durable.commit_ticket db t

let test_group_batching_defers_acks () =
  let path = fresh "hdd_group_batch.log" in
  let plan = Fault.plan [] in
  let db = grouped_db ~plan ~path () in
  let g = Option.get (Durable.group db) in
  (* three commits: under max_batch, nothing synced, nothing acked *)
  let tks = List.init 3 (fun i -> commit_one db (i + 1)) in
  checki "no fsync yet" 0 (Group_commit.fsyncs g);
  checkb "queued commits unacked" true
    (List.for_all (fun tk -> not (Durable.acked db tk)) tks);
  (* the fourth fills the batch: one fsync acks all four *)
  let tk4 = commit_one db 4 in
  checki "one fsync for four commits" 1 (Group_commit.fsyncs g);
  checkb "the whole batch acked" true
    (List.for_all (fun tk -> Durable.acked db tk) (tk4 :: tks));
  (* ack offsets are monotone in submission order *)
  let offs = List.map (fun tk -> Option.get (Durable.ack_offset db tk)) (tks @ [ tk4 ]) in
  checkb "ack offsets monotone" true (List.sort compare offs = offs);
  Durable.close db;
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checki "all four commits recovered" 4 r.Durable.committed

let test_group_delay_flush () =
  let path = fresh "hdd_group_delay.log" in
  let plan = Fault.plan [] in
  let db = grouped_db ~max_batch:100 ~max_delay:3 ~plan ~path () in
  let tk = commit_one db 1 in
  checkb "not acked at submit" false (Durable.acked db tk);
  (* engine operations tick the logical delay timer *)
  let ro = Durable.begin_read_only db in
  ignore (Durable.read db ro (gr 2 0));
  ignore (Durable.read db ro (gr 2 1));
  ignore (Durable.read db ro (gr 2 2));
  checkb "aged batch flushed by ticks" true (Durable.acked db tk);
  Durable.close db

let test_ack_offset_untracked () =
  (* without a fault plan nobody tracks offsets: no per-ticket table *)
  let path = fresh "hdd_group_untracked.log" in
  let db =
    Durable.create ~group:{ Group_commit.max_batch = 2; max_delay = 100 }
      ~path ~partition ()
  in
  let tks = List.init 4 (fun i -> commit_one db (i + 1)) in
  Durable.flush db;
  checkb "all acked" true (List.for_all (Durable.acked db) tks);
  checkb "no ack offsets" true
    (List.for_all (fun tk -> Durable.ack_offset db tk = None) tks);
  Durable.close db;
  let path = fresh "hdd_direct_untracked.log" in
  let db = Durable.create ~sync_on_commit:true ~path ~partition () in
  let tk = commit_one db 1 in
  checkb "direct: acked, no offset" true
    (Durable.acked db tk && Durable.ack_offset db tk = None);
  Durable.close db

let test_ack_offset_waits_for_ack () =
  (* the frame is appended and fsynced, but a transient fault delays the
     ack: no offset is reported until the ack is delivered *)
  let path = fresh "hdd_group_delayed_ack.log" in
  let plan = Fault.plan [ Fault.Error_at (Fault.Batch_ack 1) ] in
  let db = grouped_db ~max_batch:1 ~max_delay:0 ~plan ~path () in
  let tk = commit_one db 1 in
  checkb "ack delayed" false (Durable.acked db tk);
  checkb "no offset before the ack" true (Durable.ack_offset db tk = None);
  let tk2 = commit_one db 2 in
  checkb "next round acks both" true
    (Durable.acked db tk && Durable.acked db tk2);
  checkb "offset once acked" true (Durable.ack_offset db tk <> None);
  Durable.close db

let test_group_crash_points () =
  (* a scripted crash at each pipeline point: recovery never raises and
     never exceeds what was submitted *)
  List.iter
    (fun point ->
      let path = fresh "hdd_group_crash.log" in
      let plan = Fault.plan [ Fault.Crash_at point ] in
      let db = grouped_db ~max_batch:2 ~max_delay:0 ~plan ~path () in
      let submitted = ref 0 in
      (try
         for i = 1 to 6 do
           ignore (commit_one db i);
           incr submitted
         done
       with Fault.Crash _ -> ());
      (try Durable.close db with Fault.Crash _ -> ());
      checkb "the crash fired" true (Fault.crashed plan);
      let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
      checkb "recovery bounded by submissions" true
        (r.Durable.committed <= !submitted + 1))
    [ Fault.Batch_append { batch = 1; frame = 0 };
      Fault.Batch_fsync 1;
      Fault.Batch_ack 1 ]

let test_group_transient_fsync_retries () =
  let path = fresh "hdd_group_transient.log" in
  let plan = Fault.plan [ Fault.Error_at (Fault.Batch_fsync 1) ] in
  let db = grouped_db ~max_batch:2 ~max_delay:0 ~plan ~path () in
  let g = Option.get (Durable.group db) in
  let tk = commit_one db 1 in
  (* the first fsync round failed transiently; the retry acked it *)
  checkb "acked through the retry" true (Durable.acked db tk);
  checkb "the failure was counted" true (Group_commit.sync_failures g >= 1);
  checkb "not livelocked" false (Group_commit.livelocked g);
  Durable.close db;
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checki "the commit survived" 1 r.Durable.committed

(* --- checkpoint damage and fallback --- *)

let corrupt_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = really_input_string ic n in
  close_in ic;
  let b = Bytes.of_string b in
  let i = n / 2 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b)

let test_checkpoint_fallback_chain () =
  let path = fresh "hdd_ckpt_fallback.log" in
  let db = Durable.create ~path ~partition () in
  for i = 1 to 10 do
    let t = Durable.begin_update db ~class_id:2 in
    ok (Durable.write db t (gr 2 (i mod 2)) i);
    Durable.commit db t
  done;
  let m1 = Durable.checkpoint db in
  for i = 11 to 20 do
    let t = Durable.begin_update db ~class_id:2 in
    ok (Durable.write db t (gr 2 (i mod 2)) i);
    Durable.commit db t
  done;
  let m2 = Durable.checkpoint db in
  Durable.close db;
  let latest r g =
    match
      Store.committed_before r.Durable.store g ~ts:(r.Durable.last_time + 1)
    with
    | Some v -> v.Hdd_mvstore.Chain.value
    | None -> Alcotest.fail "missing version"
  in
  (* newest data file damaged: recovery falls back to the older cut *)
  corrupt_file (Checkpoint.data_path ~log:path ~seq:m2.Checkpoint.seq);
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  (match r.Durable.from_checkpoint with
  | Some m -> checki "fell back one checkpoint" m1.Checkpoint.seq m.Checkpoint.seq
  | None -> Alcotest.fail "fallback skipped the older checkpoint");
  checki "state intact through the fallback" 20 (latest r (gr 2 0));
  checki "state intact through the fallback" 19 (latest r (gr 2 1));
  (* both damaged: full replay, same answers *)
  corrupt_file (Checkpoint.data_path ~log:path ~seq:m1.Checkpoint.seq);
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checkb "fell back to full replay" true (r.Durable.from_checkpoint = None);
  checkb "the log itself is undamaged" true r.Durable.log_intact;
  checki "state intact through full replay" 20 (latest r (gr 2 0))

let test_checkpoint_torn_manifest () =
  let path = fresh "hdd_ckpt_torn_manifest.log" in
  let db = Durable.create ~path ~partition () in
  for i = 1 to 5 do
    let t = Durable.begin_update db ~class_id:1 in
    ok (Durable.write db t (gr 1 0) i);
    Durable.commit db t
  done;
  ignore (Durable.checkpoint db);
  Durable.close db;
  (* tear the manifest mid-file: it must read as empty, not crash *)
  let mpath = Checkpoint.manifest_path ~log:path in
  let n = (Unix.stat mpath).Unix.st_size in
  Unix.truncate mpath (n / 2);
  checkb "torn manifest reads empty" true (Checkpoint.read_manifest ~log:path = []);
  let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
  checkb "full replay fallback" true (r.Durable.from_checkpoint = None);
  checki "every commit recovered" 5 r.Durable.committed

let test_checkpoint_write_faults_are_transient () =
  (* a transient error at each checkpoint point: the cut simply didn't
     happen, the handle stays usable, recovery is full replay *)
  List.iter
    (fun point ->
      let path = fresh "hdd_ckpt_transient.log" in
      let plan = Fault.plan [ Fault.Error_at point ] in
      let db =
        Durable.create ~sync_on_commit:true
          ~sink:(Fault.apply plan (Fault.file_sink ~fsync:false ~path ()))
          ~faults:plan ~path ~partition ()
      in
      let t = Durable.begin_update db ~class_id:2 in
      ok (Durable.write db t (gr 2 0) 5);
      Durable.commit db t;
      (match Durable.checkpoint db with
      | _ -> Alcotest.fail "scripted checkpoint fault swallowed"
      | exception Fault.Io_error _ -> ());
      (* still usable; and a later checkpoint succeeds *)
      let t = Durable.begin_update db ~class_id:2 in
      ok (Durable.write db t (gr 2 1) 6);
      Durable.commit db t;
      let m = Durable.checkpoint db in
      Durable.close db;
      let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
      (match r.Durable.from_checkpoint with
      | Some m' -> checki "the retried cut loads" m.Checkpoint.seq m'.Checkpoint.seq
      | None -> Alcotest.fail "retried checkpoint ignored");
      checki "both commits recovered" 2 r.Durable.committed)
    [ Fault.Checkpoint_write 1; Fault.Checkpoint_rename 1;
      Fault.Manifest_write 1; Fault.Manifest_rename 1 ]

let test_checkpoint_damage_every_byte () =
  (* every cut and every single-bit flip of the newest data file: best
     skips it and lands on the older checkpoint, never raising *)
  let path = fresh "hdd_ckpt_every_byte.log" in
  let db = Durable.create ~path ~partition () in
  let commits lo hi =
    for i = lo to hi do
      let t = Durable.begin_update db ~class_id:(i mod 3) in
      ok (Durable.write db t (gr (i mod 3) (i mod 4)) i);
      Durable.commit db t
    done
  in
  commits 1 6;
  let m1 = Durable.checkpoint db in
  let t = Durable.begin_update db ~class_id:1 in
  ok (Durable.write db t (gr 1 9) 99);
  commits 7 12;
  let m2 = Durable.checkpoint db in
  Durable.close db;
  let data = Checkpoint.data_path ~log:path ~seq:m2.Checkpoint.seq in
  let original = Bytes.of_string (Fixtures.read_file data) in
  let put b =
    Out_channel.with_open_bin data (fun oc -> Out_channel.output_bytes oc b)
  in
  let best () =
    match Checkpoint.best ~log:path ~segments:3 ~init:(fun _ -> 0) () with
    | Some (_, m) -> m.Checkpoint.seq
    | None -> 0
  in
  checki "intact: newest loads" m2.Checkpoint.seq (best ());
  let n = Bytes.length original in
  for cut = 0 to n - 1 do
    put (Bytes.sub original 0 cut);
    checki (Printf.sprintf "cut at %d falls back" cut) m1.Checkpoint.seq
      (best ())
  done;
  for bit = 0 to (8 * n) - 1 do
    let b = Bytes.copy original in
    let i = bit / 8 in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor (1 lsl (bit mod 8)));
    put b;
    checki (Printf.sprintf "bit %d flipped falls back" bit) m1.Checkpoint.seq
      (best ())
  done

(* --- log shipping --- *)

(* The primary's Protocol A/C answer at [ts] — what a consistent replica
   must return for any [ts] at or below its effective wall. *)
let primary_answer db g ~ts =
  match Store.committed_before (Durable.store db) g ~ts with
  | Some v -> v.Hdd_mvstore.Chain.value
  | None -> 0

let test_replica_chunked_ship () =
  let path = fresh "hdd_replica_ship.log" in
  let db = Durable.create ~sync_on_commit:true ~path ~partition () in
  let replica = Replica.create ~segments:3 ~init:(fun _ -> 0) () in
  let sh = Replica.shipper ~log:path replica in
  let ship_now () =
    let wall = Scheduler.gc_watermark_vector (Durable.scheduler db) in
    Durable.sync db;
    match Replica.ship sh ~upto:(Durable.durable_offset db) ~wall with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "ship failed without faults"
  in
  (* enough commits that time walls actually release (every 16) *)
  for i = 1 to 20 do
    let t = Durable.begin_update db ~class_id:2 in
    ok (Durable.write db t (gr 2 0) i);
    Durable.commit db t
  done;
  ship_now ();
  let mid_wall = Replica.effective_wall replica in
  checkb "first chunk released a usable wall" true (mid_wall.(2) > 0);
  checkb "replica agrees with the primary at its wall" true
    (Replica.read replica (gr 2 0) ~ts:mid_wall.(2)
    = Ok (primary_answer db (gr 2 0) ~ts:mid_wall.(2)));
  for i = 21 to 40 do
    let t = Durable.begin_update db ~class_id:2 in
    ok (Durable.write db t (gr 2 0) i);
    Durable.commit db t
  done;
  ship_now ();
  let w = Replica.effective_wall replica in
  checkb "wall advanced with the second chunk" true (w.(2) > mid_wall.(2));
  checkb "second chunk visible at the new wall" true
    (Replica.read replica (gr 2 0) ~ts:w.(2)
    = Ok (primary_answer db (gr 2 0) ~ts:w.(2)));
  (* reads above the wall are refused, not answered stale *)
  checkb "above the wall refused" true
    (match Replica.read replica (gr 2 0) ~ts:(w.(2) + 100) with
    | Error `Too_new -> true
    | _ -> false);
  checki "zero staleness after the final ship" 0
    (Replica.staleness replica ~primary_wall:(Replica.wall replica));
  Durable.close db

let test_replica_resend_idempotent () =
  let path = fresh "hdd_replica_resend.log" in
  let db = Durable.create ~sync_on_commit:true ~path ~partition () in
  for i = 1 to 5 do
    let t = Durable.begin_update db ~class_id:1 in
    ok (Durable.write db t (gr 1 0) i);
    Durable.commit db t
  done;
  let wall = Scheduler.gc_watermark_vector (Durable.scheduler db) in
  Durable.sync db;
  let upto = Durable.durable_offset db in
  Durable.close db;
  let replica = Replica.create ~segments:3 ~init:(fun _ -> 0) () in
  (* two shippers, both from 0: the second delivery re-applies the whole
     slice — replay is idempotent, the state must not change *)
  let sh1 = Replica.shipper ~log:path replica in
  (match Replica.ship sh1 ~upto ~wall with Ok () -> () | Error _ -> Alcotest.fail "ship 1");
  let d1 = Store.dump (Replica.store replica) in
  let sh2 = Replica.shipper ~log:path replica in
  (match Replica.ship sh2 ~upto ~wall with Ok () -> () | Error _ -> Alcotest.fail "ship 2");
  checkb "double delivery is a no-op" true (Store.dump (Replica.store replica) = d1)

let test_replica_transient_send_retries () =
  let path = fresh "hdd_replica_retry.log" in
  let db = Durable.create ~sync_on_commit:true ~path ~partition () in
  let t = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t (gr 2 2) 9);
  Durable.commit db t;
  let wall = Scheduler.gc_watermark_vector (Durable.scheduler db) in
  Durable.sync db;
  let upto = Durable.durable_offset db in
  Durable.close db;
  let plan = Fault.plan [ Fault.Error_at (Fault.Ship_send 1) ] in
  let replica = Replica.create ~segments:3 ~init:(fun _ -> 0) () in
  let sh = Replica.shipper ~faults:plan ~log:path replica in
  (match Replica.ship sh ~upto ~wall with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "transient send not retried");
  checkb "the retry resent" true (Replica.sends sh >= 2);
  (* the write is installed in the replica's store (the wall may not
     have released yet for so short a history — check the state itself) *)
  checkb "delivered" true
    (match
       Store.committed_before (Replica.store replica) (gr 2 2)
         ~ts:(Replica.last_time replica + 1)
     with
    | Some v -> v.Hdd_mvstore.Chain.value = 9
    | None -> false)

let test_replica_crash_mid_ship_resumes () =
  let path = fresh "hdd_replica_crash.log" in
  let db = Durable.create ~sync_on_commit:true ~path ~partition () in
  let t = Durable.begin_update db ~class_id:0 in
  ok (Durable.write db t (gr 0 0) 41);
  Durable.commit db t;
  let wall = Scheduler.gc_watermark_vector (Durable.scheduler db) in
  Durable.sync db;
  let upto = Durable.durable_offset db in
  Durable.close db;
  let plan = Fault.plan [ Fault.Crash_at (Fault.Ship_send 1) ] in
  let replica = Replica.create ~segments:3 ~init:(fun _ -> 0) () in
  let sh = Replica.shipper ~faults:plan ~log:path replica in
  (match Replica.ship sh ~upto ~wall with
  | _ -> Alcotest.fail "scripted ship crash swallowed"
  | exception Fault.Crash _ -> ());
  checki "cursor unmoved by the crash" 0 (Replica.shipped sh);
  (* the primary recovers, a new shipper resumes the same cursor *)
  let sh' = Replica.shipper ~from:(Replica.shipped sh) ~log:path replica in
  (match Replica.ship sh' ~upto ~wall with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "resumed ship failed");
  checki "cursor caught up" upto (Replica.shipped sh');
  checkb "the commit arrived" true
    (match
       Store.committed_before (Replica.store replica) (gr 0 0)
         ~ts:(Replica.last_time replica + 1)
     with
    | Some v -> v.Hdd_mvstore.Chain.value = 41
    | None -> false)

let test_replica_wall_clamped_by_pending () =
  let path = fresh "hdd_replica_clamp.log" in
  let db = Durable.create ~sync_on_commit:true ~path ~partition () in
  (* enough committed history that a wall has released... *)
  for i = 1 to 20 do
    let t = Durable.begin_update db ~class_id:2 in
    ok (Durable.write db t (gr 2 0) i);
    Durable.commit db t
  done;
  (* ...then t2 in flight: its Begin and Write frames ship, no commit *)
  let t2 = Durable.begin_update db ~class_id:2 in
  ok (Durable.write db t2 (gr 2 1) 8);
  let wall = Scheduler.gc_watermark_vector (Durable.scheduler db) in
  Durable.sync db;
  let upto = Durable.durable_offset db in
  let replica = Replica.create ~segments:3 ~init:(fun _ -> 0) () in
  let sh = Replica.shipper ~log:path replica in
  (match Replica.ship sh ~upto ~wall with Ok () -> () | Error _ -> Alcotest.fail "ship");
  let w = Replica.effective_wall replica in
  (* the half-shipped transaction clamps the effective wall below its init *)
  checkb "clamped below the in-flight init" true (w.(2) <= t2.Txn.init);
  checkb "a wall released for the committed prefix" true (w.(2) > 0);
  checkb "committed prefix still served consistently" true
    (Replica.read replica (gr 2 0) ~ts:w.(2)
    = Ok (primary_answer db (gr 2 0) ~ts:w.(2)));
  Durable.commit db t2;
  Durable.close db

(* --- 1000-seed properties: checkpoint equivalence, replica staleness --- *)

let qcheck_seeds =
  match Sys.getenv_opt "HDD_QCHECK_SEEDS" with
  | None | Some "" -> 1000
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> Alcotest.failf "HDD_QCHECK_SEEDS must be a positive int: %S" s)

(* A small fault-free workload with checkpoint cuts at random points. *)
let random_durable_history rng path ~ship =
  let db = Durable.create ~sync_on_commit:true ~path ~partition () in
  let replica = Replica.create ~segments:3 ~init:(fun _ -> 0) () in
  let sh = Replica.shipper ~log:path replica in
  let cuts = ref 0 in
  let ship_now () =
    let wall = Scheduler.gc_watermark_vector (Durable.scheduler db) in
    Durable.sync db;
    match Replica.ship sh ~upto:(Durable.durable_offset db) ~wall with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "ship failed without faults"
  in
  for i = 1 to 8 + Prng.int rng 8 do
    let cls = Prng.int rng 3 in
    let t = Durable.begin_update db ~class_id:cls in
    for _ = 0 to Prng.int rng 2 do
      ignore (Durable.write db t (gr cls (Prng.int rng 3)) i)
    done;
    if Prng.int rng 8 = 0 then Durable.abort db t else Durable.commit db t;
    if Prng.int rng 4 = 0 then begin
      ignore (Durable.checkpoint db);
      incr cuts
    end;
    if ship && Prng.int rng 3 = 0 then ship_now ()
  done;
  if ship then ship_now ();
  Durable.close db;
  (replica, !cuts)

let prop_checkpoint_equivalence =
  QCheck2.Test.make
    ~name:
      "checkpoint: recover via newest cut = wall-cut of full replay (1000 \
       seeds)"
    ~count:qcheck_seeds
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let path = fresh (Printf.sprintf "hdd_prop_ckpt_%d.log" (seed mod 97)) in
      let _, cuts = random_durable_history rng path ~ship:false in
      let r = Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) () in
      let oracle =
        Durable.recover ~use_checkpoints:false ~path ~segments:3
          ~init:(fun _ -> 0) ()
      in
      let equivalent =
        match r.Durable.from_checkpoint with
        | None ->
          cuts = 0 && Store.dump r.Durable.store = Store.dump oracle.Durable.store
        | Some m ->
          Store.dump r.Durable.store
          = Store.trim_dump ~wall:m.Checkpoint.wall
              (Store.dump oracle.Durable.store)
      in
      equivalent
      && r.Durable.last_time >= oracle.Durable.last_time
      && r.Durable.committed = oracle.Durable.committed)

let prop_replica_staleness =
  QCheck2.Test.make
    ~name:
      "replica: wall-bounded reads match the primary, staleness 0 after the \
       final ship (1000 seeds)"
    ~count:qcheck_seeds
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create seed in
      let path = fresh (Printf.sprintf "hdd_prop_ship_%d.log" (seed mod 97)) in
      let replica, _ = random_durable_history rng path ~ship:true in
      let oracle =
        Durable.recover ~use_checkpoints:false ~path ~segments:3
          ~init:(fun _ -> 0) ()
      in
      let w = Replica.effective_wall replica in
      (not (Replica.stalled replica))
      && Array.length w = 3
      && Replica.staleness replica ~primary_wall:(Replica.wall replica) = 0
      && List.for_all
           (fun seg ->
             List.for_all
               (fun key ->
                 let g = gr seg key in
                 let expect =
                   match
                     Store.committed_before oracle.Durable.store g ~ts:w.(seg)
                   with
                   | Some v -> v.Hdd_mvstore.Chain.value
                   | None -> 0
                 in
                 w.(seg) = 0 || Replica.read replica g ~ts:w.(seg) = Ok expect)
               [ 0; 1; 2 ])
           [ 0; 1; 2 ])

(* Seeds the deep sweeps caught, replayed on every push.  560: a failed
   append in the middle of a batch, younger frames appended past it and
   acked by the next fsync's watermark.  4914: a checkpoint cut while a
   commit frame was still queued behind a failed append. *)
let test_torture_pinned_seeds () =
  List.iter
    (fun seed ->
      let path = fresh "hdd_torture_pinned.log" in
      let o = Torture.run_cycle ~monitors:true ~partition ~path ~seed () in
      Alcotest.(check (list string)) (Printf.sprintf "seed %d" seed) []
        o.Torture.violations)
    [ 560; 4914 ]

(* Cycle count defaults to 500 and scales up through the environment:
   the nightly CI job runs the same test with HDD_TORTURE_CYCLES=5000. *)
let torture_cycles =
  match Sys.getenv_opt "HDD_TORTURE_CYCLES" with
  | None | Some "" -> 500
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> n
    | _ -> Alcotest.failf "HDD_TORTURE_CYCLES must be a positive int: %S" s)

(* The invariant monitors ride along by default (the "monitor torture
   integration" of the observability PR): any monitor catch counts as a
   cycle violation.  HDD_TORTURE_MONITORS=0 detaches them. *)
let torture_monitors =
  match Sys.getenv_opt "HDD_TORTURE_MONITORS" with
  | Some "0" -> false
  | _ -> true

let test_torture_cycles () =
  let path = fresh "hdd_torture.log" in
  let report =
    Torture.run ~monitors:torture_monitors ~partition ~path
      ~seeds:torture_cycles ()
  in
  (match report.Torture.violating with
  | [] -> ()
  | bad ->
    Alcotest.failf "%a" Torture.pp_report { report with Torture.violating = bad });
  checki "all cycles ran" torture_cycles report.Torture.cycles;
  (* the fault mix is seed-dependent; scale expectations with the count *)
  checkb "crashes actually fired" true
    (report.Torture.crashes > torture_cycles / 5);
  checkb "corruption actually fired" true
    (report.Torture.corruptions > torture_cycles / 25);
  checkb "work was acknowledged" true
    (report.Torture.acknowledged > torture_cycles * 2);
  checkb "work was recovered" true (report.Torture.recovered > 0);
  (* exhaustive coverage: at full scale every logical fault point kind —
     batching, checkpointing and shipping boundaries alike — must have
     been crossed at least once (Fault.kinds is the closed enumeration) *)
  if torture_cycles >= 300 then
    List.iter
      (fun k ->
        checkb
          (Printf.sprintf "fault point kind %S exercised" k)
          true
          (match List.assoc_opt k report.Torture.reached_kinds with
          | Some n -> n > 0
          | None -> false))
      Fault.kinds

let suite =
  [ Alcotest.test_case "codec: roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec: truncation" `Quick test_codec_truncation;
    Alcotest.test_case "codec: corruption" `Quick test_codec_corruption;
    QCheck_alcotest.to_alcotest prop_codec_random;
    Alcotest.test_case "wal: roundtrip" `Quick test_wal_roundtrip;
    Alcotest.test_case "wal: torn tail" `Quick test_wal_torn_tail;
    Alcotest.test_case "wal: sessions append" `Quick test_wal_append_across_sessions;
    QCheck_alcotest.to_alcotest prop_wal_truncation_boundary;
    QCheck_alcotest.to_alcotest prop_wal_bitflip;
    Alcotest.test_case "durable: crash and recover" `Quick test_durable_crash_recovery;
    Alcotest.test_case "durable: torn commit loses the txn" `Quick test_durable_torn_commit_loses_transaction;
    Alcotest.test_case "durable: rewrite same granule" `Quick test_durable_rewrite_same_granule;
    Alcotest.test_case "durable: checkpoint cuts and recovers" `Quick test_checkpoint_compacts_and_preserves;
    Alcotest.test_case "durable: checkpoint with in-flight txns" `Quick test_checkpoint_with_in_flight;
    Alcotest.test_case "durable: crash-point fuzz" `Quick test_crash_point_fuzz;
    Alcotest.test_case "durable: ad-hoc transactions logged" `Quick test_durable_adhoc_logged;
    QCheck_alcotest.to_alcotest prop_durable_random_recovery;
    Alcotest.test_case "wal: missing file recovers empty" `Quick test_wal_missing_file;
    Alcotest.test_case "fault: write/commit flush ordering" `Quick test_flush_ordering_no_resurrection;
    Alcotest.test_case "fault: corruption mid-log" `Quick test_fault_corrupt_mid_log;
    Alcotest.test_case "fault: double recovery" `Quick test_double_recovery;
    Alcotest.test_case "fault: transient append error" `Quick test_transient_append_error;
    Alcotest.test_case "group: batching defers acks" `Quick test_group_batching_defers_acks;
    Alcotest.test_case "group: delay ticks flush" `Quick test_group_delay_flush;
    Alcotest.test_case "group: crash at each pipeline point" `Quick test_group_crash_points;
    Alcotest.test_case "group: transient fsync retries" `Quick test_group_transient_fsync_retries;
    Alcotest.test_case "checkpoint: fallback chain on damage" `Quick test_checkpoint_fallback_chain;
    Alcotest.test_case "checkpoint: torn manifest reads empty" `Quick test_checkpoint_torn_manifest;
    Alcotest.test_case "checkpoint: write faults are transient" `Quick test_checkpoint_write_faults_are_transient;
    Alcotest.test_case "replica: chunked ship serves walls" `Quick test_replica_chunked_ship;
    Alcotest.test_case "replica: resend is idempotent" `Quick test_replica_resend_idempotent;
    Alcotest.test_case "replica: transient send retries" `Quick test_replica_transient_send_retries;
    Alcotest.test_case "replica: crash mid-ship resumes" `Quick test_replica_crash_mid_ship_resumes;
    Alcotest.test_case "replica: wall clamped by in-flight" `Quick test_replica_wall_clamped_by_pending;
    QCheck_alcotest.to_alcotest prop_checkpoint_equivalence;
    QCheck_alcotest.to_alcotest prop_replica_staleness;
    Alcotest.test_case
      (Printf.sprintf "torture: %d crash/recover cycles" torture_cycles)
      `Slow test_torture_cycles;
    Alcotest.test_case "codec: pinned frame bytes" `Quick test_codec_pinned_frames;
    Alcotest.test_case "group: no ack offsets untracked" `Quick test_ack_offset_untracked;
    Alcotest.test_case "group: ack offset waits for the ack" `Quick test_ack_offset_waits_for_ack;
    Alcotest.test_case "checkpoint: damage at every byte and bit" `Quick test_checkpoint_damage_every_byte;
    Alcotest.test_case "torture: pinned seeds 560 and 4914" `Quick test_torture_pinned_seeds ]

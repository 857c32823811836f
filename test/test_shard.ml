(* The sharded engine: codec round-trip properties (1000 seeds,
   truncation at every byte, single-bit corruption), scripted
   publication faults over the loopback transport, the cross-shard
   differential stress at 2/4/8 shards (reduced seed count in-tree; CI
   nightly raises HDD_SHARD_SEEDS), byte-stable golden traces for the
   curated scenarios, and forged-trace regressions pinning that the
   oracle names the check that failed. *)

module Sh = Hdd_shard
module R = Hdd_runtime
module E = Hdd_runtime.Engine
module D = Hdd_runtime.Differential
module T = Hdd_obs.Trace
module TW = Hdd_core.Timewall
module Prng = Hdd_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

(* --- strided clocks --- *)

let test_sclock () =
  let shards = 3 in
  let cs = Array.init shards (fun me -> Sh.Sclock.create ~shards ~me) in
  let all = ref [] in
  for _ = 1 to 50 do
    Array.iteri
      (fun me c ->
        let t = Sh.Sclock.tick c in
        checki "stride residue" me (t mod shards);
        all := t :: !all;
        (* gossip the stamp to a random peer, as packets do *)
        Sh.Sclock.catch_up cs.((me + 1) mod shards) t)
      cs
  done;
  let n = List.length !all in
  checki "globally unique" n (List.length (List.sort_uniq compare !all))

(* --- random packets for the codec properties --- *)

(* A frozen snapshot from its parts, through the registry's own reader:
   the parts written in the wire layout (per class the actives, the
   window pairs, the generation; DESIGN.md §15) and decoded by
   [Registry.read], which checks their shape. *)
let snapshot_of_parts parts =
  let module B = Hdd_util.Binc in
  let b = B.writer () in
  B.w_array b
    (fun b (actives, w_init, w_end, gen) ->
      B.w_list b
        (fun b (id, t) ->
          B.w_int b id;
          B.w_int b t)
        actives;
      B.w_int b (Array.length w_init);
      Array.iteri
        (fun k i ->
          B.w_int b i;
          B.w_int b w_end.(k))
        w_init;
      B.w_int b gen)
    parts;
  match B.decode (B.frame b) ~pos:0 ~f:Registry.read with
  | Ok (snap, _) -> snap
  | Error e -> Alcotest.failf "snapshot parts refused: %s" e

let rand_snap prng =
  let classes = 1 + Prng.int prng 4 in
  snapshot_of_parts
    (Array.init classes (fun _ ->
         let t = ref (Prng.int prng 5) in
         let actives =
           List.init (Prng.int prng 4) (fun i ->
               t := !t + 1 + Prng.int prng 9;
               (100 + i, !t))
         in
         let wi = ref 0 and we = ref 0 in
         let windows =
           Array.init (Prng.int prng 5) (fun _ ->
               wi := !wi + 1 + Prng.int prng 7;
               we := max !we !wi + 1 + Prng.int prng 7;
               (!wi, !we))
         in
         ( actives,
           Array.map fst windows,
           Array.map snd windows,
           Prng.int prng 1000 )))

let rand_wall prng =
  TW.make ~s:(Prng.int prng 4)
    ~m:(Prng.int prng 1000)
    ~components:(Array.init (1 + Prng.int prng 5) (fun _ -> Prng.int prng 1000))
    ~released_at:(Prng.int prng 1000)

(* an int with the extremes over-represented: varint edge cases *)
let rand_int prng =
  match Prng.int prng 8 with
  | 0 -> max_int
  | 1 -> min_int
  | 2 -> -1
  | 3 -> 0
  | _ -> Prng.int prng 1_000_000 - 500_000

let rand_event prng =
  let i = Prng.int prng 100 and j = Prng.int prng 100 in
  match Prng.int prng 19 with
  | 0 ->
    let kind =
      match Prng.int prng 4 with
      | 0 -> T.Update i
      | 1 -> T.Read_only
      | 2 -> T.Hosted i
      | _ -> T.Adhoc { wsegs = [ i ]; rsegs = [ i; j ] }
    in
    T.Begin { txn = i; kind; init = j }
  | 1 ->
    T.Read
      { txn = i; protocol = T.A; segment = j mod 7; key = j;
        threshold = rand_int prng; version = rand_int prng }
  | 2 -> T.Block { txn = i; protocol = T.B; segment = j mod 7; key = j; on = [ i; j ] }
  | 3 ->
    let stage =
      match Prng.int prng 3 with
      | 0 -> T.Routing
      | 1 -> T.Barrier
      | _ -> T.Rule
    in
    T.Reject
      { txn = i; protocol = (if j land 1 = 0 then Some T.C else None); stage;
        segment = -1; reason = Printf.sprintf "forged %d" j }
  | 4 -> T.Write { txn = i; segment = j mod 7; key = j; ts = rand_int prng }
  | 5 -> T.Commit { txn = i; at = j }
  | 6 -> T.Abort { txn = i; at = j }
  | 7 ->
    T.Wall_release
      { m = i; released_at = j;
        components = Array.init (1 + (j mod 4)) (fun k -> k * i) }
  | 8 -> T.Wall_blocked { on = i }
  | 9 ->
    T.Gc
      { watermark = i; vector = Array.init (1 + (j mod 4)) (fun k -> k + i);
        dropped = j }
  | 10 -> T.Seg_gc { segment = i mod 7; dropped = j }
  | 11 -> T.Registry_prune { upto = i; records_dropped = j; windows_dropped = i }
  | 12 -> T.Sim { label = "restart"; txn = i }
  | 13 -> T.Note (Printf.sprintf "note %d" i)
  | 14 -> T.Durable_ack { txn = i; at = j }
  | 15 -> T.Durable_recovered { txn = i; at = j }
  | 16 -> T.Recovery_complete { last_time = i }
  | 17 ->
    T.Checkpoint_cut
      { seq = i; components = Array.init (1 + (j mod 4)) (fun k -> k * j) }
  | _ ->
    T.Repartition
      { epoch = 1 + i;
        kind = (if j land 1 = 0 then "migrate" else "split");
        moved = [ i mod 7; j mod 7 ];
        fresh_store = j land 2 = 0 }

let rand_records prng =
  List.init (Prng.int prng 6) (fun k ->
      { T.seq = k; at = k + Prng.int prng 9; dom = Prng.int prng 4;
        ev = rand_event prng })

let rand_desc prng =
  let g () =
    Granule.make ~segment:(Prng.int prng 5) ~key:(Prng.int prng 8)
  in
  { E.d_id = 1 + Prng.int prng 1000;
    d_kind = (if Prng.bool prng then `Update (Prng.int prng 5) else `Read_only);
    d_ops =
      List.init (Prng.int prng 5) (fun _ ->
          if Prng.bool prng then E.Read (g ())
          else E.Write (g (), rand_int prng));
    d_abort = Prng.bool prng }

let rand_counters prng =
  { Sh.Wire.k_committed = Prng.int prng 100; k_aborted = Prng.int prng 100;
    k_reads_a = Prng.int prng 100; k_reads_b = Prng.int prng 100;
    k_reads_c = Prng.int prng 100; k_writes = Prng.int prng 100;
    k_stale_waits = Prng.int prng 100; k_wall_releases = Prng.int prng 100;
    k_wall_lag_sum = Prng.int prng 1000; k_wall_lag_max = Prng.int prng 100 }

let rand_msg prng =
  match Prng.int prng 13 with
  | 0 ->
    Sh.Wire.Pub
      { p_shard = Prng.int prng 8; p_seq = Prng.int prng 1000;
        p_upto = (if Prng.int prng 5 = 0 then max_int else Prng.int prng 1000);
        p_marks = Array.init (1 + Prng.int prng 5) (fun _ -> Prng.int prng 50);
        p_act = Sh.Wire.Frozen (rand_snap prng) }
  | 1 ->
    Sh.Wire.Delta
      { dl_shard = Prng.int prng 8; dl_segment = Prng.int prng 5;
        dl_versions =
          List.init (Prng.int prng 5) (fun k ->
              (k, 1 + Prng.int prng 1000, rand_int prng)) }
  | 2 -> Sh.Wire.Wall (rand_wall prng)
  | 3 ->
    Sh.Wire.Read_req
      { req = Prng.int prng 1000; segment = Prng.int prng 5;
        key = Prng.int prng 8; threshold = rand_int prng }
  | 4 ->
    Sh.Wire.Read_reply
      { req = Prng.int prng 1000;
        slice =
          List.init (Prng.int prng 4) (fun k -> (k * 7, rand_int prng)) }
  | 5 -> Sh.Wire.Lock_req { req = Prng.int prng 1000; segment = Prng.int prng 5 }
  | 6 -> Sh.Wire.Lock_reply { req = Prng.int prng 1000; granted = Prng.bool prng }
  | 7 -> Sh.Wire.Unlock { segment = Prng.int prng 5 }
  | 8 -> Sh.Wire.Exec (rand_desc prng)
  | 9 -> Sh.Wire.Drain
  | 10 ->
    Sh.Wire.Outcome
      { shard = Prng.int prng 8;
        outcomes =
          List.init (Prng.int prng 5) (fun k -> (k + 1, Prng.bool prng));
        counters = rand_counters prng }
  | 11 ->
    Sh.Wire.Trace_slice { shard = Prng.int prng 8; records = rand_records prng }
  | _ -> Sh.Wire.Bye { shard = Prng.int prng 8 }

let rand_packet prng =
  { Sh.Wire.src = Prng.int prng 9; dst = Prng.int prng 9;
    stamp = Prng.int prng 100_000; msg = rand_msg prng }

let test_codec_roundtrip () =
  for seed = 1 to 1000 do
    let prng = Prng.create seed in
    let pkt = rand_packet prng in
    let buf = Sh.Wire.encode pkt in
    match Sh.Wire.decode buf ~pos:0 with
    | Ok (pkt', used) ->
      checki (Printf.sprintf "seed %d: full frame consumed" seed)
        (Bytes.length buf) used;
      checkb
        (Printf.sprintf "seed %d: decode (encode p) = p" seed)
        true
        (Sh.Wire.equal pkt pkt')
    | Error e -> Alcotest.failf "seed %d: round-trip failed: %s" seed e
  done

(* a chunky representative frame for the corruption properties *)
let corruption_victim () =
  let prng = Prng.create 424242 in
  let pkt =
    { Sh.Wire.src = 0; dst = 1; stamp = 99;
      msg =
        Sh.Wire.Pub
          { p_shard = 0; p_seq = 3; p_upto = 512;
            p_marks = [| 1; 2; 3 |]; p_act = Sh.Wire.Frozen (rand_snap prng) } }
  in
  Sh.Wire.encode pkt

let test_codec_truncation () =
  let buf = corruption_victim () in
  let n = Bytes.length buf in
  for len = 0 to n - 1 do
    match Sh.Wire.decode (Bytes.sub buf 0 len) ~pos:0 with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated frame at %d/%d bytes decoded" len n
  done

let test_codec_bitflip () =
  let buf = corruption_victim () in
  let n = Bytes.length buf in
  for i = 0 to n - 1 do
    for bit = 0 to 7 do
      let c = Bytes.copy buf in
      Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor (1 lsl bit)));
      match Sh.Wire.decode c ~pos:0 with
      | Error _ -> ()
      | Ok _ ->
        Alcotest.failf "bit %d of byte %d/%d flipped yet the frame decoded"
          bit i n
    done
  done

(* A pipe endpoint's reassembly: a frame fed in two pieces comes out
   once, whole; a negative length header and a flipped payload byte
   raise the codec's own error. *)
let test_framebuf () =
  let module F = Sh.Transport.Framebuf in
  let buf = corruption_victim () in
  let n = Bytes.length buf in
  let want =
    match Sh.Wire.decode buf ~pos:0 with
    | Ok (pkt, _) -> pkt
    | Error e -> Alcotest.failf "victim frame: %s" e
  in
  let fb = F.create () in
  let half = n / 2 in
  F.feed fb buf ~len:half;
  checkb "half a frame yields nothing" true (Option.is_none (F.next fb));
  F.feed fb (Bytes.sub buf half (n - half)) ~len:(n - half);
  (match F.next fb with
  | Some pkt -> checkb "the frame fed" true (Sh.Wire.equal pkt want)
  | None -> Alcotest.fail "a whole frame yields nothing");
  checkb "the frame is consumed" true (Option.is_none (F.next fb));
  let raises what bytes =
    let fb = F.create () in
    F.feed fb bytes ~len:(Bytes.length bytes);
    match F.next fb with
    | exception Hdd_util.Binc.Error _ -> ()
    | _ -> Alcotest.failf "%s: no Binc.Error" what
  in
  let negative = Bytes.make 8 '\000' in
  Bytes.set_int32_le negative 0 (-1l);
  raises "negative length header" negative;
  let flipped = Bytes.copy buf in
  Bytes.set flipped (n - 1)
    (Char.chr (Char.code (Bytes.get flipped (n - 1)) lxor 1));
  raises "flipped payload byte" flipped;
  (* a header claiming more than a frame may hold, valid frames behind
     it: refused at once, not waited on *)
  let implausible = Bytes.make 8 '\000' in
  Bytes.set_int32_le implausible 0 (Int32.of_int (1 lsl 27));
  raises "implausible length header"
    (Bytes.concat Bytes.empty (implausible :: List.init 10 (fun _ -> buf)));
  (* A stream of 400 frames of every kind, one of them (a long trace
     slice) larger than the buffer's initial 4 KB, fed once as one
     buffer and once in pieces of 1 to 600 bytes with every complete
     frame taken between feeds.  The one feed must grow the buffer, and
     so must the pieces when the long frame arrives; elsewhere the
     pieces find the buffer full with unread bytes at an offset, so it
     compacts.  Every packet comes out once, in order. *)
  let prng = Prng.create 1818 in
  let long =
    { Sh.Wire.src = 0; dst = 1; stamp = 7;
      msg =
        Sh.Wire.Trace_slice
          { shard = 0;
            records =
              List.init 600 (fun k ->
                  { T.seq = k; at = k; dom = 1; ev = rand_event prng }) } }
  in
  let pkts =
    Array.init 400 (fun i -> if i = 200 then long else rand_packet prng)
  in
  let frames = Array.map Sh.Wire.encode pkts in
  checkb "the long frame exceeds the initial buffer" true
    (Bytes.length frames.(200) > 4096);
  let stream = Bytes.concat Bytes.empty (Array.to_list frames) in
  let check_out what out =
    let out = Array.of_list (List.rev out) in
    checki (what ^ ": every packet once") (Array.length pkts) (Array.length out);
    Array.iteri
      (fun i p ->
        if not (Sh.Wire.equal p out.(i)) then
          Alcotest.failf "%s: packet %d differs" what i)
      pkts
  in
  let rec take fb out =
    match F.next fb with Some p -> take fb (p :: out) | None -> out
  in
  let fb = F.create () in
  F.feed fb stream ~len:(Bytes.length stream);
  check_out "one feed" (take fb []);
  let fb = F.create () in
  let rec pieces off out =
    if off >= Bytes.length stream then out
    else begin
      let k = Int.min (1 + Prng.int prng 600) (Bytes.length stream - off) in
      F.feed fb (Bytes.sub stream off k) ~len:k;
      pieces (off + k) (take fb out)
    end
  in
  check_out "pieces" (pieces 0 []);
  checkb "pieces: nothing left over" true (Option.is_none (F.next fb));
  (* The process router's read of the same stream, from child 3, fed in
     random pieces: with 8 shards, every frame for shard 0-7 comes out
     through [forward] as the bytes it was sent as, and every frame for
     the router (address 8) decodes equal to its packet, in order. *)
  let nodes = 8 in
  let fb = F.create () in
  let out = ref [] in
  let forward dst b pos len = out := `Fwd (dst, Bytes.sub b pos len) :: !out in
  let rec routed () =
    match F.route fb ~from:3 ~nodes ~forward with
    | Some p ->
      out := `Mine p :: !out;
      routed ()
    | None -> ()
  in
  let rec route_pieces off =
    if off < Bytes.length stream then begin
      let k = Int.min (1 + Prng.int prng 600) (Bytes.length stream - off) in
      F.feed fb (Bytes.sub stream off k) ~len:k;
      routed ();
      route_pieces (off + k)
    end
  in
  route_pieces 0;
  let out = Array.of_list (List.rev !out) in
  checki "router: every frame once" (Array.length pkts) (Array.length out);
  let forwarded = ref 0 in
  Array.iteri
    (fun i (p : Sh.Wire.packet) ->
      match out.(i) with
      | `Fwd (dst, b) ->
        incr forwarded;
        if dst <> p.dst || not (Bytes.equal b frames.(i)) then
          Alcotest.failf "router: frame %d not forwarded as sent" i
      | `Mine q ->
        if p.dst <> nodes || not (Sh.Wire.equal p q) then
          Alcotest.failf "router: frame %d not decoded as sent" i)
    pkts;
  checkb "router: both kinds seen" true
    (!forwarded > 0 && !forwarded < Array.length pkts);
  let stray =
    Sh.Wire.encode
      { Sh.Wire.src = 3; dst = nodes + 1; stamp = 0; msg = Sh.Wire.Drain }
  in
  F.feed fb stray ~len:(Bytes.length stray);
  match F.route fb ~from:3 ~nodes ~forward with
  | exception Hdd_util.Binc.Error e ->
    checkb "router: a stray address names the child" true
      (Fixtures.contains e "shard 3")
  | _ -> Alcotest.fail "router: a frame to address 9 raised no Binc.Error"

(* Two senders, each in a domain of its own, into one loopback
   destination polled from a third: each sender's packets arrive once
   and in its sending order. *)
let test_loopback_fifo () =
  let nets = Sh.Transport.Loopback.create ~nodes:3 () in
  let per_sender = 5_000 in
  let sender me () =
    for k = 1 to per_sender do
      Sh.Transport.send_to nets.(me) ~dst:2 ~stamp:k
        (Sh.Wire.Delta
           { dl_shard = me; dl_segment = me; dl_versions = [ (k, k, me) ] })
    done
  in
  let got = Array.make 2 0 in
  Fixtures.within ~seconds:20. (fun () ->
      let ds = List.map (fun me -> Domain.spawn (sender me)) [ 0; 1 ] in
      while got.(0) + got.(1) < 2 * per_sender do
        match nets.(2).Sh.Transport.poll () with
        | None -> Domain.cpu_relax ()
        | Some { Sh.Wire.src; stamp; msg; _ } ->
          got.(src) <- got.(src) + 1;
          if stamp <> got.(src) then
            Alcotest.failf "sender %d: packet %d arrived as number %d" src
              stamp got.(src);
          (match msg with
          | Sh.Wire.Delta { dl_versions = [ (k, _, v) ]; _ }
            when k = stamp && v = src -> ()
          | _ -> Alcotest.failf "sender %d: packet %d garbled" src stamp)
      done;
      List.iter Domain.join ds);
  checkb "nothing more arrives" true (Option.is_none (nets.(2).poll ()))

(* What a poll of the four-class Pub below must build, in words: the
   packet (5), its [Pub] (2), the pub record (6), [Frozen] (2) and the
   marks (5); the snapshot (2), its array of views (5) and four views
   (20); class 0's active (a cons and a pair, 6) and two windows (two
   arrays of 2, 6), class 2's two windows (6); and the frame's read:
   the reader (4), [Ok (pkt, next)] (5) and [Some pkt] (2). *)
let pub_poll_words = 20 + 27 + 18 + 11

(* The send path allocates nothing, and a poll no more than the values
   it decodes.  After warm-up, 10,000 loopback sends of one fixed
   packet, then 10,000 polls, each counted with [Gc.minor_words] around
   the loop alone: a send of a Delta, a Wall or a four-class Pub (which
   names its live registry and marks, as a node's does) allocates no
   minor word, and a poll of the Pub at most [pub_poll_words]. *)
let test_send_allocation () =
  let words_per_send_poll pkt =
    let nets = Sh.Transport.Loopback.create ~nodes:2 () in
    let send = nets.(0).Sh.Transport.send in
    let rec drain () =
      match nets.(1).Sh.Transport.poll () with Some _ -> drain () | None -> ()
    in
    for _ = 1 to 100 do
      send pkt
    done;
    drain ();
    let n = 10_000 in
    let w0 = Gc.minor_words () in
    for _ = 1 to n do
      send pkt
    done;
    let w1 = Gc.minor_words () in
    drain ();
    let w2 = Gc.minor_words () in
    ( Float.to_int ((w1 -. w0) /. float_of_int n),
      Float.to_int ((w2 -. w1) /. float_of_int n) )
  in
  let reg = Registry.create ~classes:4 () in
  List.iter
    (fun (c, init) ->
      Registry.register_active reg ~class_id:c ~id:init ~init;
      Registry.finish_active reg ~class_id:c ~endt:(init + 3))
    [ (0, 101); (2, 103); (0, 107); (2, 111) ];
  Registry.register_active reg ~class_id:0 ~id:115 ~init:115;
  let pkt msg = { Sh.Wire.src = 0; dst = 1; stamp = 117; msg } in
  checki "Delta: words per send" 0
    (fst
       (words_per_send_poll
          (pkt
             (Sh.Wire.Delta
                { dl_shard = 0; dl_segment = 2; dl_versions = [ (517, 115, 9) ] }))));
  checki "Wall: words per send" 0
    (fst
       (words_per_send_poll
          (pkt
             (Sh.Wire.Wall
                (TW.make ~s:3 ~m:101 ~components:[| 99; 101; 97; 101 |]
                   ~released_at:120)))));
  let send_words, poll_words =
    words_per_send_poll
      (pkt
         (Sh.Wire.Pub
            { p_shard = 0; p_seq = 40; p_upto = 116;
              p_marks = [| 21; 0; 19; 0 |]; p_act = Sh.Wire.Live reg }))
  in
  checki "Pub: words per send" 0 send_words;
  if poll_words > pub_poll_words then
    Alcotest.failf "Pub: %d words per poll, more than its decoded values' %d"
      poll_words pub_poll_words

(* --- the cross-shard oracle --- *)

let ok_or_fail what (r : D.report) =
  if not (D.ok r) then
    Alcotest.failf "%s: oracle rejected the run:@.%a" what D.pp_report r

let test_goldens_pass_oracle () =
  List.iter
    (fun (gl : Sh.Shard_diff.golden) ->
      List.iter
        (fun shards ->
          ok_or_fail
            (Printf.sprintf "%s @ %d shards" gl.Sh.Shard_diff.g_name shards)
            (Sh.Shard_diff.golden_check ~shards gl))
        [ 1; 2; 3 ])
    Sh.Shard_diff.goldens

let shard_seeds () = Fixtures.seeds_from_env "HDD_SHARD_SEEDS"
let profile_of = Fixtures.stress_profile

let test_shard_stress () =
  let seeds = shard_seeds () in
  let failures = ref [] in
  for seed = 1 to seeds do
    let shards = Fixtures.scaled_workers seed
    and profile = profile_of seed in
    let r = Sh.Shard_diff.stress_one ~seed ~shards ~txns:30 ~profile () in
    if not (D.ok r) then
      failures :=
        Format.asprintf "seed %d shards %d: %a" seed shards D.pp_report r
        :: !failures
  done;
  if !failures <> [] then
    Alcotest.failf "%d/%d sharded stress runs diverged:@.%s"
      (List.length !failures) seeds
      (String.concat "\n" !failures)

let test_shard_stress_domains () =
  (* real parallelism over the mutexed loopback: a few seeds by
     default, the deterministic sweep above carries the breadth *)
  for seed = 1 to Fixtures.seeds_from_env ~default:4 "HDD_SHARD_SEEDS" do
    let shards = 2 + (2 * (seed mod 2)) in
    let r =
      Sh.Shard_diff.stress_one ~mode:`Domains ~seed ~shards ~txns:25
        ~profile:(profile_of seed) ()
    in
    ok_or_fail (Printf.sprintf "domains seed %d shards %d" seed shards) r
  done

(* --- one count, three engines ---

   The serial scheduler (one transaction at a time, in script order),
   the multicore engine and the deterministic cluster count one
   script's commits, aborts, reads per protocol and writes alike. *)

let serial_counts ~partition (script : E.desc array) =
  let module S = Hdd_core.Scheduler in
  let store =
    Hdd_mvstore.Store.create
      ~segments:(Hdd_core.Partition.segment_count partition)
      ~init:D.default_init
  in
  let sched = S.create ~partition ~clock:(Time.Clock.create ()) ~store () in
  Array.iter
    (fun (d : E.desc) ->
      let txn =
        match d.d_kind with
        | `Update class_id -> S.begin_update sched ~class_id
        | `Read_only -> S.begin_read_only sched
      in
      List.iter
        (fun op ->
          let granted =
            match op with
            | E.Read g -> Hdd_core.Outcome.is_granted (S.read sched txn g)
            | E.Write (g, v) ->
              Hdd_core.Outcome.is_granted (S.write sched txn g v)
          in
          if not granted then
            Alcotest.failf "serial: txn %d was refused an op" d.d_id)
        d.d_ops;
      if d.d_abort then S.abort sched txn else S.commit sched txn)
    script;
  S.metrics sched

let compared (c : Hdd_obs.Counters.t) =
  [ ("committed", c.committed); ("aborted", c.aborted);
    ("reads_a", c.reads_a); ("reads_b", c.reads_b); ("reads_c", c.reads_c);
    ("writes", c.writes) ]

let test_counters_agree () =
  let seeds = shard_seeds () in
  let failures = ref [] in
  for seed = 1 to seeds do
    let n = Fixtures.scaled_workers seed in
    let partition, script =
      D.stress_case ~seed ~txns:30 ~profile:(profile_of seed)
    in
    let serial = compared (serial_counts ~partition script) in
    let engine =
      E.run_script ~partition ~init:D.default_init
        { (E.default_config ~workers:n) with traced = false }
        ~script
    in
    let cluster =
      Sh.Cluster.run_script_det ~partition ~init:D.default_init ~shards:n
        ~seed ~script ()
    in
    List.iter
      (fun (name, (run : E.run)) ->
        if compared run.stats <> serial then
          let show l =
            String.concat " "
              (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)
          in
          failures :=
            Printf.sprintf "seed %d, %s at %d: %s; serial: %s" seed name n
              (show (compared run.stats)) (show serial)
            :: !failures)
      [ ("engine", engine); ("cluster", cluster) ]
  done;
  if !failures <> [] then
    Alcotest.failf "%d count disagreement(s) over %d seeds:@.%s"
      (List.length !failures) seeds
      (String.concat "\n" (List.rev !failures))

(* The node's publication batch K delays only how soon peers see
   refreshed activity ([Node.config.publish_every]): deterministic
   cluster runs at K = 1, 8 and 64 (2/4/8 shards by seed) each pass the
   four-check oracle, and at K = 8 and 64 every descriptor commits or
   aborts as at K = 1. *)
let test_node_batching_identity () =
  let seeds = shard_seeds () in
  let failures = ref [] in
  for seed = 1 to seeds do
    let shards = Fixtures.scaled_workers seed in
    let partition, script =
      D.stress_case ~seed ~txns:30 ~profile:(profile_of seed)
    in
    let outcomes =
      List.map
        (fun k ->
          let run =
            Sh.Cluster.run_script_det
              ~config:{ Sh.Node.default_config with publish_every = k }
              ~partition ~init:D.default_init ~shards ~seed ~script ()
          in
          let r = D.check_run ~partition ~init:D.default_init ~script run in
          if not (D.ok r) then
            failures :=
              Format.asprintf "seed %d shards %d K=%d: %a" seed shards k
                D.pp_report r
              :: !failures;
          (k, run.E.outcomes))
        [ 1; 8; 64 ]
    in
    match outcomes with
    | (_, o1) :: rest ->
      List.iter
        (fun (k, o) ->
          if o <> o1 then
            failures :=
              Printf.sprintf
                "seed %d shards %d: K=%d outcomes [%s] not at K=1"
                seed shards k
                (String.concat "; "
                   (List.filter_map
                      (fun (id, c) ->
                        if List.mem (id, c) o1 then None
                        else Some (Printf.sprintf "%d %b" id c))
                      o))
              :: !failures)
        rest
    | [] -> ()
  done;
  if !failures <> [] then
    Alcotest.failf "%d batching divergence(s) over %d seeds:@.%s"
      (List.length !failures) seeds
      (String.concat "\n" (List.rev !failures))

(* A cluster run counts its nodes' publications.  Each one is a [Pub]
   broadcast to the other shards, so in the deterministic mode the sum
   over the nodes is the transport's [Pub] sends over [shards - 1]; in
   the domain mode every node's final publication counts at least. *)
let test_cluster_counts_publications () =
  let partition, script = D.stress_case ~seed:4 ~txns:60 ~profile:D.Mixed in
  let init = D.default_init in
  List.iter
    (fun shards ->
      let fault = Sh.Netfault.plan [] in
      let det =
        Sh.Cluster.run_script_det ~fault ~partition ~init ~shards ~seed:4
          ~script ()
      in
      checkb "deterministic: publications counted" true
        (det.stats.publications > 0);
      checki
        (Printf.sprintf "deterministic at %d shards: the sum over the nodes"
           shards)
        (Sh.Netfault.sends fault)
        (det.stats.publications * (shards - 1));
      let dom = Sh.Cluster.run_script_domains ~partition ~init ~shards ~script () in
      checkb
        (Printf.sprintf "domains at %d shards: every node's final publication"
           shards)
        true
        (dom.stats.publications >= shards))
    [ 2; 4 ]

(* Process mode lives in its own executable (test_shard_proc): OCaml 5
   refuses Unix.fork in a process that has ever spawned domains, and
   the suites before this one have. *)

(* --- scripted publication faults --- *)

let stress_script seed =
  (* same derivation as Shard_diff.stress_one, reduced for fault runs *)
  let prng = Prng.create ((seed * 2) + 1) in
  let partition =
    if seed land 1 = 0 then D.chain_partition (4 + Prng.int prng 5)
    else D.tree_partition (3 + Prng.int prng 3)
  in
  let script =
    D.gen_script ~partition ~seed ~txns:25 ~ro_frac:0.3 ~abort_frac:0.1 ()
  in
  (partition, script)

let test_netfault_all_kinds () =
  (* every fault kind fires, and the oracle stays green: a perturbed
     publication stream may add waiting, never inconsistency *)
  let fired_kinds = ref [] in
  List.iter
    (fun seed ->
      let partition, script = stress_script seed in
      let fault =
        Sh.Netfault.plan
          [ Sh.Netfault.Drop 0; Sh.Netfault.Dup 2;
            Sh.Netfault.Delay { pub = 4; by = 2 }; Sh.Netfault.Reorder 6;
            Sh.Netfault.Drop 8; Sh.Netfault.Dup 10 ]
      in
      let r =
        Sh.Shard_diff.check_det ~fault ~partition ~init:D.default_init
          ~shards:2 ~seed ~script ()
      in
      ok_or_fail (Printf.sprintf "faulted seed %d" seed) r;
      fired_kinds :=
        List.map Sh.Netfault.kind (Sh.Netfault.fired fault) @ !fired_kinds)
    [ 1; 2; 3; 4 ];
  let kinds = List.sort_uniq compare !fired_kinds in
  List.iter
    (fun k ->
      checkb (Printf.sprintf "fault kind %s fired" k) true (List.mem k kinds))
    Sh.Netfault.kinds

let test_netfault_drop_storm () =
  (* publications are pure hints: losing the first thirty wholesale
     still converges and still certifies *)
  let partition, script = stress_script 6 in
  let fault =
    Sh.Netfault.plan (List.init 30 (fun n -> Sh.Netfault.Drop n))
  in
  let r =
    Sh.Shard_diff.check_det ~fault ~partition ~init:D.default_init ~shards:4
      ~seed:6 ~script ()
  in
  ok_or_fail "drop storm" r;
  checkb "drops actually fired" true (Sh.Netfault.fired fault <> [])

(* --- golden traces --- *)

let golden_file name = Filename.concat "golden" ("shard_" ^ name ^ ".trace")

let read_file = Fixtures.read_file

let golden_text gl =
  T.text_of_records (Sh.Shard_diff.golden_records gl)

let test_golden_traces () =
  match Fixtures.golden_update_dir () with
  | Some dir ->
    List.iter
      (fun (gl : Sh.Shard_diff.golden) ->
        let path =
          Filename.concat dir ("shard_" ^ gl.Sh.Shard_diff.g_name ^ ".trace")
        in
        let oc = open_out_bin path in
        output_string oc (golden_text gl);
        close_out oc;
        Printf.printf "wrote %s\n" path)
      Sh.Shard_diff.goldens
  | _ ->
    List.iter
      (fun (gl : Sh.Shard_diff.golden) ->
        let name = gl.Sh.Shard_diff.g_name in
        let current = golden_text gl in
        checks
          (Printf.sprintf "shard %s: run-to-run stable" name)
          current (golden_text gl);
        let path = golden_file name in
        if not (Sys.file_exists path) then
          Alcotest.failf
            "%s missing — regenerate with HDD_GOLDEN_UPDATE=test/golden" path;
        checks
          (Printf.sprintf "shard %s: matches golden" name)
          (read_file path) current)
      Sh.Shard_diff.goldens

(* --- forged traces: the oracle names the failed check --- *)

let stats_zero = Hdd_obs.Counters.create ()

let rcd seq at ev = { T.seq; at; dom = 1; ev }

(* the Figure 1 lost update, forged as a merged trace: both tellers read
   the bootstrap version and both commit — exactly the history HDD can
   never produce, so the MVSG check must fail and must say so *)
let test_forged_lost_update () =
  let b_read txn at version =
    rcd at at
      (T.Read
         { txn; protocol = T.B; segment = 0; key = 0; threshold = txn;
           version })
  in
  let records =
    [ rcd 1 1 (T.Begin { txn = 1; kind = T.Update 0; init = 1 });
      rcd 2 2 (T.Begin { txn = 2; kind = T.Update 0; init = 2 });
      b_read 1 3 0;
      b_read 2 4 0;
      (* MVTO stamps a write with its writer's initiation time *)
      rcd 5 5 (T.Write { txn = 1; segment = 0; key = 0; ts = 1 });
      rcd 6 6 (T.Write { txn = 2; segment = 0; key = 0; ts = 2 });
      rcd 7 7 (T.Commit { txn = 1; at = 7 });
      rcd 8 8 (T.Commit { txn = 2; at = 8 }) ]
  in
  let run =
    { E.records; outcomes = [ (1, true); (2, true) ];
      stats = { stats_zero with E.committed = 2; writes = 2; reads_b = 2 } }
  in
  let gl = Sh.Shard_diff.fig1 in
  let r =
    D.check_run ~partition:gl.Sh.Shard_diff.g_partition
      ~init:gl.Sh.Shard_diff.g_init
      ~script:
        [| gl.Sh.Shard_diff.g_script.(0); gl.Sh.Shard_diff.g_script.(1) |]
      run
  in
  checkb "forged lost update rejected" false (D.ok r);
  checkb "mvsg-certification named" true
    (List.mem "mvsg-certification" (D.failures r));
  checkb "read-from-equality named" true
    (List.mem "read-from-equality" (D.failures r));
  let rendered = Format.asprintf "%a" D.pp_report r in
  checkb "pp_report leads with the names" true
    (String.length rendered > 0
    && String.sub rendered 0 (String.length "FAILED checks:")
       = "FAILED checks:")

(* a clean forged history whose only lie is the verdict: txn 2 claims
   aborted while the serial oracle commits it *)
let test_forged_verdict_flip () =
  let records =
    [ rcd 1 1 (T.Begin { txn = 1; kind = T.Update 0; init = 1 });
      rcd 2 2
        (T.Read
           { txn = 1; protocol = T.B; segment = 0; key = 0; threshold = 1;
             version = 0 });
      rcd 3 3 (T.Write { txn = 1; segment = 0; key = 0; ts = 1 });
      rcd 4 4 (T.Commit { txn = 1; at = 4 });
      rcd 5 5 (T.Begin { txn = 2; kind = T.Update 0; init = 5 });
      rcd 6 6
        (T.Read
           { txn = 2; protocol = T.B; segment = 0; key = 0; threshold = 5;
             version = 1 });
      rcd 7 7 (T.Write { txn = 2; segment = 0; key = 0; ts = 5 });
      rcd 8 8 (T.Abort { txn = 2; at = 8 }) ]
  in
  let run =
    { E.records; outcomes = [ (1, true); (2, false) ];
      stats = { stats_zero with E.committed = 1; aborted = 1 } }
  in
  let gl = Sh.Shard_diff.fig1 in
  let r =
    D.check_run ~partition:gl.Sh.Shard_diff.g_partition
      ~init:gl.Sh.Shard_diff.g_init
      ~script:
        [| gl.Sh.Shard_diff.g_script.(0); gl.Sh.Shard_diff.g_script.(1) |]
      run
  in
  Alcotest.(check (list string))
    "exactly the verdict check fails" [ "serial-oracle-agreement" ]
    (D.failures r)

(* a legitimate run with a backwards wall spliced onto the tail: only
   the monitor replay can see it, and it must be the one to shout *)
let test_forged_backwards_wall () =
  let gl = Sh.Shard_diff.fig34 in
  let run =
    Sh.Cluster.run_script_det ~partition:gl.Sh.Shard_diff.g_partition
      ~init:gl.Sh.Shard_diff.g_init ~shards:2 ~seed:7
      ~script:gl.Sh.Shard_diff.g_script ()
  in
  let big = 1_000_000 in
  let forged =
    run.E.records
    @ [ rcd 9000 big
          (T.Wall_release
             { m = big; released_at = big; components = [| big; big; big |] });
        rcd 9001 (big + 1)
          (T.Wall_release
             { m = big; released_at = big - 1;
               components = [| big - 1; big; big |] }) ]
  in
  let r =
    D.check_run ~partition:gl.Sh.Shard_diff.g_partition
      ~init:gl.Sh.Shard_diff.g_init ~script:gl.Sh.Shard_diff.g_script
      { run with E.records = forged }
  in
  Alcotest.(check (list string))
    "exactly the monitor check fails" [ "monitor-replay" ] (D.failures r)

(* The node's store refuses a negative key on a read as on a write,
   where it used to serve the bootstrap value. *)
let test_negative_key () =
  let partition = D.chain_partition 2 in
  List.iter
    (fun key ->
      let script =
        [| { E.d_id = 1; d_kind = `Update 0;
             d_ops = [ E.Read (Granule.make ~segment:1 ~key) ];
             d_abort = false } |]
      in
      match
        Sh.Cluster.run_script_det ~partition ~init:D.default_init ~shards:2
          ~seed:1 ~script ()
      with
      | _ -> Alcotest.failf "key %d: no exception" key
      | exception Invalid_argument _ -> ())
    [ -1; -2; -1_000_000 ]

(* --- pinned frames: one per [Wire.msg] constructor, in declaration
   order, with their bytes as hex.  The encoder must reproduce them
   exactly and the decoder read them back. *)

let pinned_packets () =
  let g segment key = Granule.make ~segment ~key in
  let pkt src dst stamp msg = { Sh.Wire.src; dst; stamp; msg } in
  [ pkt 1 0 1_000
      (Sh.Wire.Pub
         { p_shard = 1; p_seq = 42; p_upto = max_int; p_marks = [| 0; 3; 300 |];
           p_act =
             Sh.Wire.Frozen
               (snapshot_of_parts
                  [| ([ (7, 10); (9, 12) ], [| 1; 2 |], [| 4; 6 |], 5);
                     ([], [||], [||], 0);
                     ([ (100, 1_000_000) ], [| -5 |], [| 200 |], max_int) |])
         });
    pkt 0 1 17
      (Sh.Wire.Delta
         { dl_shard = 0; dl_segment = 2;
           dl_versions = [ (1, 17, -1); (1023, 99, max_int) ] });
    pkt 0 2 13
      (Sh.Wire.Wall
         (TW.make ~s:0 ~m:12 ~components:[| 12; 9; 1 |] ~released_at:13));
    pkt 2 0 64
      (Sh.Wire.Read_req
         { req = 5; segment = 1; key = 64; threshold = min_int });
    pkt 0 2 65 (Sh.Wire.Read_reply { req = 5; slice = [ (8, 127); (0, -64) ] });
    pkt 2 1 66 (Sh.Wire.Lock_req { req = 6; segment = 3 });
    pkt 1 2 67 (Sh.Wire.Lock_reply { req = 6; granted = true });
    pkt 2 1 68 (Sh.Wire.Unlock { segment = 3 });
    pkt 3 0 0
      (Sh.Wire.Exec
         { E.d_id = 77; d_kind = `Update 2;
           d_ops = [ E.Read (g 3 1); E.Write (g 2 5, -300) ];
           d_abort = false });
    pkt 3 1 0 Sh.Wire.Drain;
    pkt 1 3 500
      (Sh.Wire.Outcome
         { shard = 1; outcomes = [ (1, true); (2, false) ];
           counters =
             { Sh.Wire.k_committed = 1; k_aborted = 1; k_reads_a = 2;
               k_reads_b = 0; k_reads_c = 128; k_writes = 3;
               k_stale_waits = 16_384; k_wall_releases = 4;
               k_wall_lag_sum = 1 lsl 40; k_wall_lag_max = 63 } });
    pkt 1 3 501
      (Sh.Wire.Trace_slice
         { shard = 1;
           records =
             [ { T.seq = 0; at = 3; dom = 2;
                 ev =
                   T.Begin
                     { txn = 9;
                       kind = T.Adhoc { wsegs = [ 0 ]; rsegs = [ 0; 2 ] };
                       init = 3 } };
               { T.seq = 1; at = 4; dom = 2;
                 ev =
                   T.Read
                     { txn = 9; protocol = T.A; segment = 2; key = 7;
                       threshold = 3; version = 1 } };
               { T.seq = 2; at = 5; dom = 2;
                 ev =
                   T.Reject
                     { txn = 9; protocol = Some T.C; stage = T.Barrier;
                       segment = -1; reason = "wall" } };
               { T.seq = 3; at = 6; dom = 2;
                 ev =
                   T.Reject
                     { txn = 10; protocol = None; stage = T.Rule; segment = 1;
                       reason = "" } };
               { T.seq = 4; at = 7; dom = 2; ev = T.Note "é\n" };
               { T.seq = 5; at = 8; dom = 2;
                 ev =
                   T.Repartition
                     { epoch = 1; kind = "split"; moved = [ 1; 2 ];
                       fresh_store = true } };
               { T.seq = 6; at = 9; dom = 2;
                 ev = T.Escalation { seq = 2; modes = [ 0; 1 ] } } ] });
    pkt 1 3 502 (Sh.Wire.Bye { shard = 1 }) ]

let pinned_hex =
  [
    ( "Pub",
      "37000000474071480200d00f000254feffffffffffffff7f060006d80406"
      ^ "040e141218040208040c0a00000002c80180897a02099003feffffffffff"
      ^ "ffff7f" );
    ( "Delta",
      "170000003cd8a66400022202000404022201fe0fc601feffffffffffffff"
      ^ "7f" );
    ("Wall", "0b000000433156fa00041a040018061812021a");
    ("Read_req", "12000000e74ca1df04008001060a028001ffffffffffffffff7f");
    ("Read_reply", "0c000000f38ea21500048201080a0410fe01007f");
    ("Lock_req", "07000000be447090040284010a0c06");
    ("Lock_reply", "07000000e828d0c5020486010c0c01");
    ("Unlock", "060000008dcc5c0e040288010e06");
    ("Exec", "120000005ff6f814060000109a0100040400060202040ad70400");
    ("Drain", "04000000e62512f406020012");
    ( "Outcome",
      "1d0000000c6fa4de0206e807140204020104000202040080020680800208"
      ^ "8080808080407e" );
    ( "Trace_slice",
      "53000000b4662de60206ea0716020e000604001206020004000406020804"
      ^ "021200040e0602040a040612010402010877616c6c060c04061400040200"
      ^ "080e041a06c3a90a0a100424020a73706c6974040204020c120426040400"
      ^ "02" );
    ("Bye", "0600000078e4b9860206ec071802") ]

let to_hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

let test_codec_pinned () =
  List.iter2
    (fun pkt (name, hex) ->
      let buf = Sh.Wire.encode pkt in
      checks (name ^ ": bytes") hex (to_hex buf);
      match Sh.Wire.decode buf ~pos:0 with
      | Ok (pkt', next) ->
        checki (name ^ ": whole frame read") (Bytes.length buf) next;
        checkb (name ^ ": decodes back") true (Sh.Wire.equal pkt pkt')
      | Error e -> Alcotest.failf "%s: %s" name e)
    (pinned_packets ()) pinned_hex

(* A wait that trips the wait budget raises the runtimes' one
   [Stalled], naming the waiting shard and what it waited for: here a
   publication of a peer that never pumps, so never publishes.  The
   wait hook drops what the waiting node republishes to that peer on
   every iteration, so the peer's inbox stays empty. *)
let test_stall_typed () =
  let partition = D.chain_partition 2 in
  let nets = Sh.Transport.Loopback.create ~nodes:2 () in
  let nodes =
    Array.map
      (fun net -> Sh.Node.create ~partition ~init:D.default_init ~net ())
      nets
  in
  let rec drop () =
    match nets.(1).Sh.Transport.poll () with Some _ -> drop () | None -> ()
  in
  Sh.Node.set_on_wait nodes.(0) drop;
  let d =
    { E.d_id = 1; d_kind = `Update 0;
      d_ops = [ E.Read (Granule.make ~segment:1 ~key:0) ]; d_abort = false }
  in
  match Fixtures.within ~seconds:20. (fun () -> Sh.Node.exec nodes.(0) d) with
  | () -> Alcotest.fail "the wait never stalled"
  | exception Hdd_runtime.Wait.Stalled { waiter; awaited; _ } ->
    checks "the waiting shard" "shard 0" waiter;
    checkb
      (Printf.sprintf "names the awaited publication (%S)" awaited)
      true
      (String.starts_with ~prefix:"a publication of shard 1 covering"
         awaited)

(* A shard that raises ends the domain-mode run: the script's first
   descriptor raises on shard 0 while 50 writes alternate between the
   two shards.  The raising shard counts as done, so the caller stops
   the other and re-raises the shard's own exception. *)
let test_domains_raise_ends_run () =
  let partition = D.chain_partition 2 in
  let script = Fixtures.raising_script ~writes:50 in
  match
    Fixtures.within ~seconds:20. (fun () ->
        Sh.Cluster.run_script_domains ~partition ~init:D.default_init
          ~shards:2 ~script ())
  with
  | _ -> Alcotest.fail "no exception"
  | exception Invalid_argument msg ->
    checks "the shard's exception" "Pstore: negative key" msg

(* A raising node ends the bench's run: with no keys every node raises
   at its first key draw, and the run re-raises instead of waiting for
   nodes that never finish. *)
let test_bench_raise_ends_run () =
  match
    Fixtures.within ~seconds:20. (fun () ->
        Sh.Shardbench.run ~shards:2 ~seconds:0.05 ~keys:0 ())
  with
  | _ -> Alcotest.fail "no exception"
  | exception Division_by_zero -> ()

(* --- the live writer ---

   [Registry.write] against the frozen snapshot, over 1000 seeds of
   [runtime 25]'s registry histories ([Fixtures.registry_history]):
   after every step the live registry's frame, written first, equals
   the frame of a [Registry.snapshot] taken next, and decodes into a
   snapshot that answers [snap_i_old]/[snap_c_late] as the live
   registry does, at every argument.  A writer that skipped the
   snapshot's [sync], or wrote windows from index 0 rather than the
   pruned start, fails it. *)
let test_live_writer () =
  let module B = Hdd_util.Binc in
  let frame write x =
    let b = B.writer () in
    write b x;
    B.frame b
  in
  for seed = 1 to 1000 do
    let prng = Prng.create seed in
    let { Fixtures.reg; classes; now; step; _ } =
      Fixtures.registry_history prng
    in
    for k = 1 to 10 + Prng.int prng 40 do
      step ();
      let live = frame Registry.write reg in
      let frozen = frame Registry.write_snapshot (Registry.snapshot reg) in
      if not (Bytes.equal live frozen) then
        Alcotest.failf "seed %d step %d: the live frame is not the snapshot's"
          seed k;
      match B.decode live ~pos:0 ~f:Registry.read with
      | Error e -> Alcotest.failf "seed %d step %d: %s" seed k e
      | Ok (snap, _) ->
        for c = 0 to classes - 1 do
          for at = 0 to !now + 1 do
            if
              Registry.snap_i_old snap ~class_id:c ~at
              <> Registry.i_old reg ~class_id:c ~at
              || Registry.snap_c_late snap ~class_id:c ~at
                 <> Registry.c_late reg ~class_id:c ~at
            then
              Alcotest.failf "seed %d step %d: class %d answers differ at %d"
                seed k c at
          done
        done
    done
  done

let suite =
  [ Alcotest.test_case "sclock: strided, unique, gossiped" `Quick test_sclock;
    Alcotest.test_case "codec: 1000-seed round-trip" `Quick
      test_codec_roundtrip;
    Alcotest.test_case "codec: truncation at every byte errors" `Quick
      test_codec_truncation;
    Alcotest.test_case "codec: every single-bit flip errors" `Quick
      test_codec_bitflip;
    Alcotest.test_case "oracle: curated scenarios at 1/2/3 shards" `Quick
      test_goldens_pass_oracle;
    Alcotest.test_case "oracle: stress at 2/4/8 shards" `Slow
      test_shard_stress;
    Alcotest.test_case "oracle: domain-mode stress" `Slow
      test_shard_stress_domains;
    Alcotest.test_case "netfault: every kind fires, oracle green" `Quick
      test_netfault_all_kinds;
    Alcotest.test_case "netfault: 30-drop storm stays sound" `Quick
      test_netfault_drop_storm;
    Alcotest.test_case "golden shard traces byte-stable" `Quick
      test_golden_traces;
    Alcotest.test_case "forged lost update: mvsg check named" `Quick
      test_forged_lost_update;
    Alcotest.test_case "forged verdict flip: serial check named" `Quick
      test_forged_verdict_flip;
    Alcotest.test_case "forged backwards wall: monitor check named" `Quick
      test_forged_backwards_wall;
    Alcotest.test_case "node: negative-key read raises" `Quick
      test_negative_key;
    Alcotest.test_case "codec: one pinned frame per message" `Quick
      test_codec_pinned;
    Alcotest.test_case "node: a stalled wait raises Stalled" `Quick
      test_stall_typed;
    Alcotest.test_case "cluster: a raising shard ends the domain run" `Quick
      test_domains_raise_ends_run;
    Alcotest.test_case "bench shard: a raising node ends the run" `Quick
      test_bench_raise_ends_run;
    Alcotest.test_case "framebuf: two pieces, typed errors" `Quick
      (fun () ->
        test_framebuf ();
        test_loopback_fifo ());
    Alcotest.test_case "counters: serial, engine and cluster agree" `Slow
      test_counters_agree;
    Alcotest.test_case "cluster: runs count node publications" `Quick
      test_cluster_counts_publications;
    Alcotest.test_case "loopback: sends allocate only Pub snapshots" `Quick
      test_send_allocation;
    Alcotest.test_case "node: batching K=1/8/64 reaches one outcome" `Slow
      test_node_batching_identity;
    Alcotest.test_case "codec: the live writer equals the frozen snapshot"
      `Quick test_live_writer ]

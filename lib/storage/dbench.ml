module J = Hdd_benchkit.Jsonlite
module Partition = Hdd_core.Partition
module Outcome = Hdd_core.Outcome

(* Linear class hierarchy over three segments; the workload below keeps
   every class busy. *)
let partition () = Hdd_benchkit.Fixtures.chain_partition 3

let us s = s *. 1e6

(* One closed-loop committer: [txns] single-write update transactions,
   driven through [db], collecting per-commit ack latency (submit to
   acknowledged, in seconds).  Group-commit acks arrive on later
   operations, so every iteration polls the outstanding tickets; the
   final flush acks the stragglers. *)
let drive db ~txns =
  let waiting = ref [] in
  let lat = ref [] in
  let poll () =
    waiting :=
      List.filter
        (fun (tk, t0) ->
          if Durable.acked db tk then begin
            lat := (Unix.gettimeofday () -. t0) :: !lat;
            false
          end
          else true)
        !waiting
  in
  let t0 = Unix.gettimeofday () in
  for i = 1 to txns do
    let cls = i mod 3 in
    let t = Durable.begin_update db ~class_id:cls in
    (match
       Durable.write db t (Granule.make ~segment:cls ~key:(i mod 8)) i
     with
    | Outcome.Granted () -> ()
    | Outcome.Blocked _ | Outcome.Rejected _ -> ());
    let s0 = Unix.gettimeofday () in
    let tk = Durable.commit_ticket db t in
    waiting := (tk, s0) :: !waiting;
    poll ()
  done;
  Durable.flush db;
  poll ();
  let elapsed = Unix.gettimeofday () -. t0 in
  let lat = Array.of_list !lat in
  Array.sort compare lat;
  (elapsed, lat)

let scrub path =
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.iter
    (fun f ->
      if
        String.length f >= String.length base
        && String.sub f 0 (String.length base) = base
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

(* --- throughput and ack latency over the group-commit knob grid --- *)

type cell = {
  max_batch : int;
  max_delay : int;
  txns_per_sec : float;
  fsyncs : int;
  fsyncs_per_commit : float;
  p50_us : float;
  p99_us : float;
}

let commit_cell ~dir ~txns ~knob =
  let path = Filename.concat dir "hdd_dbench_commit.log" in
  scrub path;
  let db =
    match knob with
    | None ->
      Durable.create ~sync_on_commit:true ~path ~partition:(partition ()) ()
    | Some config ->
      Durable.create ~group:config ~path ~partition:(partition ()) ()
  in
  let elapsed, lat = drive db ~txns in
  let fsyncs =
    match Durable.group db with
    | Some g -> Group_commit.fsyncs g
    | None -> txns (* sync_on_commit: one fsync per commit by definition *)
  in
  Durable.close db;
  scrub path;
  let max_batch, max_delay =
    match knob with
    | None -> (0, 0)
    | Some c -> (c.Group_commit.max_batch, c.Group_commit.max_delay)
  in
  { max_batch; max_delay;
    txns_per_sec = float_of_int txns /. elapsed;
    fsyncs;
    fsyncs_per_commit = float_of_int fsyncs /. float_of_int txns;
    p50_us = us (Hdd_benchkit.Macro.percentile lat 50);
    p99_us = us (Hdd_benchkit.Macro.percentile lat 99) }

let knob_grid =
  [ None;
    Some { Group_commit.max_batch = 1; max_delay = 0 };
    Some { Group_commit.max_batch = 2; max_delay = 4 };
    Some { Group_commit.max_batch = 4; max_delay = 8 };
    Some { Group_commit.max_batch = 8; max_delay = 16 };
    Some { Group_commit.max_batch = 16; max_delay = 32 };
    Some { Group_commit.max_batch = 32; max_delay = 64 } ]

let cell_json c =
  J.Obj
    [ ("max_batch", J.num_of_int c.max_batch);
      ("max_delay", J.num_of_int c.max_delay);
      ("txns_per_sec", J.Num c.txns_per_sec);
      ("fsyncs", J.num_of_int c.fsyncs);
      ("fsyncs_per_commit", J.Num c.fsyncs_per_commit);
      ("ack_p50_us", J.Num c.p50_us);
      ("ack_p99_us", J.Num c.p99_us) ]

(* --- recovery: O(tail), not O(history) --- *)

(* Build a log of [txns] commits, checkpointing every [ckpt_every]
   commits (never, when 0), and time both recovery paths over it. *)
let recovery_case ~dir ~txns ~ckpt_every =
  let path = Filename.concat dir "hdd_dbench_recover.log" in
  scrub path;
  let db = Durable.create ~path ~partition:(partition ()) () in
  for i = 1 to txns do
    let cls = i mod 3 in
    let t = Durable.begin_update db ~class_id:cls in
    (match
       Durable.write db t (Granule.make ~segment:cls ~key:(i mod 8)) i
     with
    | Outcome.Granted () -> ()
    | Outcome.Blocked _ | Outcome.Rejected _ -> ());
    Durable.commit db t;
    if ckpt_every > 0 && i mod ckpt_every = 0 then
      ignore (Durable.checkpoint db)
  done;
  Durable.close db;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let recover_ms, r =
    let dt, r =
      time (fun () ->
          Durable.recover ~path ~segments:3 ~init:(fun _ -> 0) ())
    in
    (dt *. 1e3, r)
  in
  let replay_ms, _ =
    let dt, r =
      time (fun () ->
          Durable.recover ~use_checkpoints:false ~path ~segments:3
            ~init:(fun _ -> 0) ())
    in
    (dt *. 1e3, r)
  in
  let tail_bytes =
    match r.Durable.from_checkpoint with
    | Some m -> r.Durable.valid_bytes - m.Checkpoint.log_offset
    | None -> r.Durable.valid_bytes
  in
  scrub path;
  (recover_ms, replay_ms, tail_bytes)

let run ?(quick = false) ?(dir = Filename.get_temp_dir_name ()) () =
  let txns = if quick then 600 else 4000 in
  let cells = List.map (fun knob -> commit_cell ~dir ~txns ~knob) knob_grid in
  let find_cell b =
    List.find (fun c -> c.max_batch = b) cells
  in
  let direct = List.find (fun c -> c.max_batch = 0) cells in
  let at8 = find_cell 8 in
  (* the headline the nightly gates on: an 8-deep batch window must cut
     fsyncs per commit at least 4x against sync-per-commit *)
  let fsync_reduction_at_8 =
    if at8.fsyncs_per_commit > 0. then
      direct.fsyncs_per_commit /. at8.fsyncs_per_commit
    else infinity
  in
  (* recovery flatness: same checkpoint cadence, growing history — the
     manifest path must not grow with the history, only with the tail *)
  let histories =
    if quick then [ 400; 800; 1600 ] else [ 2000; 4000; 8000 ]
  in
  let cadence = if quick then 128 else 512 in
  let flat_cases =
    List.map
      (fun h ->
        let recover_ms, replay_ms, tail_bytes =
          recovery_case ~dir ~txns:h ~ckpt_every:cadence
        in
        (h, recover_ms, replay_ms, tail_bytes))
      histories
  in
  let recovery_tail_flatness =
    match (flat_cases, List.rev flat_cases) with
    | (_, first_ms, _, _) :: _, (_, last_ms, _, _) :: _ when first_ms > 0. ->
      last_ms /. first_ms
    | _ -> nan
  in
  (* recovery time against the checkpoint interval at fixed history *)
  let intervals = if quick then [ 0; 64; 256 ] else [ 0; 128; 512; 2048 ] in
  let interval_cases =
    List.map
      (fun k ->
        let h = if quick then 1600 else 8000 in
        let recover_ms, replay_ms, tail_bytes =
          recovery_case ~dir ~txns:h ~ckpt_every:k
        in
        (k, recover_ms, replay_ms, tail_bytes))
      intervals
  in
  J.with_schema
    [ ("quick", J.Bool quick);
      ( "group_commit",
        J.Obj
          [ ("txns", J.num_of_int txns);
            ("grid", J.List (List.map cell_json cells));
            ("fsync_reduction_at_8", J.Num fsync_reduction_at_8) ] );
      ( "recovery",
        J.Obj
          [ ("checkpoint_cadence", J.num_of_int cadence);
            ( "by_history",
              J.List
                (List.map
                   (fun (h, recover_ms, replay_ms, tail_bytes) ->
                     J.Obj
                       [ ("history_txns", J.num_of_int h);
                         ("recover_ms", J.Num recover_ms);
                         ("full_replay_ms", J.Num replay_ms);
                         ("tail_bytes", J.num_of_int tail_bytes) ])
                   flat_cases) );
            ("recovery_tail_flatness", J.Num recovery_tail_flatness);
            ( "by_interval",
              J.List
                (List.map
                   (fun (k, recover_ms, replay_ms, tail_bytes) ->
                     J.Obj
                       [ ("checkpoint_every", J.num_of_int k);
                         ("recover_ms", J.Num recover_ms);
                         ("full_replay_ms", J.Num replay_ms);
                         ("tail_bytes", J.num_of_int tail_bytes) ])
                   interval_cases) ) ] ) ]

(* Structural gates: shape truths any healthy engine satisfies at any
   machine speed — the per-push CI check.  Magnitude regressions are the
   nightly baseline's job. *)
let gates report =
  let num keys = J.num_at keys report in
  let problems = ref [] in
  let check cond msg = if not cond then problems := msg :: !problems in
  let reduction = num [ "group_commit"; "fsync_reduction_at_8" ] in
  check
    (reduction >= 4.)
    (Printf.sprintf
       "fsync_reduction_at_8 = %.2f: an 8-deep batch window must cut \
        fsyncs/commit at least 4x"
       reduction);
  let flatness = num [ "recovery"; "recovery_tail_flatness" ] in
  check
    (Float.is_finite flatness && flatness < 4.)
    (Printf.sprintf
       "recovery_tail_flatness = %.2f: checkpointed recovery time grew \
        with history length (should track the tail)"
       flatness);
  List.rev !problems

let grid report =
  match J.path [ "group_commit"; "grid" ] report with
  | Some (J.List cells) -> cells
  | _ -> []

let tracked report =
  List.concat_map
    (fun c ->
      let b = J.num_at [ "max_batch" ] c and d = J.num_at [ "max_delay" ] c in
      if List.mem (b, d) [ (0., 0.); (8., 16.); (32., 64.) ] then
        List.map
          (fun (m, v) ->
            (Printf.sprintf "%s at batch=%.0f delay=%.0f" m b d, v))
          (Hdd_benchkit.Baseline.metrics [ [ "txns_per_sec" ] ] c)
      else [])
    (grid report)

let pp ppf report =
  let num keys = J.num_at keys report in
  Format.fprintf ppf
    "group commit: fsync reduction at batch=8: %.1fx; recovery tail \
     flatness: %.2f@."
    (num [ "group_commit"; "fsync_reduction_at_8" ])
    (num [ "recovery"; "recovery_tail_flatness" ]);
  List.iter
    (fun c ->
      let n keys = J.num_at keys c in
      Format.fprintf ppf
        "  batch=%2.0f delay=%2.0f: %8.0f txns/sec, %.3f fsyncs/commit, ack \
         p50 %.0fus p99 %.0fus@."
        (n [ "max_batch" ]) (n [ "max_delay" ]) (n [ "txns_per_sec" ])
        (n [ "fsyncs_per_commit" ])
        (n [ "ack_p50_us" ]) (n [ "ack_p99_us" ]))
    (grid report)

module Partition = Hdd_core.Partition
module Scheduler = Hdd_core.Scheduler
module Oracle = Hdd_core.Oracle
module Outcome = Hdd_core.Outcome
module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
module Achain = Hdd_mvstore.Achain
module Segment = Hdd_mvstore.Segment
module Prng = Hdd_util.Prng

type config = {
  txns : int;
  concurrency : int;
  keys_per_segment : int;
  max_writes : int;
  read_fraction : float;
  corruption_probability : float;
  transient_probability : float;
  second_fault_probability : float;
  checkpoint_probability : float;
  ship_probability : float;
}

let default_config =
  { txns = 12; concurrency = 3; keys_per_segment = 4; max_writes = 3;
    read_fraction = 0.4; corruption_probability = 0.25;
    transient_probability = 0.3; second_fault_probability = 0.5;
    checkpoint_probability = 0.06; ship_probability = 0.12 }

(* The group-commit knob grid a cycle draws from: off (direct
   sync-on-commit), flush-per-commit, and widening batch windows. *)
let group_grid : Group_commit.config option array =
  [| None;
     Some { Group_commit.max_batch = 1; max_delay = 0 };
     Some { Group_commit.max_batch = 2; max_delay = 4 };
     Some { Group_commit.max_batch = 4; max_delay = 8 };
     Some { Group_commit.max_batch = 8; max_delay = 16 };
     Some { Group_commit.max_batch = 16; max_delay = 32 } |]

type outcome = {
  seed : int;
  crashed : bool;
  fired : Fault.event list;
  reached : Fault.point list;
  acknowledged : int;
  recovered_committed : int;
  log_intact : bool;
  violations : string list;
}

type report = {
  cycles : int;
  crashes : int;
  corruptions : int;
  acknowledged : int;
  recovered : int;
  reached_kinds : (string * int) list;
  violating : outcome list;
}

(* --- fault-plan generation --- *)

(* A random logical fault point, with indexes tight enough that most
   land on operations the phase actually performs. *)
let gen_point rng =
  match Prng.int rng 9 with
  | 0 -> Fault.Batch_append { batch = 1 + Prng.int rng 6; frame = Prng.int rng 4 }
  | 1 -> Fault.Batch_fsync (1 + Prng.int rng 8)
  | 2 -> Fault.Batch_ack (1 + Prng.int rng 8)
  | 3 -> Fault.Checkpoint_write (1 + Prng.int rng 3)
  | 4 -> Fault.Checkpoint_rename (1 + Prng.int rng 3)
  | 5 -> Fault.Manifest_write (1 + Prng.int rng 3)
  | 6 -> Fault.Manifest_rename (1 + Prng.int rng 3)
  | 7 -> Fault.Ship_send (1 + Prng.int rng 6)
  | _ -> Fault.Ship_apply (1 + Prng.int rng 6)

(* A checkpoint-file write point — the only points where torn and
   corrupt whole-file writes can fire. *)
let gen_file_point rng =
  let seq = 1 + Prng.int rng 3 in
  if Prng.bool rng then Fault.Checkpoint_write seq else Fault.Manifest_write seq

(* Rough per-phase log sizes, for placing byte/frame fault points: a
   transaction logs one Begin (33 bytes), up to [max_writes] Writes
   (49 bytes each) and one Commit or Abort (25 bytes).  Points beyond
   the actual log simply never fire, which gives clean-shutdown cycles
   for free. *)
let gen_plan rng (c : config) =
  let est_frames = c.txns * (2 + c.max_writes) in
  let est_bytes = est_frames * 44 in
  let events = ref [] in
  (match Prng.int rng 6 with
  | 0 -> events := [ Fault.Crash_after_frames (1 + Prng.int rng est_frames) ]
  | 1 -> events := [ Fault.Crash_after_bytes (1 + Prng.int rng est_bytes) ]
  | 2 ->
    events :=
      [ Fault.Torn_write
          { frame = Prng.int rng est_frames; keep = Prng.int rng 48 } ]
  | 3 | 4 -> events := [ Fault.Crash_at (gen_point rng) ]
  | _ -> () (* no scripted crash: the phase may reach a clean shutdown *));
  if Prng.float rng 1.0 < c.corruption_probability then
    events :=
      (match Prng.int rng 3 with
      | 0 ->
        Fault.Bit_flip { byte = Prng.int rng est_bytes; bit = Prng.int rng 8 }
      | 1 ->
        Fault.Torn_at { point = gen_file_point rng; keep = Prng.int rng 64 }
      | _ ->
        Fault.Corrupt_at
          { point = gen_file_point rng; byte = Prng.int rng 256;
            bit = Prng.int rng 8 })
      :: !events;
  if Prng.float rng 1.0 < c.transient_probability then
    events :=
      (match Prng.int rng 3 with
      | 0 -> Fault.Append_error { frame = Prng.int rng est_frames }
      | 1 -> Fault.Sync_error { sync = 1 + Prng.int rng c.txns }
      | _ -> Fault.Error_at (gen_point rng))
      :: !events;
  Fault.plan !events

(* --- the seeded workload, driven into the fault plan --- *)

type active = {
  txn : Txn.t;
  class_id : int;
  mutable to_do : int;  (** writes still to perform before finishing *)
  writes : (Granule.t, Time.t * int) Hashtbl.t;  (** last write per granule *)
}

(* One acknowledged commit: the id, its commit time, the absolute log
   offset just past its commit frame (everything the client was promised
   is within it), and the final value written to each granule. *)
type ack = {
  a_txn : Txn.id;
  a_at : Time.t;
  a_offset : int;
  a_writes : (Granule.t * Time.t * int) list;
}

type phase = {
  acked : ack list;
  pendings : (Txn.id * (Granule.t * Time.t * int) list) list;
      (** commits attempted or queued but never acknowledged:
          durability unknown *)
  phase_crashed : bool;
}

let run_phase db rng (c : config) ~partition ~shipper =
  let n_classes = Partition.segment_count partition in
  let readable =
    Array.init n_classes (fun cls ->
        List.init n_classes Fun.id
        |> List.filter (fun seg ->
               Partition.may_read partition ~class_id:cls ~segment:seg)
        |> Array.of_list)
  in
  let active = ref [] in
  let started = ref 0 in
  let acked = ref [] in
  (* group tickets awaiting their durability ack *)
  let waiting : (Durable.ticket * Txn.id * Time.t
                 * (Granule.t * Time.t * int) list) list ref = ref [] in
  let pendings = ref [] in
  let crashed = ref false in
  let poisoned = ref false in
  let snapshot_writes a =
    Hashtbl.fold (fun g (ts, v) l -> (g, ts, v) :: l) a.writes []
  in
  let remove a = active := List.filter (fun x -> x != a) !active in
  let drain_acks () =
    waiting :=
      List.filter
        (fun (tk, txn, at, ws) ->
          if Durable.acked db tk then begin
            acked :=
              { a_txn = txn; a_at = at;
                a_offset = Option.value ~default:0 (Durable.ack_offset db tk);
                a_writes = ws }
              :: !acked;
            false
          end
          else true)
        !waiting
  in
  let abort_active a =
    remove a;
    match Durable.abort db a.txn with
    | () -> ()
    | exception Fault.Io_error _ ->
      () (* the abort record is lost; recovery sees an in-flight txn *)
    | exception Fault.Crash _ -> crashed := true
  in
  let try_checkpoint () =
    match Durable.checkpoint db with
    | _ -> ()
    | exception Fault.Io_error _ -> () (* the checkpoint didn't happen *)
    | exception Fault.Crash _ -> crashed := true
  in
  let try_ship () =
    (* the wall first, the durability barrier second: commits below a
       released wall must be inside the shipped prefix, and only a sync
       completed after the release can promise that *)
    let wall = Scheduler.gc_watermark_vector (Durable.scheduler db) in
    match Durable.sync db with
    | () ->
      if Durable.durable_offset db >= Durable.log_offset db then begin
        match
          Replica.ship shipper ~upto:(Durable.durable_offset db) ~wall
        with
        | Ok () | Error _ -> () (* give-up: cursor unmoved, resend later *)
        | exception Fault.Crash _ -> crashed := true
      end
    | exception Fault.Io_error _ -> () (* not durable: don't ship the wall *)
    | exception Fault.Crash _ -> crashed := true
  in
  (try
     while
       (!started < c.txns || !active <> [])
       && (not !crashed) && not !poisoned
     do
       if Prng.float rng 1.0 < c.checkpoint_probability then try_checkpoint ();
       if (not !crashed) && Prng.float rng 1.0 < c.ship_probability then
         try_ship ();
       if !crashed then ()
       else begin
         let want_new =
           !started < c.txns
           && List.length !active < c.concurrency
           && (!active = [] || Prng.int rng 3 = 0)
         in
         if want_new then begin
           incr started;
           let class_id = Prng.int rng n_classes in
           match Durable.begin_update db ~class_id with
           | txn ->
             active :=
               { txn; class_id; to_do = 1 + Prng.int rng c.max_writes;
                 writes = Hashtbl.create 4 }
               :: !active
           | exception Fault.Io_error _ -> () (* the begin never happened *)
         end
         else begin
           let a = List.nth !active (Prng.int rng (List.length !active)) in
           if a.to_do <= 0 then begin
             if Prng.int rng 8 = 0 then abort_active a
             else begin
               remove a;
               match Durable.commit_ticket db a.txn with
               | tk ->
                 let at =
                   Option.value ~default:Time.zero (Txn.end_time a.txn)
                 in
                 waiting := (tk, a.txn.Txn.id, at, snapshot_writes a) :: !waiting;
                 drain_acks ()
               | exception Fault.Io_error _ ->
                 (* direct mode: maybe durable, never acknowledged; the
                    handle is poisoned *)
                 pendings := (a.txn.Txn.id, snapshot_writes a) :: !pendings;
                 poisoned := true
               | exception Fault.Crash _ ->
                 (* the crash may have fired just after the commit frame
                    was written: durable but unacknowledged *)
                 pendings := (a.txn.Txn.id, snapshot_writes a) :: !pendings;
                 crashed := true
             end
           end
           else if Prng.float rng 1.0 < c.read_fraction then begin
             let segs = readable.(a.class_id) in
             if Array.length segs > 0 then
               let g =
                 Granule.make ~segment:(Prng.pick rng segs)
                   ~key:(Prng.int rng c.keys_per_segment)
               in
               match Durable.read db a.txn g with
               | Outcome.Granted _ -> ()
               | Outcome.Blocked _ | Outcome.Rejected _ -> abort_active a
           end
           else begin
             let g =
               Granule.make ~segment:a.class_id
                 ~key:(Prng.int rng c.keys_per_segment)
             in
             let v = Prng.int rng 1_000_000 in
             match Durable.write db a.txn g v with
             | Outcome.Granted () ->
               Hashtbl.replace a.writes g (a.txn.Txn.init, v);
               a.to_do <- a.to_do - 1
             | Outcome.Blocked _ | Outcome.Rejected _ -> abort_active a
             | exception Fault.Io_error _ ->
               (* granted in memory, lost on disk: Durable's contract says
                  abort, or recovery could under-replay this txn *)
               abort_active a
           end
         end
       end
     done;
     (* clean end of phase: drain the pipeline so queued commits ack,
        and give the replica one final batch *)
     if (not !crashed) && not !poisoned then begin
       (try Durable.flush db
        with Fault.Io_error _ -> () | Fault.Crash _ -> crashed := true);
       if not !crashed then try_ship ()
     end
   with Fault.Crash _ -> crashed := true);
  drain_acks ();
  (* whatever never acked has unknown durability *)
  List.iter
    (fun (_, txn, _, ws) -> pendings := (txn, ws) :: !pendings)
    !waiting;
  (try Durable.close db
   with Fault.Crash _ | Fault.Io_error _ | Sys_error _ -> ());
  { acked = !acked; pendings = !pendings; phase_crashed = !crashed }

(* --- invariants --- *)

(* Rebuild the committed write schedule from a log, replaying sessions
   the way recovery does: a Begin opens a fresh incarnation of its txn id
   (ids recur across sessions), writes buffer, a Commit emits the
   surviving (last-per-granule) writes in commit order. *)
let committed_write_log records =
  let log = Sched_log.create () in
  let session : (Txn.id, int) Hashtbl.t = Hashtbl.create 32 in
  let buf : (int, (Granule.t * Time.t) list) Hashtbl.t = Hashtbl.create 32 in
  let next = ref 1 in
  let incarnation txn =
    match Hashtbl.find_opt session txn with
    | Some s -> s
    | None ->
      let s = !next in
      incr next;
      Hashtbl.replace session txn s;
      s
  in
  List.iter
    (fun (r : Codec.record) ->
      match r with
      | Codec.Begin { txn; _ } ->
        let s = !next in
        incr next;
        Hashtbl.replace session txn s;
        Hashtbl.replace buf s []
      | Codec.Write { txn; granule; ts; _ } ->
        let s = incarnation txn in
        let prior =
          match Hashtbl.find_opt buf s with Some l -> l | None -> []
        in
        (* last write of a granule wins, as in recovery replay *)
        Hashtbl.replace buf s
          ((granule, ts) :: List.filter (fun (g, _) -> g <> granule) prior)
      | Codec.Commit { txn; _ } ->
        let s = incarnation txn in
        (match Hashtbl.find_opt buf s with
        | Some writes ->
          List.iter
            (fun (g, ts) -> Sched_log.log_write log ~txn:s ~granule:g ~version:ts)
            (List.rev writes);
          Hashtbl.remove buf s
        | None -> ());
        Hashtbl.remove session txn
      | Codec.Abort { txn; _ } -> (
        match Hashtbl.find_opt session txn with
        | Some s ->
          Hashtbl.remove buf s;
          Hashtbl.remove session txn
        | None -> ())
      | Codec.Wall _ -> () (* never in the WAL; ship trailers only *))
    records;
  log

let check_recovery add ~label (r : Durable.recovered) ~visible ~allowed =
  (* invariant 1: every acknowledged commit within the intact prefix is
     present, with exactly the values it wrote *)
  List.iter
    (fun ack ->
      List.iter
        (fun (g, ts, v) ->
          match Store.committed_before r.Durable.store g ~ts:(ts + 1) with
          | Some ver when ver.Chain.ts = ts && ver.Chain.value = v -> ()
          | Some ver ->
            add
              (Printf.sprintf
                 "%s: acked txn %d wrote %s ts %d value %d; recovered ts %d \
                  value %d"
                 label ack.a_txn
                 (Format.asprintf "%a" Granule.pp g)
                 ts v ver.Chain.ts ver.Chain.value)
          | None ->
            add
              (Printf.sprintf "%s: acked txn %d write to %s ts %d lost" label
                 ack.a_txn
                 (Format.asprintf "%a" Granule.pp g)
                 ts))
        ack.a_writes)
    visible;
  (* invariants 2 and 3: nothing uncommitted resurrected, no pending
     version, and last_time dominates every recovered timestamp *)
  for seg = 0 to Store.segment_count r.Durable.store - 1 do
    let s = Store.segment r.Durable.store seg in
    List.iter
      (fun key ->
        let g = Granule.make ~segment:seg ~key in
        List.iter
          (fun (ver : int Chain.version) ->
            if ver.Chain.ts > Time.zero then begin
              if ver.Chain.ts > r.Durable.last_time then
                add
                  (Printf.sprintf
                     "%s: version %s ts %d beyond last_time %d" label
                     (Format.asprintf "%a" Granule.pp g)
                     ver.Chain.ts r.Durable.last_time);
              if ver.Chain.state <> Chain.Committed then
                add
                  (Printf.sprintf "%s: pending version survived at %s ts %d"
                     label
                     (Format.asprintf "%a" Granule.pp g)
                     ver.Chain.ts);
              match Hashtbl.find_all allowed (g, ver.Chain.ts) with
              | [] ->
                add
                  (Printf.sprintf
                     "%s: uncommitted write resurrected at %s ts %d value %d"
                     label
                     (Format.asprintf "%a" Granule.pp g)
                     ver.Chain.ts ver.Chain.value)
              | vs when List.mem ver.Chain.value vs -> ()
              | v :: _ ->
                add
                  (Printf.sprintf
                     "%s: version %s ts %d recovered value %d, written %d"
                     label
                     (Format.asprintf "%a" Granule.pp g)
                     ver.Chain.ts ver.Chain.value v)
            end)
          (Achain.versions (Segment.chain s key)))
      (Segment.keys s)
  done

(* Multi-valued: a pending commit whose frames were truncated never
   reached the disk, so its timestamps are legitimately reused by the
   resumed clock — one (granule, ts) key can have two permissible
   writers across the two phases. *)
let allowed_table visible pendings =
  let allowed : (Granule.t * Time.t, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ack ->
      List.iter (fun (g, ts, v) -> Hashtbl.add allowed (g, ts) v)
        ack.a_writes)
    visible;
  List.iter
    (fun (_, writes) ->
      List.iter (fun (g, ts, v) -> Hashtbl.add allowed (g, ts) v) writes)
    pendings;
  allowed

let flipped plan =
  List.exists
    (function Fault.Bit_flip _ -> true | _ -> false)
    (Fault.fired plan)

(* Checkpoint equivalence: recovery through the manifest must land on
   exactly the wall-cut of the full-log replay — load(ckpt) + replay
   (tail) = cut(replay(log), wall) — and its clock must dominate. *)
let check_equivalence add ~label (r : Durable.recovered)
    (oracle : Durable.recovered) =
  (match r.Durable.from_checkpoint with
  | None ->
    if Store.dump r.Durable.store <> Store.dump oracle.Durable.store then
      add (label ^ ": full-replay recovery differs from the oracle replay")
  | Some m ->
    if
      Store.dump r.Durable.store
      <> Store.trim_dump ~wall:m.Checkpoint.wall
           (Store.dump oracle.Durable.store)
    then
      add
        (Printf.sprintf
           "%s: checkpoint %d + tail differs from the wall-cut full replay"
           label m.Checkpoint.seq));
  if r.Durable.last_time < oracle.Durable.last_time then
    add
      (Printf.sprintf "%s: recovered clock %d behind the oracle's %d" label
         r.Durable.last_time oracle.Durable.last_time)

(* Replica consistency: at every granule, a replica read at its
   effective wall equals the primary's Protocol A/C read there — and the
   primary's final state is the full-replay oracle. *)
let check_replica add replica (oracle : Durable.recovered)
    ~keys_per_segment =
  if (not (Replica.stalled replica)) && Array.length (Replica.wall replica) > 0
  then begin
    let w = Replica.effective_wall replica in
    Array.iteri
      (fun seg ts ->
        if ts > Time.zero then
          for key = 0 to keys_per_segment - 1 do
            let g = Granule.make ~segment:seg ~key in
            let expected =
              match Store.committed_before oracle.Durable.store g ~ts with
              | Some ver -> ver.Chain.value
              | None -> 0
            in
            match Replica.read replica g ~ts with
            | Ok v when v = expected -> ()
            | Ok v ->
              add
                (Printf.sprintf
                   "replica: read %s at %d returned %d, primary has %d"
                   (Format.asprintf "%a" Granule.pp g)
                   ts v expected)
            | Error _ ->
              add
                (Printf.sprintf
                   "replica: read %s at %d refused below the effective wall"
                   (Format.asprintf "%a" Granule.pp g)
                   ts)
          done)
      w
  end

(* An oracle asked once: per phase (its monitor must not outlive the
   phase, as txn ids recur across sessions) or, with [durability_only],
   across phases, fed only on flip-free cycles (silent corruption may
   destroy acked frames).  Its monitor watches a trace of its own when
   [monitors] is on and never raises: violations join the list. *)
let watch ?durability_only monitors =
  let oracle = Oracle.create ?durability_only ~raise_on_violation:false () in
  let trace =
    if not monitors then None
    else begin
      let trace = Hdd_obs.Trace.create () in
      Oracle.attach oracle trace;
      Some trace
    end
  in
  (trace, fun ?log () -> Oracle.check ?log oracle ~records:[] ~outcomes:[])

let judge add ~label r =
  if Oracle.witnesses r Oracle.Mvsg_certification <> [] then
    add (label ^ ": live schedule not serializable");
  List.iter
    (fun v -> add (Printf.sprintf "monitor %s: %s" label v))
    (Oracle.witnesses r Oracle.Monitor_replay)

(* The committed schedule a recovery replays from the log certifies. *)
let recovered_serializable path =
  Oracle.ok
    (Oracle.check
       ~log:(committed_write_log (Wal.read_all ~path).Wal.records)
       (Oracle.create ()) ~records:[] ~outcomes:[])

let emit_acks dtrace acked =
  match dtrace with
  | None -> ()
  | Some tr ->
    List.iter
      (fun a ->
        Hdd_obs.Trace.emit tr ~at:a.a_at
          (Hdd_obs.Trace.Durable_ack { txn = a.a_txn; at = a.a_at }))
      acked

(* Remove the log and every checkpoint artifact beside it. *)
let clean_slate path =
  if Sys.file_exists path then Sys.remove path;
  let dir = Filename.dirname path and base = Filename.basename path in
  Array.iter
    (fun f ->
      if
        String.length f > String.length base
        && String.sub f 0 (String.length base) = base
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let run_cycle ?(config = default_config) ?(monitors = false) ~partition ~path
    ~seed () =
  clean_slate path;
  let rng = Prng.create seed in
  let segments = Partition.segment_count partition in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let group = group_grid.(Prng.int rng (Array.length group_grid)) in
  let replica = Replica.create ~segments ~init:(fun _ -> 0) () in
  let dtrace, durability = watch ~durability_only:true monitors in
  (* phase 1: run into the fault *)
  let plan1 = gen_plan rng config in
  let log1 = Sched_log.create () in
  let trace1, phase1 = watch monitors in
  let shipper1 = Replica.shipper ~faults:plan1 ~log:path replica in
  let db1 =
    Durable.create ~sync_on_commit:(group = None)
      ~sink:(Fault.apply plan1 (Fault.file_sink ~fsync:false ~path ()))
      ?group ~faults:plan1 ~log:log1 ?trace:trace1 ~path ~partition ()
  in
  let p1 = run_phase db1 rng config ~partition ~shipper:shipper1 in
  judge add ~label:"phase 1" (phase1 ~log:log1 ());
  (* first recovery: the production path (checkpoint + tail) continues
     the database; the full-replay oracle checks the invariants *)
  let flipped1 = flipped plan1 in
  let r1 = Durable.recover ~path ~segments ~init:(fun _ -> 0) () in
  if not flipped1 then emit_acks dtrace p1.acked;
  let r1_full =
    Durable.recover
      ?trace:(if flipped1 then None else dtrace)
      ~use_checkpoints:false ~path ~segments ~init:(fun _ -> 0) ()
  in
  let visible1 =
    List.filter (fun a -> a.a_offset <= r1_full.Durable.valid_bytes) p1.acked
  in
  if not flipped1 then
    List.iter
      (fun a ->
        if a.a_offset > r1_full.Durable.valid_bytes then
          add
            (Printf.sprintf
               "recovery 1: acked txn %d (log offset %d > intact %d) lost \
                without corruption"
               a.a_txn a.a_offset r1_full.Durable.valid_bytes))
      p1.acked;
  check_recovery add ~label:"recovery 1" r1_full ~visible:visible1
    ~allowed:(allowed_table visible1 p1.pendings);
  if not flipped1 then check_equivalence add ~label:"recovery 1" r1 r1_full;
  if not (recovered_serializable path) then
    add "recovery 1: recovered committed schedule not serializable";
  (* phase 2: continue on the recovered database, maybe into a new fault *)
  let plan2 =
    if Prng.float rng 1.0 < config.second_fault_probability then
      gen_plan rng config
    else Fault.plan []
  in
  let log2 = Sched_log.create () in
  let trace2, phase2 = watch monitors in
  let shipper2 =
    Replica.shipper ~faults:plan2 ~from:(Replica.shipped shipper1) ~log:path
      replica
  in
  let db2 =
    Durable.of_recovery ~sync_on_commit:(group = None)
      ~sink:(Fault.apply plan2 (Fault.file_sink ~fsync:false ~path ()))
      ?group ~faults:plan2 ~log:log2 ?trace:trace2 ~path ~partition r1
  in
  let p2 = run_phase db2 rng config ~partition ~shipper:shipper2 in
  judge add ~label:"phase 2" (phase2 ~log:log2 ());
  (* final recovery over the full log *)
  let flipped2 = flipped plan2 in
  let clean = (not flipped1) && not flipped2 in
  let r2 = Durable.recover ~path ~segments ~init:(fun _ -> 0) () in
  if clean then emit_acks dtrace p2.acked;
  let r2_full =
    Durable.recover
      ?trace:(if clean then dtrace else None)
      ~use_checkpoints:false ~path ~segments ~init:(fun _ -> 0) ()
  in
  if r2_full.Durable.valid_bytes < r1_full.Durable.valid_bytes then
    add
      (Printf.sprintf
         "recovery 2: intact prefix shrank (%d < %d): phase 1 state damaged"
         r2_full.Durable.valid_bytes r1_full.Durable.valid_bytes);
  let visible2 =
    List.filter (fun a -> a.a_offset <= r2_full.Durable.valid_bytes) p2.acked
  in
  if clean then
    List.iter
      (fun a ->
        if a.a_offset > r2_full.Durable.valid_bytes then
          add
            (Printf.sprintf
               "recovery 2: acked txn %d (log offset %d > intact %d) lost \
                without corruption"
               a.a_txn a.a_offset r2_full.Durable.valid_bytes))
      p2.acked;
  let visible = visible1 @ visible2 in
  let pendings = p1.pendings @ p2.pendings in
  check_recovery add ~label:"recovery 2" r2_full ~visible
    ~allowed:(allowed_table visible pendings);
  if clean then check_equivalence add ~label:"recovery 2" r2 r2_full;
  if clean then
    check_replica add replica r2_full
      ~keys_per_segment:config.keys_per_segment;
  if clean then
    List.iter
      (fun v -> add ("durability monitor: " ^ v))
      (Oracle.witnesses (durability ()) Oracle.Monitor_replay);
  if not (recovered_serializable path) then
    add "recovery 2: recovered committed schedule not serializable";
  { seed;
    crashed = p1.phase_crashed || p2.phase_crashed;
    fired = Fault.fired plan2 @ Fault.fired plan1;
    reached = Fault.reached plan2 @ Fault.reached plan1;
    acknowledged = List.length p1.acked + List.length p2.acked;
    recovered_committed = r2_full.Durable.committed;
    log_intact = r2_full.Durable.log_intact;
    violations = List.rev !violations }

let run ?(config = default_config) ?(monitors = false) ?(first_seed = 0)
    ~partition ~path ~seeds () =
  let outcomes =
    List.init seeds (fun i ->
        run_cycle ~config ~monitors ~partition ~path ~seed:(first_seed + i) ())
  in
  clean_slate path;
  let reached_kinds =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (o : outcome) ->
        List.iter
          (fun p ->
            let k = Fault.kind p in
            Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
          o.reached)
      outcomes;
    List.filter_map
      (fun k -> Option.map (fun n -> (k, n)) (Hashtbl.find_opt tbl k))
      Fault.kinds
  in
  { cycles = seeds;
    crashes =
      List.length (List.filter (fun (o : outcome) -> o.crashed) outcomes);
    corruptions =
      List.length
        (List.filter
           (fun (o : outcome) ->
             List.exists
               (function Fault.Bit_flip _ -> true | _ -> false)
               o.fired)
           outcomes);
    acknowledged =
      List.fold_left (fun n (o : outcome) -> n + o.acknowledged) 0 outcomes;
    recovered =
      List.fold_left
        (fun n (o : outcome) -> n + o.recovered_committed)
        0 outcomes;
    reached_kinds;
    violating =
      List.filter (fun (o : outcome) -> o.violations <> []) outcomes }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>torture: %d cycles (%d crashed, %d corrupted), %d commits \
     acknowledged, %d recovered, %d violating seed(s)@,\
     fault points reached: %a%a@]"
    r.cycles r.crashes r.corruptions r.acknowledged r.recovered
    (List.length r.violating)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (k, n) -> Format.fprintf ppf "%s=%d" k n))
    r.reached_kinds
    (fun ppf -> function
      | [] -> ()
      | vs ->
        List.iter
          (fun o ->
            Format.fprintf ppf "@,  seed %d:" o.seed;
            List.iter (fun v -> Format.fprintf ppf "@,    %s" v) o.violations)
          vs)
    r.violating

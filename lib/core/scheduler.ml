module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
module Trace = Hdd_obs.Trace

open Outcome

type metrics = Hdd_obs.Counters.t = {
  mutable begins : int;
  mutable committed : int;
  mutable aborted : int;
  mutable reads_a : int;
  mutable reads_b : int;
  mutable reads_c : int;
  mutable writes : int;
  mutable read_registrations : int;
  mutable blocks : int;
  mutable rejects : int;
  mutable publications : int;
  mutable stale_waits : int;
  mutable wall_releases : int;
  mutable wall_lag_sum : int;
  mutable wall_lag_max : int;
  mutable repartitions : int;
  mutable escalations : int;
}

type mode =
  | Classed  (** regular update transaction; class taken from the record *)
  | Walled of Timewall.wall  (** ad-hoc read-only, protocol C *)
  | Hosted of int  (** read-only hosted below this class, §5.0 *)
  | Adhoc of { wsegs : int list; rsegs : int list }
      (** ad-hoc update transaction (§7.1.1): joins every class it
          accesses and runs MVTO (protocol B) on all of them *)

type 'a txn_state = {
  txn : Txn.t;
  mutable written : (Granule.t * 'a Chain.version) list;
      (** granules with a pending version, each with the handle
          {!Store.install} returned so commit and abort flip or drop the
          version in O(1) instead of re-finding it by timestamp *)
  mode : mode;
  mutable thresholds : (int * Time.t) list;
      (** memoised activity-link thresholds per segment: they depend only
          on registry history at times <= I(t), which never changes *)
}

type 'a t = {
  partition : Partition.t;
  ctx : Activity.ctx;
  reg : Registry.t;
  clock : Time.Clock.clock;
  store : 'a Store.t;
  log : Sched_log.t option;
  trace : Trace.t option;
  walls : Timewall.manager;
  states : (Txn.id, 'a txn_state) Hashtbl.t;
  m : metrics;
  wall_every_commits : int;
  gc_every_commits : int option;
  gc_on_wall : bool;
  mutable commits_since_gc : int;
  mutable commits_since_wall : int;
  mutable wall_pending : bool;
  mutable next_id : int;
  mutable adhoc_history : Txn.t list;
      (** ad-hoc update transactions whose activity window may still
          contain the timestamp of a live transaction *)
}

let create ?log ?trace ?(wall_every_commits = 16) ?gc_every_commits
    ?(gc_on_wall = true) ~partition ~clock ~store () =
  let reg = Registry.create ?trace ~classes:(Partition.segment_count partition) () in
  let ctx = Activity.make_ctx partition reg in
  Store.set_trace store trace;
  { partition; ctx; reg; clock; store; log; trace;
    walls = Timewall.create ?trace ctx ~clock;
    states = Hashtbl.create 64;
    m = Hdd_obs.Counters.create ();
    wall_every_commits;
    gc_every_commits;
    gc_on_wall;
    commits_since_gc = 0;
    commits_since_wall = 0;
    wall_pending = false;
    next_id = 1;
    adhoc_history = [] }

let partition t = t.partition
let activity_ctx t = t.ctx
let registry t = t.reg
let metrics t = t.m
let wall_manager t = t.walls

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let state_of t (txn : Txn.t) =
  match Hashtbl.find_opt t.states txn.Txn.id with
  | Some s -> s
  | None ->
    invalid_arg
      (Printf.sprintf "Scheduler: unknown transaction %d" txn.Txn.id)

(* Emission helpers: explicit option matches, so a disabled run allocates
   nothing and costs one branch per site. *)

let emit_begin t (txn : Txn.t) kind =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr ~at:txn.Txn.init
      (Trace.Begin { txn = txn.Txn.id; kind; init = txn.Txn.init })

let emit_read t (txn : Txn.t) proto (g : Granule.t) ~threshold ~version =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr ~at:(Time.Clock.now t.clock)
      (Trace.Read
         { txn = txn.Txn.id; protocol = proto; segment = g.Granule.segment;
           key = g.Granule.key; threshold; version })

(* Count, trace and build a rejection in one move; [segment] is [-1] when
   no single segment is to blame. *)
let reject t (txn : Txn.t) ?proto ~stage ~segment reason =
  t.m.rejects <- t.m.rejects + 1;
  (match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr ~at:(Time.Clock.now t.clock)
      (Trace.Reject
         { txn = txn.Txn.id; protocol = proto; stage; segment; reason }));
  Rejected reason

let begin_update t ~class_id =
  if class_id < 0 || class_id >= Partition.segment_count t.partition then
    invalid_arg (Printf.sprintf "Scheduler.begin_update: class %d" class_id);
  let txn =
    Txn.make ~id:(fresh_id t) ~kind:(Txn.Update class_id)
      ~init:(Time.Clock.tick t.clock)
  in
  Registry.register t.reg txn;
  Hashtbl.replace t.states txn.Txn.id
    { txn; written = []; mode = Classed; thresholds = [] };
  t.m.begins <- t.m.begins + 1;
  emit_begin t txn (Trace.Update class_id);
  txn

let begin_read_only t =
  let init = Time.Clock.tick t.clock in
  let txn = Txn.make ~id:(fresh_id t) ~kind:Txn.Read_only ~init in
  let wall =
    match Timewall.latest_before t.walls init with
    | Some w -> w
    | None -> Timewall.current t.walls
  in
  Hashtbl.replace t.states txn.Txn.id
    { txn; written = []; mode = Walled wall; thresholds = [] };
  t.m.begins <- t.m.begins + 1;
  emit_begin t txn Trace.Read_only;
  txn

let begin_read_only_on_path t ~below =
  if below < 0 || below >= Partition.segment_count t.partition then
    invalid_arg (Printf.sprintf "Scheduler.begin_read_only_on_path: %d" below);
  let txn =
    Txn.make ~id:(fresh_id t) ~kind:Txn.Read_only
      ~init:(Time.Clock.tick t.clock)
  in
  Hashtbl.replace t.states txn.Txn.id
    { txn; written = []; mode = Hosted below; thresholds = [] };
  t.m.begins <- t.m.begins + 1;
  emit_begin t txn (Trace.Hosted below);
  txn

let begin_adhoc_update t ~writes ~reads =
  let n = Partition.segment_count t.partition in
  let check s =
    if s < 0 || s >= n then
      invalid_arg (Printf.sprintf "Scheduler.begin_adhoc_update: segment %d" s)
  in
  let wsegs = List.sort_uniq compare writes in
  let rsegs = List.sort_uniq compare reads in
  if wsegs = [] then
    invalid_arg "Scheduler.begin_adhoc_update: empty write set";
  List.iter check wsegs;
  List.iter check rsegs;
  let txn =
    Txn.make ~id:(fresh_id t)
      ~kind:(Txn.Update (List.hd wsegs))
      ~init:(Time.Clock.tick t.clock)
  in
  (* join every touched class so all activity-link thresholds account for
     this transaction while it is active *)
  List.iter
    (fun cls -> Registry.register_in t.reg ~class_id:cls txn)
    (List.sort_uniq compare (wsegs @ rsegs));
  Hashtbl.replace t.states txn.Txn.id
    { txn; written = []; mode = Adhoc { wsegs; rsegs }; thresholds = [] };
  t.adhoc_history <- txn :: t.adhoc_history;
  t.m.begins <- t.m.begins + 1;
  emit_begin t txn (Trace.Adhoc { wsegs; rsegs });
  txn

(* The ad-hoc barrier (§7.1.1): an update transaction whose timestamp
   falls inside an ad-hoc transaction's activity window must never
   execute.  Its activity-link thresholds, frozen by I_old at historic
   times, place the ad-hoc transaction in the future, while MVTO
   visibility (pure timestamp order) would place its root-segment
   versions in the past — the two disagree and cycles follow.  Rejecting
   the transaction restarts it with a fresh, post-window timestamp, on
   which both rules agree. *)
let adhoc_barrier t (txn : Txn.t) =
  List.exists
    (fun (a : Txn.t) -> a.Txn.id <> txn.Txn.id && Txn.active_at a txn.Txn.init)
    t.adhoc_history

(* The ad-hoc retention hole (§7.1.1): a class's I_old can sit below an
   ad-hoc transaction [a] long after [a]'s window closed — a straggler
   that began before [a] keeps it there.  A later classed transaction
   [t] composing through that class reads at a threshold at or below
   I(a), so it misses [a]'s writes while MVTO orders [a] before [t];
   if [t] then writes what [a] read, the two form a cycle.  Such a read
   is rejected, and [t] restarts.  With no ad-hoc transaction retained
   the check walks an empty list (and allocates nothing). *)
let rec adhoc_hides (txn : Txn.t) threshold = function
  | [] -> false
  | (a : Txn.t) :: older ->
    (a.Txn.init < txn.Txn.init && threshold <= a.Txn.init)
    || adhoc_hides txn threshold older

(* Threshold of a read of [segment] by a transaction hosted in a
   fictitious class just below [bottom]: compose I_old starting at
   [bottom] itself, then up the critical path to [segment]. *)
let hosted_threshold t ~bottom ~segment m =
  let after_bottom = Activity.i_old t.ctx ~class_id:bottom m in
  if segment = bottom then Some after_bottom
  else if Partition.higher_than t.partition segment bottom then
    Some (Activity.a_fn t.ctx ~from_class:bottom ~to_class:segment after_bottom)
  else None

let read_threshold t (txn : Txn.t) ~segment =
  let st = state_of t txn in
  match st.mode with
  | Walled wall -> Some (Timewall.threshold wall ~class_id:segment)
  | Hosted bottom -> hosted_threshold t ~bottom ~segment txn.Txn.init
  | Adhoc { wsegs; rsegs } ->
    if List.mem segment wsegs || List.mem segment rsegs then
      Some txn.Txn.init
    else None
  | Classed -> (
    match Txn.class_of txn with
    | None -> None
    | Some i ->
      if i = segment then Some txn.Txn.init
      else if Partition.higher_than t.partition segment i then
        Some (Activity.a_fn t.ctx ~from_class:i ~to_class:segment txn.Txn.init)
      else None)

let cached_threshold (st : _ txn_state) ~segment compute =
  match List.assoc_opt segment st.thresholds with
  | Some v -> v
  | None ->
    let v = compute () in
    st.thresholds <- (segment, v) :: st.thresholds;
    v

(* Protocol A / C read: committed version below the threshold; never
   blocks, never registers. *)
let snapshot_read t (txn : Txn.t) ~proto g threshold =
  match Store.committed_before t.store g ~ts:threshold with
  | Some v ->
    Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:v.Chain.ts;
    emit_read t txn proto g ~threshold ~version:v.Chain.ts;
    Granted v.Chain.value
  | None ->
    (* only possible if garbage collection outran the threshold *)
    reject t txn ~proto ~stage:Trace.Rule ~segment:g.Granule.segment
      "snapshot version collected"

(* Protocol B read: MVTO inside the root segment.  The read timestamp it
   leaves on the version is precisely the registration the hierarchical
   protocols avoid elsewhere. *)
let protocol_b_read t (txn : Txn.t) g =
  match Store.candidate_before t.store g ~ts:txn.Txn.init with
  | None ->
    reject t txn ~proto:Trace.B ~stage:Trace.Rule ~segment:g.Granule.segment
      "version collected past timestamp"
  | Some (Chain.Wait_for writer) ->
    t.m.blocks <- t.m.blocks + 1;
    (match t.trace with
    | None -> ()
    | Some tr ->
      Trace.emit tr ~at:(Time.Clock.now t.clock)
        (Trace.Block
           { txn = txn.Txn.id; protocol = Trace.B;
             segment = g.Granule.segment; key = g.Granule.key;
             on = [ writer ] }));
    Blocked [ writer ]
  | Some (Chain.Version v) ->
    Chain.mark_read v ~at:txn.Txn.init;
    t.m.read_registrations <- t.m.read_registrations + 1;
    Sched_log.log_read_opt t.log ~txn:txn.Txn.id ~granule:g ~version:v.Chain.ts;
    emit_read t txn Trace.B g ~threshold:txn.Txn.init ~version:v.Chain.ts;
    Granted v.Chain.value

let read t txn g =
  let st = state_of t txn in
  let segment = g.Granule.segment in
  match st.mode with
  | Walled wall ->
    t.m.reads_c <- t.m.reads_c + 1;
    snapshot_read t txn ~proto:Trace.C g
      (Timewall.threshold wall ~class_id:segment)
  | Hosted bottom -> (
    match
      match List.assoc_opt segment st.thresholds with
      | Some v -> Some v
      | None -> hosted_threshold t ~bottom ~segment txn.Txn.init
    with
    | Some threshold ->
      st.thresholds <-
        (if List.mem_assoc segment st.thresholds then st.thresholds
         else (segment, threshold) :: st.thresholds);
      t.m.reads_c <- t.m.reads_c + 1;
      snapshot_read t txn ~proto:Trace.C g threshold
    | None ->
      reject t txn ~stage:Trace.Routing ~segment
        "segment not on the declared critical path")
  | Adhoc { wsegs; rsegs } ->
    if adhoc_barrier t txn then
      reject t txn ~stage:Trace.Barrier ~segment
        "timestamp inside an ad-hoc activity window"
    else if List.mem segment wsegs || List.mem segment rsegs then begin
      t.m.reads_b <- t.m.reads_b + 1;
      protocol_b_read t txn g
    end
    else
      reject t txn ~stage:Trace.Routing ~segment
        "segment outside the declared ad-hoc access set"
  | Classed when adhoc_barrier t txn ->
    reject t txn ~stage:Trace.Barrier ~segment
      "timestamp inside an ad-hoc activity window"
  | Classed -> (
    match Txn.class_of txn with
    | None -> assert false
    | Some i ->
      if i = segment then begin
        t.m.reads_b <- t.m.reads_b + 1;
        protocol_b_read t txn g
      end
      else if Partition.higher_than t.partition segment i then begin
        t.m.reads_a <- t.m.reads_a + 1;
        let threshold =
          cached_threshold st ~segment (fun () ->
              Activity.a_fn t.ctx ~from_class:i ~to_class:segment
                txn.Txn.init)
        in
        if adhoc_hides txn threshold t.adhoc_history then
          reject t txn ~stage:Trace.Barrier ~segment
            "threshold at or below a retained ad-hoc timestamp"
        else snapshot_read t txn ~proto:Trace.A g threshold
      end
      else
        reject t txn ~stage:Trace.Routing ~segment
          (Printf.sprintf
             "class T%d may not read segment D%d: not higher in the DHG" i
             segment))

let emit_write t (txn : Txn.t) (g : Granule.t) ~ts =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr ~at:(Time.Clock.now t.clock)
      (Trace.Write
         { txn = txn.Txn.id; segment = g.Granule.segment;
           key = g.Granule.key; ts })

(* MVTO write into [g] with timestamp [I(txn)], shared by regular and
   ad-hoc updaters. *)
let mvto_write t (st : _ txn_state) txn g value =
    let ts = txn.Txn.init in
    match List.find_opt (fun (g', _) -> Granule.equal g g') st.written with
    | Some (_, old) ->
      (* second write of the same granule: replace the pending version,
         through the handle kept from the first install *)
      Store.discard_installed t.store g old;
      let v = Store.install t.store g ~ts ~writer:txn.Txn.id ~value in
      st.written <-
        List.map
          (fun ((g', _) as p) -> if Granule.equal g g' then (g', v) else p)
          st.written;
      t.m.writes <- t.m.writes + 1;
      Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g ~version:ts;
      emit_write t txn g ~ts;
      Granted ()
    | None ->
      (* MVTO write rule: reject when the would-be predecessor version has
         been read by a younger transaction *)
      let late =
        match Store.predecessor_rts t.store g ~ts with
        | Some rts -> rts > ts
        | None -> false
      in
      if late then
        reject t txn ~proto:Trace.B ~stage:Trace.Rule
          ~segment:g.Granule.segment
          "a younger transaction already read the predecessor"
      else begin
        let v = Store.install t.store g ~ts ~writer:txn.Txn.id ~value in
        st.written <- (g, v) :: st.written;
        t.m.writes <- t.m.writes + 1;
        Sched_log.log_write_opt t.log ~txn:txn.Txn.id ~granule:g ~version:ts;
        emit_write t txn g ~ts;
        Granted ()
      end

let write t txn g value =
  let st = state_of t txn in
  let segment = g.Granule.segment in
  match st.mode with
  | Walled _ | Hosted _ ->
    reject t txn ~stage:Trace.Routing ~segment
      "read-only transaction may not write"
  | Adhoc { wsegs; _ } ->
    if adhoc_barrier t txn then
      reject t txn ~stage:Trace.Barrier ~segment
        "timestamp inside an ad-hoc activity window"
    else if List.mem segment wsegs then mvto_write t st txn g value
    else
      reject t txn ~stage:Trace.Routing ~segment
        "segment outside the declared ad-hoc write set"
  | Classed when adhoc_barrier t txn ->
    reject t txn ~stage:Trace.Barrier ~segment
      "timestamp inside an ad-hoc activity window"
  | Classed -> (
    match Txn.class_of txn with
    | None -> assert false
    | Some i when i <> segment ->
      reject t txn ~stage:Trace.Routing ~segment
        (Printf.sprintf "class T%d may not write segment D%d" i segment)
    | Some _ -> mvto_write t st txn g value)

(* --- garbage collection (§7.3) --- *)

(* Per-segment watermark vector: component [s] is the lowest
   version-selection threshold any active transaction — or any transaction
   that may still begin — can use *for a read of segment [s]*.  Versions
   of [s] strictly older than the newest committed version below it are
   unreachable.  Each active transaction contributes only to the segments
   its protocol can actually serve it (its own class's segment at [I(t)],
   each higher segment at the re-evaluated activity-link threshold, a
   walled reader's components where they apply), which lets a segment
   whose readers are all recent be trimmed past the initiation time of an
   old straggler that cannot reach it.  Re-evaluating [a_fn] here is
   exact, not approximate: [I_old] at historic arguments is immutable, so
   the value equals the threshold memoised at read time.  Ad-hoc
   transactions contribute their initiation time to every segment — their
   activity window fences future compositions through every class they
   joined (§7.1.1).  Future update transactions get initiation times above
   the clock; future read-only transactions attach the current wall (and
   wall components are monotone across releases). *)
let gc_watermark_vector t =
  let n = Partition.segment_count t.partition in
  let vec = Array.make n (Time.Clock.now t.clock) in
  let shrink s v = if v < vec.(s) then vec.(s) <- v in
  let shrink_all v =
    for s = 0 to n - 1 do
      shrink s v
    done
  in
  let higher_segments cls =
    List.filter
      (fun s -> Partition.higher_than t.partition s cls)
      (List.init n Fun.id)
  in
  Array.iteri shrink
    (Timewall.current t.walls).Timewall.components;
  Hashtbl.iter
    (fun _ (st : _ txn_state) ->
      let i = st.txn.Txn.init in
      match st.mode with
      | Adhoc _ -> shrink_all i
      | Classed -> (
        match Txn.class_of st.txn with
        | None -> shrink_all i
        | Some cls ->
          shrink cls i;
          List.iter
            (fun s ->
              shrink s (Activity.a_fn t.ctx ~from_class:cls ~to_class:s i))
            (higher_segments cls))
      | Walled wall -> Array.iteri shrink wall.Timewall.components
      | Hosted bottom ->
        List.iter
          (fun s ->
            match hosted_threshold t ~bottom ~segment:s i with
            | Some v -> shrink s v
            | None -> ())
          (bottom :: higher_segments bottom))
    t.states;
  vec

(* The scalar watermark is the floor of the vector: what a uniform
   collection may trim every segment below. *)
let gc_watermark t =
  let vec = gc_watermark_vector t in
  Array.fold_left Time.min vec.(0) vec

let collect_with t vec =
  let dropped = Store.gc_wall t.store ~wall:vec in
  let watermark = Array.fold_left Time.min vec.(0) vec in
  Registry.prune t.reg ~upto:(watermark - 1);
  (match t.trace with
  | None -> ()
  | Some tr ->
    Trace.emit tr ~at:(Time.Clock.now t.clock)
      (Trace.Gc { watermark; vector = Array.copy vec; dropped }));
  dropped

let collect_garbage t = collect_with t (gc_watermark_vector t)

(* Drop ad-hoc records no live transaction's timestamp can fall into and
   no current or future read threshold can reach: once the watermark has
   passed I(a), {!adhoc_hides} can no longer fire for [a]. *)
let prune_adhoc_history t =
  match t.adhoc_history with
  | [] -> ()
  | _ ->
    let watermark = gc_watermark t in
    t.adhoc_history <-
      List.filter
        (fun (a : Txn.t) ->
          Txn.is_active a
          || watermark <= a.Txn.init
          || Hashtbl.fold
               (fun _ (st : _ txn_state) acc ->
                 acc || Txn.active_at a st.txn.Txn.init)
               t.states false)
        t.adhoc_history

let maybe_release_wall t =
  prune_adhoc_history t;
  t.commits_since_wall <- t.commits_since_wall + 1;
  if t.wall_pending || t.commits_since_wall >= t.wall_every_commits then begin
    match Timewall.try_release t.walls with
    | Ok _ ->
      t.wall_pending <- false;
      t.commits_since_wall <- 0;
      (* wall-driven GC (§7.3): a release proves every C_late below the
         new wall computable, so chains can be trimmed right away instead
         of waiting for a count-based trigger *)
      if t.gc_on_wall then ignore (collect_garbage t)
    | Error _ -> t.wall_pending <- true
  end

let commit t txn =
  let st = state_of t txn in
  let at = Time.Clock.tick t.clock in
  List.iter (fun (_, v) -> Store.commit_installed t.store v) st.written;
  Txn.commit txn ~at;
  Hashtbl.remove t.states txn.Txn.id;
  t.m.committed <- t.m.committed + 1;
  (* Commit must precede the wall/GC records the release below may emit:
     monitors move this transaction's pending versions into their shadow
     store before judging any collection. *)
  (match t.trace with
  | None -> ()
  | Some tr -> Trace.emit tr ~at (Trace.Commit { txn = txn.Txn.id; at }));
  if Txn.is_update txn then maybe_release_wall t;
  match t.gc_every_commits with
  | Some k ->
    t.commits_since_gc <- t.commits_since_gc + 1;
    if t.commits_since_gc >= k then begin
      t.commits_since_gc <- 0;
      ignore (collect_garbage t)
    end
  | None -> ()

let abort t txn =
  let st = state_of t txn in
  let at = Time.Clock.tick t.clock in
  List.iter (fun (g, v) -> Store.discard_installed t.store g v) st.written;
  Sched_log.drop_txn_opt t.log txn.Txn.id;
  Txn.abort txn ~at;
  Hashtbl.remove t.states txn.Txn.id;
  t.m.aborted <- t.m.aborted + 1;
  (match t.trace with
  | None -> ()
  | Some tr -> Trace.emit tr ~at (Trace.Abort { txn = txn.Txn.id; at }));
  if Txn.is_update txn then maybe_release_wall t

let release_wall t = Timewall.try_release t.walls


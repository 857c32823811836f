module T = Hdd_obs.Trace
module Pstore = Hdd_mvstore.Pstore
module P = Hdd_core.Partition
module TW = Hdd_core.Timewall

type op = Executor.op = Read of Granule.t | Write of Granule.t * int

type desc = Executor.desc = {
  d_id : Txn.id;
  d_kind : [ `Update of int | `Read_only ];
  d_ops : op list;
  d_abort : bool;
}

type config = { workers : int; traced : bool; publish_every : int }

let default_config ~workers = { workers; traced = true; publish_every = 8 }

let mailbox_capacity = 64

type stats = Hdd_obs.Counters.t = {
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

type run = {
  records : T.record list;
  outcomes : (Txn.id * bool) list;
  stats : stats;
}

(* --- shared state --- *)

(* An owner's activity publication: a frozen registry view, the
   global-clock value read at capture, and the owner's quiescence
   summary.  The snapshot answers I_old and C_late exactly for
   arguments <= upto: every transaction of the owner's classes with a
   smaller initiation was ticked, registered and (if finished)
   finalized on the owner's own thread before the capture.

   [p_q] is a full per-class vector: [p_q.(c)] is I_old^c(upto) for
   classes the publisher owned at capture and [max_int] elsewhere — the
   per-worker quiescence summary the coordinator folds in
   O(workers x classes) instead of rescanning every class's history per
   release attempt (DESIGN.md §16).  A claim [p_q.(c) = v] means every
   class-c transaction with a smaller initiation has finished; after an
   ownership migration the coordinator folds the minimum over all
   workers, so a past owner's stale-but-true claim only tightens the
   bound and the current owner's barrier republication caps it
   correctly. *)
type pub = { p_snap : Registry.snapshot; p_upto : Time.t; p_q : Time.t array }

type shared = {
  clock : Gclock.t;
  partition : P.t;
  workers : int;
  nseg : int;
  publish_every : int;
  stores : Pstore.view Atomic.t array;  (* per segment, set by its owner *)
  (* the wait-free cross-read service: per-class activity boards for
     I_old, per-segment version rings for the committed-but-unpublished
     version tail — what lets batched publication coexist with
     publication-freshness-hungry Protocol A reads (DESIGN.md §16) *)
  acts : Actboard.t;
  rings : Vring.t array;  (* per segment, appended by its owner *)
  (* owner faces of the per-segment packed stores.  Only the current
     owner of a segment's class touches its entry, and ownership only
     changes at a repartition barrier with every worker parked, so the
     handoff is ordered by the park/ack atomics — migrating a class
     transfers the live store without copying a byte. *)
  seg_stores : Pstore.t array;
  pubs : pub Atomic.t array;  (* per worker *)
  repub : bool Atomic.t array;  (* per worker: republication requests *)
  wall : Epochwall.t;
  (* --- dynamic decomposition (DESIGN.md §17) --- *)
  owner_map : int array Atomic.t;  (* class -> owning worker *)
  epoch : int Atomic.t;  (* partition epoch; bumped per repartition *)
  park : bool Atomic.t;  (* barrier request: quiesce between txns *)
  parked : bool Atomic.t array;  (* per worker: quiescent and published *)
  gen : int Atomic.t;  (* barrier generation, bumped at each map swap *)
  acked : int Atomic.t array;  (* last gen each worker republished under *)
  crew : Crew.t;
  (* the workers' run loop: a gone worker counts as parked; a halt is
     timed mode's deadline; once the run has failed every wait leaves
     and the caller re-raises the first exception *)
  (* --- hybrid CC (DESIGN.md §18) --- *)
  modes : int array Atomic.t;
  (* per-class CC mode: 0 = plain HDD (versions stamped with the
     initiation), 1 = escalated (versions stamped with a commit tick).
     Swapped only behind the same park barrier as the owner map, so a
     transaction always runs start to finish under one mode. *)
  esc_seq : int Atomic.t;  (* escalation sequence, bumped per mode swap *)
}

let owner sh class_id = Array.unsafe_get (Atomic.get sh.owner_map) class_id

type wctx = {
  sh : shared;
  me : int;
  name : string;  (* the waiter a stalled wait names *)
  registry : Registry.t;
  mutable own_classes : int array;  (* refreshed at repartition barriers *)
  mutable my_gen : int;  (* last barrier generation observed *)
  mutable last_pruned_m : Time.t;
  (* scratch for activity-board reads: [state; a_init; i1; e1; i2; e2] *)
  ab : int array;
  x : Executor.state;
}

(* Publication: store views first, activity second — any window the
   published snapshot exposes must already have its versions readable.
   The clock is read before the capture so [upto] never claims more
   than the snapshot holds.  Registry history below the released wall
   is pruned here, bounding snapshot cost by the active window rather
   than the whole run. *)
let publish_upto w upto =
  let sh = w.sh in
  Atomic.set sh.repub.(w.me) false;
  let wall_m = (Epochwall.read sh.wall).TW.m in
  if wall_m > w.last_pruned_m then begin
    w.last_pruned_m <- wall_m;
    Registry.prune w.registry ~upto:(wall_m - 1)
  end;
  let own = w.own_classes in
  for i = 0 to Array.length own - 1 do
    let seg = Array.unsafe_get own i in
    if Pstore.dirty_count sh.seg_stores.(seg) > 0 then
      Atomic.set sh.stores.(seg) (Pstore.publish sh.seg_stores.(seg))
  done;
  let q = Array.make sh.nseg max_int in
  for i = 0 to Array.length own - 1 do
    let c = Array.unsafe_get own i in
    q.(c) <- Registry.i_old w.registry ~class_id:c ~at:upto
  done;
  Atomic.set sh.pubs.(w.me)
    { p_snap = Registry.snapshot w.registry; p_upto = upto; p_q = q };
  Executor.published w.x

let publish_pub w = publish_upto w (Gclock.now w.sh.clock)

(* A worker with no work left will register nothing ever again, so its
   final activity snapshot answers exactly for every argument: publish
   it with unbounded coverage, or waiters on this owner would spin
   forever once it exits. *)
let publish_final w = publish_upto w max_int

(* Serve a republication request aimed at this worker.  Requests come
   from waiters mid-cross-read and from a stuck coordinator; serving
   them between transactions is what lets batched publication keep the
   per-commit liveness of PR 5's publish-per-commit scheme. *)
let service_repub w =
  if Atomic.get w.sh.repub.(w.me) then publish_pub w

let own_classes_of_map map me =
  let n = ref 0 in
  Array.iter (fun o -> if o = me then incr n) map;
  let own = Array.make !n 0 in
  let j = ref 0 in
  Array.iteri
    (fun c o ->
      if o = me then begin
        own.(!j) <- c;
        incr j
      end)
    map;
  own

let refresh_own w =
  w.own_classes <- own_classes_of_map (Atomic.get w.sh.owner_map) w.me

(* Catch up with a repartition: recompute owned classes from the swapped
   map, republish under the new assignment (clearing any claim about a
   class that just migrated away and establishing the baseline claim for
   one that migrated in), and acknowledge the generation.  The
   coordinator holds every worker parked until all live workers have
   acknowledged, so no publication made under the old map can outlive
   the barrier. *)
let observe_gen w =
  let g = Atomic.get w.sh.gen in
  if g <> w.my_gen then begin
    refresh_own w;
    publish_pub w;
    w.my_gen <- g;
    Atomic.set w.sh.acked.(w.me) g
  end

(* The repartition barrier, worker side.  Called between transactions
   only: a parked worker is quiescent with everything published.  While
   parked it keeps serving republication requests (a waiter mid-cross-
   read on another worker must not deadlock against the barrier).  The
   parked flag is owned by this worker alone — set on entry, cleared on
   exit — and the coordinator waits for every flag to drop before it
   considers a barrier finished, so a flag it reads as set always means
   "currently quiescent", never a leftover from the previous barrier.
   A parked worker backs off: on a host with no core to spare, spinning
   hot would starve the caller's domain, which runs the barrier.  A
   failed run ends the wait: the worker leaves still flagged parked,
   and the coordinator counts it gone. *)
let check_park w =
  let sh = w.sh in
  if Atomic.get sh.park then begin
    publish_pub w;
    Atomic.set sh.parked.(w.me) true;
    Wait.until ~waiter:w.name
      ~awaited:(fun () -> "the end of the park barrier")
      ~step:(fun n ->
        Crew.leave_if_failed sh.crew;
        observe_gen w;
        service_repub w;
        Wait.backoff n)
      (fun () -> not (Atomic.get sh.park));
    Atomic.set sh.parked.(w.me) false
  end;
  observe_gen w

(* Wait for the owner of a class to have published activity covering
   argument [m].  The waiter posts a republication request to the owner
   and keeps serving requests aimed at itself: two workers awaiting
   each other mid-transaction unblock each other (a publication is
   valid at any instant — the current transaction simply shows as
   active).  An owner that raised never publishes again, so the wait
   leaves once the run has failed. *)
let await_owner w ow m =
  let slot = w.sh.pubs.(ow) in
  let pub = Atomic.get slot in
  if pub.p_upto >= m then pub
  else begin
    Wait.until ~waiter:w.name
      ~awaited:(fun () ->
        Printf.sprintf "a publication of engine worker %d covering %d" ow m)
      ~step:(fun n ->
        Crew.leave_if_failed w.sh.crew;
        Atomic.set w.sh.repub.(ow) true;
        service_repub w;
        Wait.backoff n)
      (fun () -> (Atomic.get slot).p_upto >= m);
    (* an owner's upto only grows *)
    Atomic.get slot
  end

(* Snapshot path for one I_old step: wait until the owner's published
   upto covers the argument — exact because I_old(a) is fixed once the
   clock passes [a]. *)
let slow_i_old w cls at =
  let pub = await_owner w (owner w.sh cls) at in
  Registry.snap_i_old pub.p_snap ~class_id:cls ~at

(* Board path for one I_old step: read the class's activity record and
   answer from it, no publication needed.  Exact by the ordering
   argument in actboard.mli — observing [busy a] proves the running
   transaction's end tick is still ahead of this worker's own
   initiation, observing [idle] proves any unseen transaction's init
   is.  Transition states, arguments below the retained windows and
   seqlock retry exhaustion fall back to the snapshot path. *)
let fast_i_old w cls at =
  if Actboard.read_into w.sh.acts cls ~out:w.ab ~retries:64 then begin
    let r = Actboard.i_old_of_record w.ab ~at in
    if r >= 0 then r else slow_i_old w cls at
  end
  else slow_i_old w cls at

(* Protocol A's lookup for {!Hdd_core.Activity.compose}: classes this
   worker owns are answered from the live local registry, remote
   classes from their activity boards — wait-free either way. *)
let a_i_old w ~class_id ~at =
  if owner w.sh class_id = w.me then Registry.i_old w.registry ~class_id ~at
  else fast_i_old w class_id at

(* Newest version of [key] strictly below [th] in a remote segment.
   The published view is complete at or below its publication's upto;
   the version ring carries the tail committed since, and holding any
   ring result or a clean floor crossing proves the splice covers the
   read.  Every version below a composed threshold also ends below it
   (class transactions are sequential: anything still running when the
   threshold was fixed capped it at its init), so when the ring has
   wrapped, a publication with upto >= th is complete by itself. *)
let rec read_remote_a w seg key th =
  let pub = Atomic.get w.sh.pubs.(owner w.sh seg) in
  let v = Atomic.get w.sh.stores.(seg) in
  let r = Vring.latest_below w.sh.rings.(seg) ~key ~ts:th ~floor:pub.p_upto in
  if r > 0 then r
  else if r = 0 || pub.p_upto >= th then
    Pstore.view_latest_before v ~key ~ts:th
  else begin
    ignore (await_owner w (owner w.sh seg) th);
    read_remote_a w seg key th
  end

(* The engine as the executor's substrate: the shared clock, the
   activity boards around the window ticks, the ring-and-view remote
   read, the epoch wall, and the version ring that makes a commit
   visible before its window closes. *)
module Substrate = struct
  type t = wctx

  let name = "Engine"
  let tick w = Gclock.tick w.sh.clock
  let owns w seg = owner w.sh seg = w.me
  (* modes swap only behind the park barrier, which no transaction
     spans, so the executor's one read per transaction holds throughout *)
  let escalated w cls = Array.unsafe_get (Atomic.get w.sh.modes) cls <> 0

  (* board transition before the init tick: a reader that still sees
     [idle] is guaranteed our init lands above its own initiation *)
  let open_window w ~class_id ~id =
    let sh = w.sh in
    Actboard.begin_txn sh.acts class_id;
    let init = Gclock.tick sh.clock in
    Registry.register_active w.registry ~class_id ~id ~init;
    Actboard.set_busy sh.acts class_id ~init;
    init

  (* board transition before the end tick: a reader still seeing
     [busy] is guaranteed our end lands above its own initiation *)
  let close_window w ~class_id ~init =
    let sh = w.sh in
    Actboard.set_ending sh.acts class_id;
    let e = Gclock.tick sh.clock in
    Registry.finish_active w.registry ~class_id ~endt:e;
    Actboard.set_idle sh.acts class_id ~init ~endt:e;
    e

  let a_i_old = a_i_old
  let read_remote w ~seg ~key ~th = read_remote_a w seg key th
  let wall w = Epochwall.read w.sh.wall

  let read_walled w ~seg ~key ~th =
    Pstore.view_latest_before (Atomic.get w.sh.stores.(seg)) ~key ~ts:th

  (* the ring entries become visible in one atomic head store, strictly
     before the closing window does *)
  let install w (x : Executor.state) ~class_id ~ts =
    let sh = w.sh in
    let ring = sh.rings.(class_id) in
    let h0 = Vring.head ring in
    for i = 0 to x.wb_len - 1 do
      Vring.stage ring (h0 + i) ~ts ~key:(Array.unsafe_get x.wb_keys i)
        ~value:(Array.unsafe_get x.wb_vals i)
    done;
    Vring.advance ring (h0 + x.wb_len)

  let publish = publish_pub
  let between = service_repub
end

module X = Executor.Make (Substrate)

let exec w d = X.exec w w.x d

(* --- the wall coordinator --- *)

(* The wall lookups for {!TW.attempt}: each class answers from its
   owner's publication, fetched once per attempt into [by_class]; one
   that does not cover the argument yet raises [Stale]. *)
let wall_snap (by_class : pub array) c at =
  let p = by_class.(c) in
  if p.p_upto < at then raise TW.Stale;
  p.p_snap

let wall_i_old by_class ~class_id ~at =
  Registry.snap_i_old (wall_snap by_class class_id at) ~class_id ~at

let wall_c_late by_class ~class_id ~at =
  Registry.snap_c_late (wall_snap by_class class_id at) ~class_id ~at

(* The repartition barrier, coordinator side (DESIGN.md §17).  Three
   phases, all between transactions of every worker:

   1. Park: raise the park flag and wait until every live worker is
      quiescent and published (exited workers count — their final
      publication covers everything they will ever do).
   2. Swap: install the new owner map, bump the epoch and the barrier
      generation, then wait until every live worker has republished
      under the new map — this clears the old owner's claims about a
      migrated class and establishes the new owner's baseline before
      anyone runs again.
   3. Release: emit the {!Trace.event.Repartition} record at a fresh
      tick (every pre-barrier event is below it, every post-barrier
      event above — the monitor's no-active-in-flight rule) and drop
      the park flag, waiting for every parked flag to clear so a flag
      read as set always means "currently quiescent".

   A gone worker counts as parked, acknowledged and released: it never
   runs a transaction again, whether it drained its queues or raised.

   Transactions never span a barrier, so every mid-transaction
   invariant (single-writer stores and rings, stable ownership for a
   composed threshold) holds without further synchronization.

   The same barrier carries per-class CC mode swaps (DESIGN.md §18):
   [swap] runs in the fully-quiesced window and returns the trace event
   describing what changed — a {!Trace.event.Repartition} for an owner
   map swap, a {!Trace.event.Escalation} for a mode vector swap. *)
let run_barrier sh ~swap trace =
  Atomic.set sh.park true;
  let gone i = Crew.gone sh.crew i in
  (* wait until [p] holds of every worker; a stall names the first
     worker it does not hold of *)
  let every what p =
    let rec first i =
      if i >= sh.workers || not (p i) then i else first (i + 1)
    in
    Wait.until ~waiter:"the wall coordinator"
      ~awaited:(fun () -> Printf.sprintf "engine worker %d %s" (first 0) what)
      ~step:(fun _ -> Wait.nap ())
      (fun () -> first 0 >= sh.workers)
  in
  every "to park" (fun i -> Atomic.get sh.parked.(i) || gone i);
  let ev = swap () in
  let g = 1 + Atomic.fetch_and_add sh.gen 1 in
  every "to acknowledge the swap" (fun i ->
      gone i || Atomic.get sh.acked.(i) >= g);
  let at = Gclock.tick sh.clock in
  (match trace with Some tr -> T.emit tr ~at ev | None -> ());
  Atomic.set sh.park false;
  every "to leave the barrier" (fun i ->
      gone i || not (Atomic.get sh.parked.(i)))

(* Owner-map swap, run inside the barrier's quiesced window. *)
let repartition_swap sh ~target ~kind () =
  let old_map = Atomic.get sh.owner_map in
  let moved = ref [] in
  for c = sh.nseg - 1 downto 0 do
    if target.(c) <> old_map.(c) then moved := c :: !moved
  done;
  Atomic.set sh.owner_map (Array.copy target);
  let ep = 1 + Atomic.fetch_and_add sh.epoch 1 in
  T.Repartition { epoch = ep; kind; moved = !moved; fresh_store = false }

(* Mode-vector swap: every worker is between transactions, so no update
   transaction of any class is in flight when the stamping discipline
   changes — the monitor's escalation invariant. *)
let escalation_swap sh ~target () =
  Atomic.set sh.modes (Array.copy target);
  let seq = 1 + Atomic.fetch_and_add sh.esc_seq 1 in
  T.Escalation { seq; modes = Array.to_list target }

let rotated_map map workers =
  Array.map (fun o -> (o + 1) mod workers) map

(* An owner map or mode vector a barrier installs has one entry per
   class, each in [0, bound): checked before the swap can act on it. *)
let check_vector sh what ~bound v =
  if Array.length v <> sh.nseg then
    invalid_arg
      (Printf.sprintf "Engine: %s has %d entries for %d classes" what
         (Array.length v) sh.nseg);
  Array.iter
    (fun x ->
      if x < 0 || x >= bound then
        invalid_arg
          (Printf.sprintf "Engine: %s entry %d is outside [0, %d)" what x
             bound))
    v

(* The wall coordinator runs on the caller's domain, so a run spawns
   only its workers.  [coordinator] returns [poll], one coordinator
   step that acts only once [poll_period] has passed since the last
   step finished — the caller calls it wherever it would otherwise
   wait.  It counts its barriers into the wall releaser's record.
   Timing from a step's end keeps a slow barrier (milliseconds on two
   cores) from making the next step act at once: the feeder gets a
   full period to queue work between steps.
   The first call always acts: made before the first push, it finds
   every class idle, so the first wall and a plan's first step land
   on every run.  Once the run has failed, [poll] does nothing. *)
let poll_period = 1e-4

let coordinator sh (walls : TW.coordinator) ?(plan = []) ?(mode_plan = [])
    ?(rotate_every_s = 0.) trace =
  let c = walls.c in
  let repartition ~swap =
    run_barrier sh ~swap trace;
    c.repartitions <- c.repartitions + 1
  in
  let plan = ref plan in
  let mode_plan = ref mode_plan in
  let next_rotate =
    ref
      (if rotate_every_s > 0. then Unix.gettimeofday () +. rotate_every_s
       else infinity)
  in
  let stuck = ref 0 in
  let next_poll = ref neg_infinity in
  let step now =
    (* repartition requests travel this path: one scripted plan step per
       poll, or a periodic whole-map rotation in timed mode *)
    (match !plan with
    | (target, kind) :: rest ->
      plan := rest;
      repartition ~swap:(repartition_swap sh ~target ~kind)
    | [] ->
      if now >= !next_rotate then begin
        next_rotate := now +. rotate_every_s;
        let target = rotated_map (Atomic.get sh.owner_map) sh.workers in
        repartition ~swap:(repartition_swap sh ~target ~kind:"migrate")
      end);
    (* scripted mode swaps: one escalation barrier per poll *)
    (match !mode_plan with
    | target :: rest ->
      mode_plan := rest;
      run_barrier sh ~swap:(escalation_swap sh ~target) trace;
      c.escalations <- c.escalations + 1
    | [] -> ());
    (* one release attempt over a single fetch of every publication.
       Below q(i), class i is quiescent — every member with a smaller
       initiation has finished and its versions published.  The fold
       over every worker keeps a past owner's stale-but-true claim in
       play only to tighten the bound. *)
    let advanced =
      let omap = Atomic.get sh.owner_map in
      let pubs = Array.map Atomic.get sh.pubs in
      let q =
        Array.init sh.nseg (fun i ->
            Array.fold_left (fun acc p -> Time.min acc p.p_q.(i)) max_int pubs)
      in
      match
        TW.attempt walls wall_i_old wall_c_late
          (Array.map (fun o -> pubs.(o)) omap)
          ~q
          ~tick:(fun () -> Gclock.tick sh.clock)
      with
      | Some wall ->
        Epochwall.publish sh.wall wall;
        true
      | None ->
        (* every owner has published its final (exit) snapshot: the run
           is over, nothing left to nag *)
        Array.for_all (fun v -> v = max_int) q
    in
    (* batched publication bounds how far summaries lag behind the
       clock; when the wall fails to advance for two polls, ask every
       worker to republish rather than waiting out a full batch *)
    if advanced then stuck := 0
    else begin
      incr stuck;
      if !stuck >= 2 then begin
        stuck := 0;
        for i = 0 to sh.workers - 1 do
          Atomic.set sh.repub.(i) true
        done
      end
    end
  in
  let poll () =
    let now = Unix.gettimeofday () in
    if now >= !next_poll && not (Crew.failed sh.crew) then begin
      step now;
      next_poll := Unix.gettimeofday () +. poll_period
    end
  in
  poll

(* --- engine setup shared by both modes --- *)

type setup = {
  s_sh : shared;
  s_regs : Registry.t array;
  s_walls : TW.coordinator;
  s_coord_trace : T.t option;
}

let default_owner_map ~segments ~workers =
  Array.init segments (fun c -> c mod workers)

let setup ~partition ~init ~workers ~traced ~publish_every =
  if workers <= 0 then invalid_arg "Engine: workers must be > 0";
  if publish_every <= 0 then invalid_arg "Engine: publish_every must be > 0";
  (* bootstrap values no longer surface: reads report version
     timestamps only, so [init] is accepted for interface stability *)
  ignore (init : Granule.t -> int);
  let nseg = P.segment_count partition in
  let clock = Gclock.create () in
  let regs = Array.init workers (fun _ -> Registry.create ~classes:nseg ()) in
  let coord_trace =
    if traced then Some (T.create ~domain:(workers + 1) ()) else None
  in
  let walls = TW.coordinator ?trace:coord_trace partition in
  (* the initial wall: trivially computable on the idle system, released
     before any worker starts so read-only transactions always find one *)
  let m0 = Gclock.tick clock in
  let wall0 = TW.initial walls ~m:m0 ~released_at:(Gclock.tick clock) in
  let omap0 = default_owner_map ~segments:nseg ~workers in
  let sh =
    { clock;
      partition;
      workers;
      nseg;
      publish_every;
      stores = Array.init nseg (fun _ -> Atomic.make Pstore.empty_view);
      acts = Actboard.create ~classes:nseg;
      rings = Array.init nseg (fun _ -> Vring.create ~entries:1024);
      seg_stores = Array.init nseg (fun _ -> Pstore.create ());
      pubs =
        Array.init workers (fun w ->
            let upto = Gclock.now clock in
            (* empty registries: I_old(c, upto) = upto for every class *)
            Atomic.make
              { p_snap = Registry.snapshot regs.(w);
                p_upto = upto;
                p_q =
                  Array.map (fun o -> if o = w then upto else max_int) omap0 });
      repub = Array.init workers (fun _ -> Atomic.make false);
      wall = Epochwall.create wall0;
      owner_map = Atomic.make omap0;
      epoch = Atomic.make 0;
      park = Atomic.make false;
      parked = Array.init workers (fun _ -> Atomic.make false);
      gen = Atomic.make 0;
      acked = Array.init workers (fun _ -> Atomic.make 0);
      crew = Crew.create workers;
      modes = Atomic.make (Array.make nseg 0);
      esc_seq = Atomic.make 0 }
  in
  { s_sh = sh; s_regs = regs; s_walls = walls; s_coord_trace = coord_trace }

let fresh_wctx sh ~me ~registry ~trace ~keep_outcomes ~timed =
  { sh;
    me;
    name = Printf.sprintf "engine worker %d" me;
    registry;
    own_classes = own_classes_of_map (Atomic.get sh.owner_map) me;
    my_gen = Atomic.get sh.gen;
    last_pruned_m = Time.zero;
    ab = Array.make 6 0;
    x =
      Executor.state ~partition:sh.partition ~stores:sh.seg_stores ~trace
        ~keep_outcomes ~publish_every:sh.publish_every ~timed }

let stats_of (xs : Executor.state array) (walls : TW.coordinator) =
  Array.fold_left
    (fun s (x : Executor.state) -> Hdd_obs.Counters.add s x.c)
    (Hdd_obs.Counters.copy walls.c) xs

(* --- script mode --- *)

let dummy_desc = { d_id = -1; d_kind = `Read_only; d_ops = []; d_abort = false }

let run_script ~partition ~init ?(plan = []) ?(mode_plan = [])
    (config : config) ~script =
  let s =
    setup ~partition ~init ~workers:config.workers ~traced:config.traced
      ~publish_every:config.publish_every
  in
  let sh = s.s_sh in
  List.iter
    (fun (target, _) ->
      check_vector sh "a plan's owner map" ~bound:config.workers target)
    plan;
  List.iter (check_vector sh "a mode plan's vector" ~bound:2) mode_plan;
  let traces =
    Array.init config.workers (fun w ->
        if config.traced then
          Some (T.create ~domain:(w + 1) ())
        else None)
  in
  (* Update descriptors are routed per class, not per worker: a live
     migration re-owns the class queue wholesale (its new owner simply
     starts draining it), so no in-flight descriptor is ever stranded
     in a mailbox whose worker no longer runs the class.  Read-only
     descriptors stay round-robin per worker — any worker can serve
     them. *)
  let cboxes =
    Array.init sh.nseg (fun _ ->
        Mailbox.create ~capacity:mailbox_capacity)
  in
  let roboxes =
    Array.init config.workers (fun _ ->
        Mailbox.create ~capacity:mailbox_capacity)
  in
  let worker w =
    let ctx =
      fresh_wctx sh ~me:w ~registry:s.s_regs.(w) ~trace:traces.(w)
        ~keep_outcomes:true ~timed:false
    in
    (* drain one publication batch per lock acquisition *)
    let batch =
      Int.max 1 (Int.min config.publish_every mailbox_capacity)
    in
    let buf = Array.make batch dummy_desc in
    (* a worker exits only when every queue in the system is drained:
       class ownership may still migrate to it while any queue holds
       work, and every class queue always has a live owner until then *)
    let drained_all () =
      Mailbox.is_drained roboxes.(w)
      && Array.for_all Mailbox.is_drained cboxes
    in
    let rec loop () =
      check_park ctx;
      let did = ref false in
      let drain box =
        let n = Mailbox.pop_into box buf ~max:batch in
        if n > 0 then begin
          did := true;
          for i = 0 to n - 1 do
            exec ctx buf.(i)
          done
        end
      in
      drain roboxes.(w);
      let own = ctx.own_classes in
      for i = 0 to Array.length own - 1 do
        drain cboxes.(own.(i))
      done;
      if !did then loop ()
      else if drained_all () then ()
      else begin
        (* idle: a fresh publication costs nothing we need and keeps
           waiters and the coordinator moving.  A queue whose owner
           raised never drains, so a failed run ends the wait. *)
        Crew.leave_if_failed sh.crew;
        publish_pub ctx;
        Wait.nap ();
        loop ()
      end
    in
    loop ();
    publish_final ctx;
    ctx.x
  in
  let poll = coordinator sh s.s_walls ~plan ~mode_plan s.s_coord_trace in
  let box_of d =
    match d.d_kind with
    | `Update c -> cboxes.(c)
    | `Read_only ->
      roboxes.(((d.d_id mod config.workers) + config.workers)
               mod config.workers)
  in
  (* the feeding loop, the one place the caller waits on a full box:
     it polls the coordinator before every push and between retries *)
  let rec feed i =
    if i < Array.length script && not (Crew.failed sh.crew) then begin
      poll ();
      let d = script.(i) in
      let box = box_of d in
      if not (Mailbox.push box d) then
        Wait.until ~waiter:"the engine's caller"
          ~awaited:(fun () ->
            Printf.sprintf "room in the mailbox of descriptor %d" d.d_id)
          ~step:(fun _ ->
            Wait.nap ();
            poll ())
          (fun () -> Crew.failed sh.crew || Mailbox.push box d);
      feed (i + 1)
    end
  in
  let results =
    Crew.run sh.crew ~poll worker ~feed:(fun () ->
        feed 0;
        Array.iter Mailbox.close cboxes;
        Array.iter Mailbox.close roboxes)
  in
  let outcomes =
    Array.to_list results
    |> List.concat_map (fun (x : Executor.state) -> x.outcomes)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let records =
    if config.traced then
      T.merged
        (List.filter_map Fun.id
           (Array.to_list traces @ [ s.s_coord_trace ]))
    else []
  in
  { records;
    outcomes;
    stats = stats_of results s.s_walls }

(* --- timed self-generating mode (benchmark) --- *)

type mix = {
  ro_frac : float;
  abort_frac : float;
  cross_reads : int;
  own_ops : int;
  keys_per_segment : int;
}

type timed = {
  t_stats : stats;
  t_elapsed_s : float;
  t_latency : Hdd_obs.Metrics.t;
}

let gen_desc sh mix prng ~id ~classes_mine ~readable =
  if Array.length classes_mine > 0 && Hdd_util.Prng.float prng 1. >= mix.ro_frac
  then begin
    let cls = Hdd_util.Prng.pick prng classes_mine in
    let key () = Hdd_util.Prng.int prng mix.keys_per_segment in
    let own =
      List.init (Int.max 1 mix.own_ops) (fun i ->
          let g = Granule.make ~segment:cls ~key:(key ()) in
          if i = 0 then Write (g, Hdd_util.Prng.int prng 1_000_000)
          else Read g)
    in
    let cross =
      match readable.(cls) with
      | [||] -> []
      | segs ->
        List.init mix.cross_reads (fun _ ->
            let seg = Hdd_util.Prng.pick prng segs in
            Read (Granule.make ~segment:seg ~key:(key ())))
    in
    { d_id = id;
      d_kind = `Update cls;
      d_ops = own @ cross;
      d_abort = Hdd_util.Prng.float prng 1. < mix.abort_frac }
  end
  else begin
    let nseg = sh.nseg in
    let ops =
      List.init (Int.max 1 mix.cross_reads) (fun _ ->
          let seg = Hdd_util.Prng.int prng nseg in
          Read
            (Granule.make ~segment:seg
               ~key:(Hdd_util.Prng.int prng mix.keys_per_segment)))
    in
    { d_id = id; d_kind = `Read_only; d_ops = ops; d_abort = false }
  end

let run_timed ~partition ~init ~workers ~seconds ?(publish_every = 8)
    ?(rotate_every_s = 0.) ~mix ~seed () =
  let s = setup ~partition ~init ~workers ~traced:false ~publish_every in
  let sh = s.s_sh in
  let nseg = sh.nseg in
  let readable =
    Array.init nseg (fun cls ->
        List.init nseg Fun.id
        |> List.filter (fun seg ->
               seg <> cls && P.may_read partition ~class_id:cls ~segment:seg)
        |> Array.of_list)
  in
  let worker w =
    let prng = Hdd_util.Prng.create (seed + (w * 7919)) in
    let ctx =
      fresh_wctx sh ~me:w ~registry:s.s_regs.(w) ~trace:None
        ~keep_outcomes:false ~timed:true
    in
    let next = ref (w + 1) in
    while not (Crew.halted sh.crew) do
      (* a live migration lands here: park, re-own, resume — the owned
         class set may have changed, so it is re-read every iteration *)
      check_park ctx;
      let d =
        gen_desc sh mix prng ~id:!next ~classes_mine:ctx.own_classes
          ~readable
      in
      next := !next + workers;
      exec ctx d;
      (* read-only streaks publish nothing on their own; requests from
         waiters and the coordinator are still served between
         transactions *)
      service_repub ctx
    done;
    publish_final ctx;
    ctx.x
  in
  let poll = coordinator sh s.s_walls ~rotate_every_s None in
  let t0 = Unix.gettimeofday () in
  let results =
    Crew.run sh.crew ~poll worker ~feed:(fun () ->
        let deadline = t0 +. seconds in
        while Unix.gettimeofday () < deadline && not (Crew.failed sh.crew) do
          poll ();
          Wait.nap ()
        done;
        Crew.halt sh.crew)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let metrics = Hdd_obs.Metrics.create () in
  let hist = Hdd_obs.Metrics.histogram metrics "commit_latency_us" in
  Array.iter
    (fun (x : Executor.state) ->
      for i = 0 to x.lat_n - 1 do
        Hdd_obs.Metrics.observe hist (x.lat.(i) *. 1e6)
      done)
    results;
  { t_stats = stats_of results s.s_walls;
    t_elapsed_s = elapsed;
    t_latency = metrics }

(* --- allocation probe ---

   A single-domain steady-state Protocol B commit loop: one writer
   class, one write + one own-segment read per transaction, publication
   deferred (publish_every = max_int), trace off, outcomes off — the
   pure commit path.  Periodic maintenance (watermark + prune) keeps
   the packed store and the registry window index at steady capacity so
   in-place compaction absorbs all growth.

   Bytes per commit are measured by differencing an N-commit window and
   a 2N-commit window, which cancels the constant allocation of the
   measurement itself (Gc.allocated_bytes boxes its result). *)

let probe_maintain ctx =
  let now = Gclock.now ctx.sh.clock in
  Pstore.set_watermark ctx.sh.seg_stores.(0) now;
  Registry.prune ctx.registry ~upto:(now - 1)

let rec probe_run ctx descs i n =
  if i < n then begin
    if i land 255 = 0 then probe_maintain ctx;
    exec ctx (Array.unsafe_get descs (i land 7));
    probe_run ctx descs (i + 1) n
  end

let alloc_probe ?(commits = 20_000) () =
  let partition =
    P.build_exn
      (Hdd_core.Spec.make ~segments:[ "D0" ]
         ~types:[ Hdd_core.Spec.txn_type ~name:"t0" ~writes:[ 0 ] ~reads:[ 0 ] ])
  in
  let s =
    setup ~partition
      ~init:(fun _ -> 0)
      ~workers:1 ~traced:false ~publish_every:max_int
  in
  let ctx =
    fresh_wctx s.s_sh ~me:0 ~registry:s.s_regs.(0) ~trace:None
      ~keep_outcomes:false ~timed:false
  in
  let descs =
    Array.init 8 (fun i ->
        let g = Granule.make ~segment:0 ~key:i in
        { d_id = i + 1; d_kind = `Update 0; d_ops = [ Write (g, i); Read g ];
          d_abort = false })
  in
  (* reach steady-state capacities before measuring *)
  probe_run ctx descs 0 4096;
  let b0 = Gc.allocated_bytes () in
  probe_run ctx descs 0 commits;
  let b1 = Gc.allocated_bytes () in
  probe_run ctx descs 0 (2 * commits);
  let b2 = Gc.allocated_bytes () in
  ((b2 -. b1) -. (b1 -. b0)) /. float_of_int commits

module T = Hdd_obs.Trace
module P = Hdd_core.Partition
module TW = Hdd_core.Timewall
module Pstore = Hdd_mvstore.Pstore
module E = Hdd_runtime.Engine
module X = Hdd_runtime.Executor
module Wait = Hdd_runtime.Wait

type config = { traced : bool; publish_every : int }

let default_config = { traced = true; publish_every = 1 }

(* The latest accepted publication of a remote shard. *)
type rpub = {
  r_seq : int;
  r_upto : Time.t;
  r_marks : int array;
  r_snap : Registry.snapshot;
}

type t = {
  nseg : int;
  shards : int;
  me : int;
  init_fn : Granule.t -> int;
  net : Transport.t;
  clock : Sclock.t;
  registry : Registry.t;
  x : X.state;
      (** the executor state; its stores hold own segments
          authoritatively and remote ones as a delta-replicated cache *)
  applied : int array;  (** delta messages applied, per segment *)
  sent_marks : int array;  (** delta messages broadcast, per own segment *)
  mutable pub_seq : int;
  rpubs : rpub option array;  (** per shard *)
  mutable wall : TW.wall;
  walls : TW.coordinator;  (** released from on shard 0 only *)
  mutable last_seen : Time.t;  (** clock value at the last wall attempt *)
  name : string;  (** the waiter a stalled wait names *)
  mutable wait_step : int -> unit;  (** publish, the [on_wait] hook, pump *)
  (* process-mode work dispatch *)
  work : E.desc Queue.t;
  mutable drain_seen : bool;
  mutable bye : bool;
  (* 2PC baseline server state, per own segment *)
  locked : bool array;
  lock_waiters : (int * int) Queue.t array;  (** (requester shard, req) *)
  (* 2PC baseline client state *)
  mutable next_req : int;
  lock_replies : (int, bool) Hashtbl.t;
  read_replies : (int, (Time.t * int) list) Hashtbl.t;
}

let now t = Sclock.now t.clock
let owner t class_id = class_id mod t.shards
let outcomes t = List.rev t.x.outcomes
let records t = match t.x.trace with None -> [] | Some tr -> T.records tr
let take_work t = Queue.take_opt t.work
let drained t = t.drain_seen
let bye_seen t = t.bye

let stats t = Hdd_obs.Counters.add t.x.c t.walls.c

let counters t =
  let c = stats t in
  { Wire.k_committed = c.committed;
    k_aborted = c.aborted;
    k_reads_a = c.reads_a;
    k_reads_b = c.reads_b;
    k_reads_c = c.reads_c;
    k_writes = c.writes;
    k_stale_waits = c.stale_waits;
    k_wall_releases = c.wall_releases;
    k_wall_lag_sum = c.wall_lag_sum;
    k_wall_lag_max = c.wall_lag_max }

(* --- publications --- *)

(* The publication names the live registry and marks: every carrier
   encodes a packet inside [send], so each frame is the state at its
   send, with nothing frozen or copied (transport.mli). *)
let publish_upto t upto =
  X.published t.x;
  t.pub_seq <- t.pub_seq + 1;
  Transport.broadcast t.net ~stamp:(Sclock.now t.clock)
    (Wire.Pub
       { p_shard = t.me;
         p_seq = t.pub_seq;
         p_upto = upto;
         p_marks = t.sent_marks;
         p_act = Wire.Live t.registry })

(* The capture reads the clock first, so [upto] never claims more than
   the frames hold: everything of this shard's initiating later ticks
   later. *)
let publish t = publish_upto t (Sclock.now t.clock)
let publish_final t = publish_upto t max_int

(* --- receiving --- *)

let apply_delta t (d : Wire.delta) =
  (* per key, deltas arrive in ascending timestamp order: one owner
     commits them in that order and the transport is FIFO *)
  let store = t.x.stores.(d.Wire.dl_segment) in
  List.iter
    (fun (key, ts, value) -> Pstore.add_commit store ~key ~ts ~value)
    d.Wire.dl_versions;
  t.applied.(d.Wire.dl_segment) <- t.applied.(d.Wire.dl_segment) + 1

let serve_local t ~segment ~key ~th =
  match Pstore.latest_before_pair t.x.stores.(segment) ~key ~ts:th with
  | Some (vts, v) -> [ (vts, v) ]
  | None -> []

let handle t (pkt : Wire.packet) =
  Sclock.catch_up t.clock pkt.Wire.stamp;
  match pkt.Wire.msg with
  | Wire.Pub p ->
    let keep =
      match t.rpubs.(p.Wire.p_shard) with
      | Some old -> old.r_seq < p.Wire.p_seq
      | None -> true
    in
    if keep then
      t.rpubs.(p.Wire.p_shard) <-
        Some
          { r_seq = p.Wire.p_seq;
            r_upto = p.Wire.p_upto;
            r_marks = p.Wire.p_marks;
            r_snap =
              (match p.Wire.p_act with
              | Wire.Frozen s -> s
              | Wire.Live _ ->
                invalid_arg "Node: a publication that crossed no wire") }
  | Wire.Delta d -> apply_delta t d
  | Wire.Wall w ->
    if w.TW.released_at > t.wall.TW.released_at then begin
      let advanced = w.TW.m > t.wall.TW.m in
      t.wall <- w;
      (* wall-driven registry GC, as in the serial scheduler: no
         composition or wall query ever reaches below the wall's
         argument [m], so windows closed under it are dead weight —
         and publication cost is O(retained windows), so without this
         every snapshot broadcast grows with history *)
      if advanced then Registry.prune t.registry ~upto:(w.TW.m - 1)
    end
  | Wire.Exec d -> Queue.add d t.work
  | Wire.Drain -> t.drain_seen <- true
  | Wire.Bye _ -> t.bye <- true
  | Wire.Lock_req { req; segment } ->
    if segment < 0 || segment >= t.nseg || owner t segment <> t.me then
      invalid_arg "Node: lock request for a segment this shard does not own";
    if t.locked.(segment) then Queue.add (pkt.Wire.src, req) t.lock_waiters.(segment)
    else begin
      t.locked.(segment) <- true;
      Transport.send_to t.net ~dst:pkt.Wire.src ~stamp:(Sclock.now t.clock)
        (Wire.Lock_reply { req; granted = true })
    end
  | Wire.Unlock { segment } -> (
    match Queue.take_opt t.lock_waiters.(segment) with
    | Some (dst, req) ->
      Transport.send_to t.net ~dst ~stamp:(Sclock.now t.clock)
        (Wire.Lock_reply { req; granted = true })
    | None -> t.locked.(segment) <- false)
  | Wire.Read_req { req; segment; key; threshold } ->
    Transport.send_to t.net ~dst:pkt.Wire.src ~stamp:(Sclock.now t.clock)
      (Wire.Read_reply
         { req; slice = serve_local t ~segment ~key ~th:threshold })
  | Wire.Lock_reply { req; granted } -> Hashtbl.replace t.lock_replies req granted
  | Wire.Read_reply { req; slice } -> Hashtbl.replace t.read_replies req slice
  | Wire.Outcome _ | Wire.Trace_slice _ -> ()  (* router traffic, not ours *)

(* --- the wall coordinator (shard 0) --- *)

(* The wall lookups for {!TW.attempt}.  Own classes answer from the
   live registry, exact up to the attempt's clock [last_seen] (nothing
   commits during an attempt); remote ones from their owner's latest
   publication.  An argument beyond either raises [Stale]. *)
let wall_upto t c =
  if owner t c = t.me then t.last_seen
  else
    match t.rpubs.(owner t c) with
    | Some p -> p.r_upto
    | None -> raise TW.Stale

let wall_i_old t ~class_id ~at =
  if wall_upto t class_id < at then raise TW.Stale
  else if owner t class_id = t.me then Registry.i_old t.registry ~class_id ~at
  else
    Registry.snap_i_old (Option.get t.rpubs.(owner t class_id)).r_snap
      ~class_id ~at

let wall_c_late t ~class_id ~at =
  if wall_upto t class_id < at then raise TW.Stale
  else if owner t class_id = t.me then Registry.c_late t.registry ~class_id ~at
  else
    Registry.snap_c_late (Option.get t.rpubs.(owner t class_id)).r_snap
      ~class_id ~at

let coordinator_attempt t =
  let now_ = Sclock.now t.clock in
  if now_ <> t.last_seen then begin
    t.last_seen <- now_;
    match
      Array.init t.nseg (fun c -> wall_i_old t ~class_id:c ~at:(wall_upto t c))
    with
    | exception TW.Stale -> ()
    | q -> (
      match
        TW.attempt t.walls wall_i_old wall_c_late t ~q
          ~tick:(fun () -> Sclock.tick t.clock)
      with
      | Some wall ->
        t.wall <- wall;
        Transport.broadcast t.net ~stamp:wall.TW.released_at (Wire.Wall wall);
        Registry.prune t.registry ~upto:(wall.TW.m - 1)
      | None -> ())
  end

let pump t =
  let rec drain () =
    match t.net.Transport.poll () with
    | Some pkt ->
      handle t pkt;
      drain ()
    | None -> ()
  in
  drain ();
  if t.me = 0 then coordinator_attempt t

(* --- waiting --- *)

(* A wait's step: republish, run the hook, pump.  Republishing our own
   activity is what unblocks a peer that is itself waiting for our
   coverage; the hook lets the cluster pump other nodes (deterministic
   mode) or yield the core (domain/process mode).  The first step of a
   wait counts it as stale.  Built once per hook, so a wait allocates
   no step. *)
let set_on_wait t on_wait =
  t.wait_step <-
    (fun n ->
      if n = 0 then t.x.c.stale_waits <- t.x.c.stale_waits + 1;
      publish t;
      on_wait ();
      pump t)

(* Step until [check] holds, bounded by {!Hdd_runtime.Wait.until}'s
   budget.  [why] names what is awaited and runs only if the wait
   stalls. *)
let await t ~why check =
  Wait.until ~waiter:t.name ~awaited:why ~step:t.wait_step check

(* The owner's publication covering argument [m] — the step of the
   threshold composition that crosses a shard boundary. *)
let await_pub t ~class_id m =
  let ow = owner t class_id in
  await t
    ~why:(fun () ->
      Printf.sprintf "a publication of shard %d covering %d" ow m)
    (fun () ->
      match t.rpubs.(ow) with Some p -> p.r_upto >= m | None -> false);
  match t.rpubs.(ow) with Some p -> p | None -> assert false

(* Protocol A's lookup for {!Hdd_core.Activity.compose}: local classes
   from the live registry, remote ones from received publications. *)
let a_i_old t ~class_id ~at =
  if owner t class_id = t.me then Registry.i_old t.registry ~class_id ~at
  else Registry.snap_i_old (await_pub t ~class_id at).r_snap ~class_id ~at

(* Wait until the cache of remote segment [seg] provably holds every
   committed version below [th]: the owner's publication must cover the
   times queried, show class [seg] quiescent {e strictly} below [th],
   and every delta the publication counts must have been applied here.
   Strictly: versions carry their writer's initiation time and
   [latest_before]/the monitors are exclusive at the threshold, so a
   transaction initiated {e at} [th] can never serve — quiescence at
   [th - 1] is enough.  That exactness is what makes the wait cheap:
   [th] is typically an [I_old], the initiation time of the owner's
   oldest {e active} transaction, and the same snapshot that yielded it
   already shows everything below it finished — demanding [c_late]
   computable at [th] itself would stall every cross-shard read behind
   the owner's in-flight transaction.  A dropped or stale publication
   just fails the check a while longer — waiting, never
   inconsistency. *)
let await_store t ~seg ~th =
  let ow = owner t seg in
  await t
    ~why:(fun () ->
      Printf.sprintf "segment D%d of shard %d to quiesce below %d" seg ow th)
    (fun () ->
      match t.rpubs.(ow) with
      | None -> false
      | Some p ->
        p.r_upto >= th - 1
        && t.applied.(seg) >= p.r_marks.(seg)
        && (match Registry.snap_c_late p.r_snap ~class_id:seg ~at:(th - 1) with
           | Ok _ -> true
           | Error _ -> false))

(* --- transaction execution --- *)

(* The node as the executor's substrate: its strided clock, its live
   registry, received publications for remote activity, the delta cache
   behind [await_store] for remote and walled reads, and one [Delta]
   broadcast per commit.  A node runs each of its classes one
   transaction at a time, so it registers through the registry's packed
   single-active path. *)
module Substrate = struct
  type nonrec t = t

  let name = "Shard node"
  let tick t = Sclock.tick t.clock
  let owns t seg = owner t seg = t.me
  let escalated _ _ = false

  let open_window t ~class_id ~id =
    let init = Sclock.tick t.clock in
    Registry.register_active t.registry ~class_id ~id ~init;
    init

  let close_window t ~class_id ~init:_ =
    let e = Sclock.tick t.clock in
    Registry.finish_active t.registry ~class_id ~endt:e;
    e

  let a_i_old = a_i_old

  let read_remote t ~seg ~key ~th =
    await_store t ~seg ~th;
    Pstore.latest_before t.x.stores.(seg) ~key ~ts:th

  let wall t = t.wall

  (* th = 0 can only serve the bootstrap value — nothing to wait for *)
  let read_walled t ~seg ~key ~th =
    if owner t seg <> t.me && th > Time.zero then await_store t ~seg ~th;
    Pstore.latest_before t.x.stores.(seg) ~key ~ts:th

  (* replicate before publishing: by the time any publication shows
     this transaction finished, its versions are already on the wire
     (FIFO), so a reader passing the marks check holds them.  An update
     writes only its root segment, so one delta carries the commit. *)
  let install t (x : X.state) ~class_id ~ts =
    if x.wb_len > 0 then begin
      Transport.broadcast t.net ~stamp:(Sclock.now t.clock)
        (Wire.Delta
           { dl_shard = t.me;
             dl_segment = class_id;
             dl_versions =
               List.init x.wb_len (fun i -> (x.wb_keys.(i), ts, x.wb_vals.(i)))
           });
      t.sent_marks.(class_id) <- t.sent_marks.(class_id) + 1
    end

  (* deltas ship at every commit; batching delays only how soon peers
     see refreshed activity, and [await] republishes unconditionally *)
  let publish = publish
  let between _ = ()
end

module Exec = X.Make (Substrate)

let exec t d = Exec.exec t t.x d

(* --- the 2PC-read baseline --- *)

let bootstrap t g = (Time.zero, t.init_fn g)

let serve t ~segment ~key ~th =
  match serve_local t ~segment ~key ~th with
  | (vts, v) :: _ -> (vts, v)
  | [] -> bootstrap t (Granule.make ~segment ~key)

let read_2pc t ~segment ~key =
  t.x.c.reads_a <- t.x.c.reads_a + 1;
  if owner t segment = t.me then
    serve t ~segment ~key ~th:max_int
  else begin
    let ow = owner t segment in
    let req = t.next_req in
    t.next_req <- t.next_req + 1;
    Transport.send_to t.net ~dst:ow ~stamp:(Sclock.now t.clock)
      (Wire.Lock_req { req; segment });
    await t
      ~why:(fun () -> Printf.sprintf "lock grant for D%d" segment)
      (fun () -> Hashtbl.mem t.lock_replies req);
    Hashtbl.remove t.lock_replies req;
    Transport.send_to t.net ~dst:ow ~stamp:(Sclock.now t.clock)
      (Wire.Read_req { req; segment; key; threshold = max_int });
    await t
      ~why:(fun () -> Printf.sprintf "read reply for D%d" segment)
      (fun () -> Hashtbl.mem t.read_replies req);
    let slice =
      match Hashtbl.find_opt t.read_replies req with
      | Some s -> s
      | None -> []
    in
    Hashtbl.remove t.read_replies req;
    Transport.send_to t.net ~dst:ow ~stamp:(Sclock.now t.clock)
      (Wire.Unlock { segment });
    match slice with
    | (vts, v) :: _ -> (vts, v)
    | [] -> bootstrap t (Granule.make ~segment ~key)
  end

let commit_local t ~segment ~key ~value =
  if owner t segment <> t.me then
    invalid_arg "Node.commit_local: not an owned segment";
  let ts = Sclock.tick t.clock in
  Pstore.add_commit t.x.stores.(segment) ~key ~ts ~value;
  t.x.c.writes <- t.x.c.writes + 1;
  t.x.c.committed <- t.x.c.committed + 1

(* --- creation --- *)

let create ?(config = default_config) ~partition ~init ~net () =
  let shards = net.Transport.nodes and me = net.Transport.me in
  let nseg = P.segment_count partition in
  let clock = Sclock.create ~shards ~me in
  let trace =
    if config.traced then Some (T.create ~domain:(me + 1) ()) else None
  in
  (* shard 0 alone releases walls, so only its trace records them *)
  let walls =
    TW.coordinator ?trace:(if me = 0 then trace else None) partition
  in
  (* The bootstrap wall, identical on every node without a message:
     components all 1 — the only version below 1 is the bootstrap
     value, and no tick ever stamps below 1, so it is sound forever —
     released "at" 0, before every initiation, so read-only work never
     finds the slot empty.  (All-zero components would be sound too,
     but a C-read at threshold 0 would have to serve version 0, which
     the monitors rightly reject as not-below-threshold.) *)
  let wall0 = TW.initial walls ~m:1 ~released_at:Time.zero in
  let t =
    { nseg;
      shards;
      me;
      init_fn = init;
      net;
      clock;
      registry = Registry.create ?trace ~classes:nseg ();
      x =
        X.state ~partition ~stores:(Array.init nseg (fun _ -> Pstore.create ()))
          ~trace ~keep_outcomes:true
          ~publish_every:(Int.max 1 config.publish_every)
          ~timed:false;
      applied = Array.make nseg 0;
      sent_marks = Array.make nseg 0;
      pub_seq = 0;
      rpubs = Array.make shards None;
      wall = wall0;
      walls;
      last_seen = -1;
      name = Printf.sprintf "shard %d" me;
      wait_step = ignore;
      work = Queue.create ();
      drain_seen = false;
      bye = false;
      locked = Array.make nseg false;
      lock_waiters = Array.init nseg (fun _ -> Queue.create ());
      next_req = 0;
      lock_replies = Hashtbl.create 16;
      read_replies = Hashtbl.create 16 }
  in
  set_on_wait t ignore;
  t

type wall = {
  s : int;
  m : Time.t;
  components : Time.t array;
  released_at : Time.t;
}

let threshold wall ~class_id = wall.components.(class_id)

let to_vector wall = Array.copy wall.components

let make ~s ~m ~components ~released_at =
  { s; m; components = Array.copy components; released_at }

(* Choose one lowest class per connected component of the hierarchy. *)
let component_starts (partition : Partition.t) =
  let n = Partition.segment_count partition in
  let starts = Array.make n (-1) in
  let lowest = Partition.lowest_classes partition in
  for i = 0 to n - 1 do
    match
      List.find_opt
        (fun s -> Partition.ucp partition s i <> None)
        lowest
    with
    | Some s -> starts.(i) <- s
    | None ->
      (* isolated node: it is its own (trivially lowest) start *)
      starts.(i) <- i
  done;
  starts

(* E_s^i(m) for every class i, each from its component's start *)
let components i_old c_late src partition starts m =
  let n = Array.length starts in
  let out = Array.make n Time.zero in
  let rec fill i =
    if i >= n then Ok out
    else
      match
        Activity.walk i_old c_late src partition
          (Option.get (Partition.ucp partition starts.(i) i))
          m
      with
      | Ok v ->
        out.(i) <- v;
        fill (i + 1)
      | Error id -> Error id
  in
  fill 0

let compute (ctx : Activity.ctx) ~m =
  components Registry.i_old Registry.c_late ctx.Activity.registry
    ctx.Activity.partition
    (component_starts ctx.Activity.partition)
    m

type coordinator = {
  partition : Partition.t;
  starts : int array;
  primary : int;
  trace : Hdd_obs.Trace.t option;
  mutable last_m : Time.t;
  c : Hdd_obs.Counters.t;
}

let coordinator ?trace partition =
  { partition;
    starts = component_starts partition;
    primary =
      (match Partition.lowest_classes partition with s :: _ -> s | [] -> 0);
    trace;
    last_m = Time.zero;
    c = Hdd_obs.Counters.create () }

let recorded co wall =
  (match co.trace with
  | Some tr ->
    Hdd_obs.Trace.emit tr ~at:wall.released_at
      (Hdd_obs.Trace.Wall_release
         { m = wall.m; released_at = wall.released_at;
           components = Array.copy wall.components })
  | None -> ());
  wall

let initial co ~m ~released_at =
  recorded co
    { s = co.primary; m; components = Array.make (Array.length co.starts) m;
      released_at }

let release co ~m ~components ~released_at =
  co.last_m <- m;
  let c = co.c and lag = released_at - m in
  c.wall_releases <- c.wall_releases + 1;
  c.wall_lag_sum <- c.wall_lag_sum + lag;
  if lag > c.wall_lag_max then c.wall_lag_max <- lag;
  recorded co { s = co.primary; m; components; released_at }

exception Stale

let attempt co i_old c_late src ~q ~tick =
  let m = Array.fold_left Time.min max_int q in
  (* m = max_int: every class has left for good, a wall there would be
     meaningless *)
  if m <= co.last_m || m = max_int then None
  else
    match components i_old c_late src co.partition co.starts m with
    | Ok components when not (Array.exists2 ( > ) components q) ->
      Some (release co ~m ~components ~released_at:(tick ()))
    | Ok _ | Error _ | (exception Stale) -> None

type manager = {
  ctx : Activity.ctx;
  clock : Time.Clock.clock;
  co : coordinator;
  mutable walls : wall list;  (* newest first, never empty *)
}

let try_release mgr =
  let m = Time.Clock.tick mgr.clock in
  match compute mgr.ctx ~m with
  | Error id as e ->
    (match mgr.co.trace with
    | None -> ()
    | Some tr ->
      Hdd_obs.Trace.emit tr ~at:m (Hdd_obs.Trace.Wall_blocked { on = id }));
    e
  | Ok components ->
    let wall =
      release mgr.co ~m ~components ~released_at:(Time.Clock.tick mgr.clock)
    in
    mgr.walls <- wall :: mgr.walls;
    Ok wall

let create ?trace ctx ~clock =
  let co = coordinator ?trace ctx.Activity.partition in
  let mgr = { ctx; clock; co; walls = [] } in
  (match try_release mgr with
  | Ok _ -> ()
  | Error _ ->
    (* cannot happen: create is called before any transaction begins, but
       guard against misuse by installing a trivial wall *)
    let m = Time.Clock.tick clock in
    mgr.walls <- [ initial co ~m ~released_at:(Time.Clock.tick clock) ];
    co.c.wall_releases <- 1);
  mgr

let latest_before mgr t =
  let rec go = function
    | [] -> None
    | w :: rest -> if w.released_at < t then Some w else go rest
  in
  go mgr.walls

let current mgr =
  match mgr.walls with
  | w :: _ -> w
  | [] -> assert false

let released mgr = List.rev mgr.walls

let release_count mgr = mgr.co.c.wall_releases

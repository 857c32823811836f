module Spec = Hdd_core.Spec
module P = Hdd_core.Partition
module Sched = Hdd_core.Scheduler
module Store = Hdd_mvstore.Store
module Chain = Hdd_mvstore.Chain
module T = Hdd_obs.Trace

type t = {
  trace : T.t option;
  wall_every_commits : int;
  clock : Time.Clock.clock;  (* carried across every swap *)
  mutable spec : Spec.t;
  mutable partition : P.t;
  mutable store : int Store.t;
  mutable sched : int Sched.t;
  mutable cur_init : Granule.t -> int;  (* current address space *)
  mutable remap : Granule.t -> Granule.t;  (* original -> current *)
  mutable epoch : int;
  (* values the current store serves from bootstrap: committed in some
     pre-swap epoch, keyed by current address.  The store only dumps
     versions committed since its own creation, so without this table a
     second swap would silently drop everything the first one carried. *)
  mutable inherited : (Granule.t, Time.t * int * int) Hashtbl.t;
}

let create ?trace ?(wall_every_commits = 16) ~spec ~init () =
  let partition = P.build_exn spec in
  let clock = Time.Clock.create () in
  let store = Store.create ~segments:(Spec.segment_count spec) ~init in
  let sched =
    Sched.create ?trace ~wall_every_commits ~partition ~clock ~store ()
  in
  { trace;
    wall_every_commits;
    clock;
    spec;
    partition;
    store;
    sched;
    cur_init = init;
    remap = Fun.id;
    epoch = 0;
    inherited = Hashtbl.create 64 }

let spec t = t.spec
let partition t = t.partition
let scheduler t = t.sched
let epoch t = t.epoch

let value t g =
  let g = t.remap g in
  match Store.latest_committed t.store g with
  | Some v -> v.Chain.value
  | None -> t.cur_init g

let active t =
  let m = Sched.metrics t.sched in
  m.Sched.begins - m.Sched.committed - m.Sched.aborted

(* Latest committed value of every written granule — the current
   store's committed versions overlaid on what earlier swaps already
   carried — remapped into the new address space.  Collisions (two
   merged granules with one key) resolve to the newest version; equal
   timestamps (one transaction wrote both colliding granules) break to
   the granule committed under the lower segment id, deterministically
   whatever order the tables iterate in. *)
let carry t map_granule =
  let carried : (Granule.t, Time.t * int * int) Hashtbl.t =
    Hashtbl.create 64
  in
  let add g' ((ts, tie, _) as entry) =
    match Hashtbl.find_opt carried g' with
    | Some (ts0, tie0, _) when ts0 > ts || (ts0 = ts && tie0 <= tie) -> ()
    | _ -> Hashtbl.replace carried g' entry
  in
  Hashtbl.iter (fun g entry -> add (map_granule g) entry) t.inherited;
  List.iter
    (fun (g, versions) ->
      match List.rev versions with
      | [] -> ()
      | (ts, v) :: _ -> add (map_granule g) (ts, g.Granule.segment, v))
    (Store.dump t.store);
  carried

(* The swap itself: wall barrier, then spec/partition/store/scheduler
   replaced under the carried clock and a bumped epoch.  [map_granule]
   and [unmap_segment] translate between the old and new address
   spaces (current -> new, and new segment -> old segment for the init
   fallback). *)
let swap t ~new_spec ~new_partition ~kind ~moved ~map_granule ~unmap_segment =
  ignore (Sched.release_wall t.sched);
  let carried = carry t map_granule in
  let old_init = t.cur_init in
  let new_init g =
    match Hashtbl.find_opt carried g with
    | Some (_, _, v) -> v
    | None -> old_init { g with Granule.segment = unmap_segment g.Granule.segment }
  in
  let store =
    Store.create ~segments:(Spec.segment_count new_spec) ~init:new_init
  in
  let sched =
    Sched.create ?trace:t.trace ~wall_every_commits:t.wall_every_commits
      ~partition:new_partition ~clock:t.clock ~store ()
  in
  let old_remap = t.remap in
  t.inherited <- carried;
  t.spec <- new_spec;
  t.partition <- new_partition;
  t.store <- store;
  t.sched <- sched;
  t.cur_init <- new_init;
  t.remap <- (fun g -> map_granule (old_remap g));
  t.epoch <- t.epoch + 1;
  match t.trace with
  | None -> ()
  | Some tr ->
    T.emit tr
      ~at:(Time.Clock.tick t.clock)
      (T.Repartition
         { epoch = t.epoch; kind; moved; fresh_store = true })

let apply t move =
  if active t > 0 then
    invalid_arg
      (Printf.sprintf "Exec.apply: %d transactions still active" (active t));
  match move with
  | Advise.Migrate { class_id; _ } ->
    if class_id < 0 || class_id >= Spec.segment_count t.spec then
      Error (Printf.sprintf "migrate: no class %d" class_id)
    else begin
      (* ownership lives in the multicore engine; serially a migration
         is only the epoch bump and its trace record *)
      ignore (Sched.release_wall t.sched);
      t.epoch <- t.epoch + 1;
      (match t.trace with
      | None -> ()
      | Some tr ->
        T.emit tr
          ~at:(Time.Clock.tick t.clock)
          (T.Repartition
             { epoch = t.epoch;
               kind = "migrate";
               moved = [ class_id ];
               fresh_store = false }));
      Ok ()
    end
  | Advise.Merge { a; b } ->
    let n = Spec.segment_count t.spec in
    if a = b || a < 0 || b < 0 || a >= n || b >= n then
      Error (Printf.sprintf "merge: invalid pair (%d, %d)" a b)
    else begin
      let new_spec, map = Advise.merge_spec t.spec ~a ~b in
      match P.build new_spec with
      | Error e -> Error ("merge: " ^ P.error_to_string e)
      | Ok new_partition ->
        (* merged target keeps [a]'s name; for untouched granules the
           lowest original segment mapping there provides the init *)
        let inverse = Array.make (Spec.segment_count new_spec) max_int in
        Array.iteri
          (fun old nw -> inverse.(nw) <- Int.min inverse.(nw) old)
          map;
        swap t ~new_spec ~new_partition ~kind:"merge" ~moved:[ a; b ]
          ~map_granule:(fun g ->
            { g with Granule.segment = map.(g.Granule.segment) })
          ~unmap_segment:(fun s -> inverse.(s));
        Ok ()
    end
  | Advise.Split { segment; pivot } ->
    let n = Spec.segment_count t.spec in
    if segment < 0 || segment >= n then
      Error (Printf.sprintf "split: no segment %d" segment)
    else if pivot <= 0 then Error "split: pivot must be positive"
    else begin
      let new_spec = Advise.split_spec t.spec ~segment in
      match P.build new_spec with
      | Error e -> Error ("split: " ^ P.error_to_string e)
      | Ok new_partition ->
        let child = n in
        swap t ~new_spec ~new_partition ~kind:"split" ~moved:[ segment; child ]
          ~map_granule:(fun g ->
            if g.Granule.segment = segment && g.Granule.key >= pivot then
              { g with Granule.segment = child }
            else g)
          ~unmap_segment:(fun s -> if s = child then segment else s);
        Ok ()
    end

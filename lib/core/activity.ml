type 's i_old = 's -> class_id:int -> at:Time.t -> Time.t

type 's c_late = 's -> class_id:int -> at:Time.t -> (Time.t, Txn.id) result

let critical_path partition ~from_class ~to_class =
  match Partition.critical_path partition from_class to_class with
  | Some path -> path
  | None ->
    invalid_arg
      (Printf.sprintf "Activity: no critical path from T%d to T%d" from_class
         to_class)

(* A_i^j(m) composes I_old over the successive classes of CP_i^j,
   excluding the starting class itself.  Top-level recursion over a
   closed lookup: nothing is allocated. *)
let rec fold_up i_old src m = function
  | [] -> m
  | cls :: rest -> fold_up i_old src (i_old src ~class_id:cls ~at:m) rest

let compose i_old src partition ~from_class ~to_class m =
  match critical_path partition ~from_class ~to_class with
  | [] -> m
  | _ :: above -> fold_up i_old src m above

(* Up-steps (u -> v critical arc, v higher) apply I_old at the target
   class, composing like A.  Down-steps (v -> u critical arc, v lower)
   apply C_late at the *source* class u — the B composition excludes
   the bottom class of each descent, so the application happens where
   the step starts, not where it lands. *)
let rec walk i_old c_late src (partition : Partition.t) path m =
  match path with
  | [] | [ _ ] -> Ok m
  | u :: (v :: _ as rest) ->
    if Hdd_graph.Digraph.mem_arc partition.Partition.reduction u v then
      walk i_old c_late src partition rest (i_old src ~class_id:v ~at:m)
    else (
      match c_late src ~class_id:u ~at:m with
      | Ok m' -> walk i_old c_late src partition rest m'
      | Error _ as e -> e)

type cache_entry = {
  mutable arg : Time.t;
  mutable stamp : int;
  mutable value : Time.t;
}

type pair_cache = (int * int, cache_entry) Hashtbl.t

type ctx = {
  partition : Partition.t;
  registry : Registry.t;
  cache : pair_cache;
}

let make_ctx partition registry =
  { partition; registry; cache = Hashtbl.create 32 }

let i_old ctx ~class_id m = Registry.i_old ctx.registry ~class_id ~at:m

let c_late ctx ~class_id m = Registry.c_late ctx.registry ~class_id ~at:m

(* a_fn_trace's lookup: the live registry, every answer recorded *)
type recorder = { reg : Registry.t; mutable steps : (int * Time.t) list }

let record r ~class_id ~at =
  let v = Registry.i_old r.reg ~class_id ~at in
  r.steps <- (class_id, v) :: r.steps;
  v

let a_fn_trace ctx ~from_class ~to_class m =
  let r = { reg = ctx.registry; steps = [ (from_class, m) ] } in
  ignore (compose record r ctx.partition ~from_class ~to_class m);
  List.rev r.steps

let a_fn ctx ~from_class ~to_class m =
  match critical_path ctx.partition ~from_class ~to_class with
  | [] | [ _ ] -> m  (* from = to: the identity (§5.0 hosting) *)
  | _ :: rest ->
    (* Per-(class-pair) composition cache.  The composed value depends
       only on the argument and on the activity of the classes I_old is
       applied at, so a cached value is valid while every such class's
       registry generation is unchanged.  Generations are monotone, which
       lets one summed stamp stand in for the whole vector: the sum is
       equal iff every component is. *)
    let stamp =
      List.fold_left
        (fun s cls -> s + Registry.generation ctx.registry ~class_id:cls)
        0 rest
    in
    let key = (from_class, to_class) in
    (match Hashtbl.find_opt ctx.cache key with
    | Some e when e.arg = m && e.stamp = stamp -> e.value
    | found ->
      let value = fold_up Registry.i_old ctx.registry m rest in
      (match found with
      | Some e ->
        e.arg <- m;
        e.stamp <- stamp;
        e.value <- value
      | None -> Hashtbl.add ctx.cache key { arg = m; stamp; value });
      value)

(* B walks the critical path top-down, so every step is a down-step and
   C_late applies at every class except the bottom one ([from]), the
   mirror image of A applying I_old at every class except the bottom:
   only then do Properties 2.1 (A∘B >= id) and 2.2 (A∘(B - eps) < id)
   hold. *)
let b_fn ctx ~from_class ~to_class m =
  let path = critical_path ctx.partition ~from_class ~to_class in
  walk Registry.i_old Registry.c_late ctx.registry ctx.partition
    (List.rev path) m

let e_fn ctx ~s ~i m =
  match Partition.ucp ctx.partition s i with
  | None ->
    invalid_arg
      (Printf.sprintf "Activity.e_fn: T%d and T%d are not connected" s i)
  | Some path ->
    walk Registry.i_old Registry.c_late ctx.registry ctx.partition path m

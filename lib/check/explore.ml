module Controller = Hdd_sim.Controller
module Harness = Hdd_sim.Harness
module Workload = Hdd_sim.Workload
module Certifier = Hdd_core.Certifier
module Partition = Hdd_core.Partition
module Outcome = Hdd_core.Outcome

type op = Read of Granule.t | Write of Granule.t * int

type prog = {
  label : string;
  kind : Controller.kind;
  ops : op list;
}

type workload = {
  name : string;
  partition : Partition.t;
  init : Granule.t -> int;
  progs : prog list;
}

let total_steps wl =
  List.fold_left (fun acc p -> acc + 2 + List.length p.ops) 0 wl.progs

type system = {
  sys_name : string;
  build : log:Sched_log.t -> workload -> Controller.t;
}

let system_of_spec spec =
  { sys_name = Harness.spec_name spec;
    build =
      (fun ~log wl ->
        (* Harness.make only consults the partition, the init function
           and the segment count; the template list is the runner's
           concern and stays empty here. *)
        let fake =
          { Workload.wl_name = wl.name;
            partition = wl.partition;
            templates = [];
            init = wl.init }
        in
        Harness.make ~log spec fake) }

let hdd = system_of_spec Harness.Hdd

(* A system variant with a trace sink threaded to the HDD scheduler.
   [wall_every_commits] defaults to 2 so even the tiny curated scenarios
   release walls and collect garbage — the events the golden traces and
   the monitor-over-scenarios test exist to see.  Meant for
   {!run_schedule} (one controller per call); [explore] rebuilds
   controllers per branch, which restarts transaction ids and would
   confuse any monitor attached to the shared trace. *)
let hdd_traced ?(wall_every_commits = 2) trace =
  { sys_name = "HDD-traced";
    build =
      (fun ~log wl ->
        Hdd_sim.Adapters.hdd ~log ~trace ~wall_every_commits
          ~partition:wl.partition ~init:wl.init ()) }

(* The observability-invisibility property's subject: identical knobs to
   {!hdd}, plus a fresh full observability stack — enabled trace, metrics
   bridge, the oracle's raising monitor — per controller build, so
   replays never see a stale shadow. *)
let hdd_observed () =
  { sys_name = "HDD-observed";
    build =
      (fun ~log wl ->
        let trace = Hdd_obs.Trace.create () in
        Hdd_core.Oracle.attach (Hdd_core.Oracle.create ()) trace;
        let metrics = Hdd_obs.Metrics.create () in
        Hdd_obs.Metrics.attach metrics trace;
        Hdd_sim.Adapters.hdd ~log ~trace ~partition:wl.partition
          ~init:wl.init ()) }

let all_systems = List.map system_of_spec Harness.all

let system name =
  match
    List.find_opt (fun s -> s.sys_name = name) all_systems
  with
  | Some s -> s
  | None -> failwith ("Explore.system: unknown system " ^ name)

type action = Begin | Finish | Access of op

type event = {
  ev_prog : int;
  ev_txn : Txn.id;
  ev_action : action;
  ev_outcome : [ `Ok | `Blocked of Txn.id list | `Rejected of string ];
}

type trial = {
  t_schedule : int list;
  t_events : event list;
  t_committed : int list;
  t_aborted : int list;
  t_deadlock : bool;
  t_verdict : Certifier.verdict;
}

(* --- one live execution --- *)

type tstate =
  | Idle
  | Running of Txn.t * op list  (** remaining ops *)
  | Waiting of Txn.t * op list * Txn.id list
      (** head op, or the commit once no op is left, blocked on ids *)
  | Done of [ `Committed | `Aborted ]

type exec = {
  wl : workload;
  ctrl : Controller.t;
  log : Sched_log.t;
  states : tstate array;
  live : (Txn.id, int) Hashtbl.t;  (** active txn id -> program index *)
  mutable rev_events : event list;
  mutable rev_schedule : int list;
  mutable steps : int;
}

let start sys wl =
  let log = Sched_log.create () in
  let ctrl = sys.build ~log wl in
  { wl; ctrl; log;
    states = Array.make (List.length wl.progs) Idle;
    live = Hashtbl.create 8;
    rev_events = []; rev_schedule = []; steps = 0 }

let prog e t = List.nth e.wl.progs t

let enabled e t =
  match e.states.(t) with
  | Idle | Running _ -> true
  | Waiting (_, _, blockers) ->
    List.for_all (fun id -> not (Hashtbl.mem e.live id)) blockers
  | Done _ -> false

let enabled_progs e =
  let n = Array.length e.states in
  let rec go i = if i >= n then [] else if enabled e i then i :: go (i + 1) else go (i + 1) in
  go 0

let record e t txn action outcome =
  e.rev_events <- { ev_prog = t; ev_txn = txn; ev_action = action;
                    ev_outcome = outcome } :: e.rev_events;
  e.rev_schedule <- t :: e.rev_schedule;
  e.steps <- e.steps + 1

let outcome_of = function
  | Outcome.Granted _ -> `Ok
  | Outcome.Blocked ids -> `Blocked ids
  | Outcome.Rejected why -> `Rejected why

(* Execute one step of program [t]; [t] must be enabled.  A step budget
   guards against a controller returning Blocked on already-finished
   transactions forever (none does; the guard turns such a bug into a
   failure instead of a hang). *)
let step e t =
  if e.steps > 64 * (total_steps e.wl + 1) then
    failwith "Explore: step budget exceeded (controller livelock?)";
  let p = prog e t in
  match e.states.(t) with
  | Done _ -> invalid_arg "Explore.step: program already finished"
  | Idle ->
    let txn = e.ctrl.Controller.begin_txn p.kind in
    Hashtbl.replace e.live txn.Txn.id t;
    e.states.(t) <- Running (txn, p.ops);
    record e t txn.Txn.id Begin `Ok
  | Running (txn, ops) | Waiting (txn, ops, _) ->
    (* the finish step asks for commit admission first: a controller
       that delays its commit point parks the program like a blocked
       access *)
    let action, outcome =
      match ops with
      | [] ->
        ( Finish,
          match e.ctrl.Controller.try_commit with
          | Some admit -> outcome_of (admit txn)
          | None -> `Ok )
      | (Read g as op) :: _ ->
        (Access op, outcome_of (e.ctrl.Controller.read txn g))
      | (Write (g, v) as op) :: _ ->
        (Access op, outcome_of (e.ctrl.Controller.write txn g v))
    in
    (match (outcome, ops) with
    | `Ok, [] ->
      e.ctrl.Controller.commit txn;
      Hashtbl.remove e.live txn.Txn.id;
      e.states.(t) <- Done `Committed
    | `Ok, _ :: rest -> e.states.(t) <- Running (txn, rest)
    | `Blocked ids, _ -> e.states.(t) <- Waiting (txn, ops, ids)
    | `Rejected _, _ ->
      e.ctrl.Controller.abort txn;
      Hashtbl.remove e.live txn.Txn.id;
      e.states.(t) <- Done `Aborted);
    record e t txn.Txn.id action outcome

(* Finish the execution: abort whatever is still parked (a genuine
   deadlock, or leftovers of a truncated schedule) and certify. *)
let finish e =
  let deadlock = ref false in
  Array.iteri
    (fun t st ->
      match st with
      | Waiting (txn, _, _) | Running (txn, _) ->
        deadlock := true;
        e.ctrl.Controller.abort txn;
        Hashtbl.remove e.live txn.Txn.id;
        e.states.(t) <- Done `Aborted;
        e.rev_events <-
          { ev_prog = t; ev_txn = txn.Txn.id; ev_action = Finish;
            ev_outcome = `Rejected "deadlock" } :: e.rev_events
      | Idle | Done _ -> ())
    e.states;
  let committed = ref [] and aborted = ref [] in
  Array.iteri
    (fun t st ->
      match st with
      | Done `Committed -> committed := t :: !committed
      | Done `Aborted -> aborted := t :: !aborted
      | _ -> ())
    e.states;
  { t_schedule = List.rev e.rev_schedule;
    t_events = List.rev e.rev_events;
    t_committed = List.rev !committed;
    t_aborted = List.rev !aborted;
    t_deadlock = !deadlock;
    t_verdict = Certifier.certify e.log }

let run_schedule sys wl schedule =
  let e = start sys wl in
  let n = Array.length e.states in
  List.iter
    (fun t -> if t >= 0 && t < n && enabled e t then step e t)
    schedule;
  let budget = ref (8 * (total_steps wl + 1)) in
  let rec go () =
    match enabled_progs e with
    | t :: _ when !budget > 0 ->
      decr budget;
      step e t;
      go ()
    | _ -> ()
  in
  go ();
  finish e

(* --- exhaustive walk with sleep sets --- *)

type desc = Dbegin | Dfinish | Dread of Granule.t | Dwrite of Granule.t

let desc_of e t =
  match e.states.(t) with
  | Idle -> Dbegin
  | Running (_, []) | Waiting (_, [], _) -> Dfinish
  | Running (_, op :: _) | Waiting (_, op :: _, _) -> (
    match op with Read g -> Dread g | Write (g, _) -> Dwrite g)
  | Done _ -> assert false

(* Two steps of different programs commute when both are data operations
   on different granules, or both are reads: every controller here
   decides them from per-granule state plus the begin/commit history,
   and reads at most raise a read timestamp to a max — commutative.
   Begins and finishes move timestamps, locks, activity links and time
   walls: dependent on everything. *)
let independent a b =
  match (a, b) with
  | (Dbegin | Dfinish), _ | _, (Dbegin | Dfinish) -> false
  | Dread _, Dread _ -> true
  | (Dread g1 | Dwrite g1), (Dread g2 | Dwrite g2) ->
    not (Granule.equal g1 g2)

type summary = {
  sum_system : string;
  sum_workload : string;
  schedules : int;
  pruned : int;
  serializable : int;
  anomalies : int;
  deadlocks : int;
  rejections : int;
  examples : trial list;
  capped : bool;
}

(* Anomalous trials a summary keeps. *)
let max_examples = 3

let explore ?(prune = true) ?(max_schedules = 500_000) ?on_trial sys wl =
  let schedules = ref 0 and pruned = ref 0 and serializable = ref 0 in
  let anomalies = ref 0 and deadlocks = ref 0 and rejections = ref 0 in
  let examples = ref [] and capped = ref false in
  let replay prefix =
    let e = start sys wl in
    List.iter (fun t -> step e t) (List.rev prefix);
    e
  in
  (* [prefix] is kept reversed; [sleep] holds program indices whose next
     step is covered by an already-explored sibling subtree. *)
  let rec dfs prefix sleep =
    if !schedules >= max_schedules then capped := true
    else begin
      let e = replay prefix in
      match enabled_progs e with
      | [] ->
        let trial = finish e in
        incr schedules;
        if trial.t_verdict.Certifier.serializable then incr serializable
        else begin
          incr anomalies;
          if List.length !examples < max_examples then
            examples := trial :: !examples
        end;
        if trial.t_deadlock then incr deadlocks;
        if
          List.exists
            (fun ev ->
              match ev.ev_outcome with `Rejected _ -> true | _ -> false)
            trial.t_events
        then incr rejections;
        (match on_trial with Some f -> f trial | None -> ())
      | en ->
        let explored = ref [] in
        List.iter
          (fun t ->
            if prune && List.mem t sleep then incr pruned
            else begin
              let dt = desc_of e t in
              let child_sleep =
                if prune then
                  List.filter
                    (fun u -> independent (desc_of e u) dt)
                    (sleep @ !explored)
                else []
              in
              dfs (t :: prefix) child_sleep;
              explored := t :: !explored
            end)
          en
    end
  in
  dfs [] [];
  { sum_system = sys.sys_name;
    sum_workload = wl.name;
    schedules = !schedules;
    pruned = !pruned;
    serializable = !serializable;
    anomalies = !anomalies;
    deadlocks = !deadlocks;
    rejections = !rejections;
    examples = List.rev !examples;
    capped = !capped }

(* --- rendering --- *)

let label wl t = (List.nth wl.progs t).label

let pp_action ppf = function
  | Begin -> Format.pp_print_string ppf "begin"
  | Finish -> Format.pp_print_string ppf "commit"
  | Access (Read g) -> Format.fprintf ppf "read %a" Granule.pp g
  | Access (Write (g, v)) -> Format.fprintf ppf "write %a <- %d" Granule.pp g v

let pp_event wl ppf ev =
  Format.fprintf ppf "%s(t%d) %a" (label wl ev.ev_prog) ev.ev_txn pp_action
    ev.ev_action;
  match ev.ev_outcome with
  | `Ok -> ()
  | `Blocked ids ->
    Format.fprintf ppf "  [blocked on %s]"
      (String.concat "," (List.map (Printf.sprintf "t%d") ids))
  | `Rejected why -> Format.fprintf ppf "  [rejected: %s]" why

let pp_trial wl ppf trial =
  List.iteri
    (fun i ev -> Format.fprintf ppf "%3d. %a@," i (pp_event wl) ev)
    trial.t_events;
  Format.fprintf ppf "committed: {%s}  aborted: {%s}%s@,verdict: %a"
    (String.concat ", " (List.map (label wl) trial.t_committed))
    (String.concat ", " (List.map (label wl) trial.t_aborted))
    (if trial.t_deadlock then "  (deadlock)" else "")
    Certifier.pp_verdict trial.t_verdict

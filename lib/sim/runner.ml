module Prng = Hdd_util.Prng
module Dist = Hdd_util.Dist
module Stats = Hdd_util.Stats

type config = {
  mpl : int;
  target_commits : int;
  seed : int;
  op_cost : float;
  retry : Retry.policy;
  max_events : int;
}

let default_config =
  { mpl = 8; target_commits = 2000; seed = 42; op_cost = 1.0;
    retry = Retry.default; max_events = 10_000_000 }

type result = {
  controller : string;
  workload : string;
  committed : int;
  restarts : int;
  deadlocks : int;
  gave_up : int;
  total_backoff : float;
  max_restart_streak : int;
  vtime : float;
  throughput : float;
  mean_response : float;
  p95_response : float;
  counters : Hdd_obs.Counters.t;
}

type worker = {
  wid : int;
  rng : Prng.t;
  retry_rng : Prng.t;  (** backoff jitter, kept off the workload stream *)
  mutable txn : Txn.t option;
  mutable tpl : Workload.template option;
  mutable ops : Workload.op list;  (** remaining operations *)
  mutable all_ops : Workload.op list;  (** for restarts *)
  mutable first_begin : float;  (** response time includes restarts *)
  mutable attempts : int;  (** consecutive restarts of the current txn *)
  mutable parked_on : Txn.id list;  (** empty when runnable *)
  mutable needs_restart : bool;
  mutable idle : bool;  (** open mode: waiting for an arrival *)
}

type event = Start of int | Do of int | Arrive  (** worker ids *)

(* In closed mode the [mpl] workers run transactions back to back.  In
   open mode the same workers act as servers for an arrival stream
   drawn from an interarrival sampler (Poisson, bursty, …): an arrival
   is served immediately by an idle worker or queues (FIFO); response
   time is measured from the *arrival* instant, so queueing delay
   counts — the standard open-system latency. *)
type mode = Closed | Open of (Prng.t -> float)  (** interarrival sampler *)

let run_impl ?trace ?on_response ~mode config workload (c : Controller.t) =
  if config.mpl <= 0 then invalid_arg "Runner.run: mpl must be positive";
  (* driver-level telemetry: restarts, deadlock aborts and give-ups are
     scheduling-policy outcomes the controller never sees *)
  let emit_sim label txn =
    match trace with
    | None -> ()
    | Some tr -> Hdd_obs.Trace.emit_here tr (Hdd_obs.Trace.Sim { label; txn })
  in
  let q : event Event_queue.t = Event_queue.create () in
  let base_rng = Prng.create config.seed in
  let arrival_rng = Prng.split base_rng in
  let workers =
    Array.init config.mpl (fun wid ->
        let rng = Prng.split base_rng in
        { wid; rng; retry_rng = Prng.split base_rng; txn = None; tpl = None;
          ops = []; all_ops = []; first_begin = 0.; attempts = 0;
          parked_on = []; needs_restart = false; idle = false })
  in
  (* waiters: finished-transaction wakeups.  txn id -> worker ids parked on
     it. *)
  let waiters : (Txn.id, int list) Hashtbl.t = Hashtbl.create 64 in
  (* owner of each active transaction, for deadlock detection *)
  let owner : (Txn.id, int) Hashtbl.t = Hashtbl.create 64 in
  let committed = ref 0 in
  let restarts = ref 0 in
  let deadlocks = ref 0 in
  let gave_up = ref 0 in
  let total_backoff = ref 0. in
  let max_streak = ref 0 in
  let retry_monitor = Retry.monitor config.retry in
  let response = Stats.create () in
  let start_counters = c.Controller.snapshot () in
  let now = ref 0. in
  (* open mode: arrival instants waiting for a free server *)
  let backlog : float Queue.t = Queue.create () in

  let begin_fresh w ~restart =
    let tpl =
      match (restart, w.tpl) with
      | true, Some tpl -> tpl
      | _ -> Workload.pick_template workload w.rng
    in
    let txn = c.Controller.begin_txn tpl.Workload.kind in
    let ops = if restart then w.all_ops else tpl.Workload.gen w.rng in
    w.txn <- Some txn;
    w.tpl <- Some tpl;
    w.ops <- ops;
    w.all_ops <- ops;
    Hashtbl.replace owner txn.Txn.id w.wid
  in

  let wake_waiters txn_id =
    match Hashtbl.find_opt waiters txn_id with
    | None -> ()
    | Some ws ->
      Hashtbl.remove waiters txn_id;
      List.iter
        (fun wid ->
          let w = workers.(wid) in
          w.parked_on <- List.filter (fun b -> b <> txn_id) w.parked_on;
          if w.parked_on = [] then Event_queue.push q ~time:!now (Do wid))
        ws
  in

  let finish_txn w ~commit =
    match w.txn with
    | None -> ()
    | Some txn ->
      if commit then c.Controller.commit txn else c.Controller.abort txn;
      Hashtbl.remove owner txn.Txn.id;
      w.txn <- None;
      wake_waiters txn.Txn.id
  in

  (* Deadlock detection: does following parked_on edges from [start_wid]
     come back to it?  Edges go worker -> owner of each blocker. *)
  let in_deadlock start_wid =
    let visited = Hashtbl.create 8 in
    let rec dfs wid =
      if Hashtbl.mem visited wid then false
      else begin
        Hashtbl.replace visited wid ();
        List.exists
          (fun b ->
            match Hashtbl.find_opt owner b with
            | None -> false
            | Some o -> o = start_wid || dfs o)
          workers.(wid).parked_on
      end
    in
    List.exists
      (fun b ->
        match Hashtbl.find_opt owner b with
        | None -> false
        | Some o -> o = start_wid || dfs o)
      workers.(start_wid).parked_on
  in

  (* what a worker does once its transaction has committed or been
     abandoned *)
  let next_assignment w =
    match mode with
    | Closed -> Event_queue.push q ~time:(!now +. config.op_cost) (Start w.wid)
    | Open _ ->
      if Queue.is_empty backlog then w.idle <- true
      else begin
        let arrived = Queue.pop backlog in
        w.first_begin <- arrived;
        Event_queue.push q ~time:(!now +. config.op_cost) (Start w.wid)
      end
  in

  (* Abort and re-run the worker's transaction under the retry policy:
     back off exponentially (with jitter) per consecutive restart, give
     the transaction up entirely once the policy is exhausted, and fail
     fast when the whole system restarts without ever committing. *)
  let restart w =
    incr restarts;
    let tid = match w.txn with Some t -> t.Txn.id | None -> -1 in
    emit_sim "restart" tid;
    Retry.note_restart retry_monitor;
    if Retry.consecutive_restarts retry_monitor > !max_streak then
      max_streak := Retry.consecutive_restarts retry_monitor;
    if Retry.livelocked retry_monitor then
      failwith
        (Printf.sprintf
           "Runner.run: livelock detected (%d consecutive restarts without \
            a commit)"
           (Retry.consecutive_restarts retry_monitor));
    finish_txn w ~commit:false;
    w.attempts <- w.attempts + 1;
    if Retry.exhausted config.retry ~attempt:w.attempts then begin
      (* starvation bound: drop this transaction rather than retry it
         forever; the worker moves on to fresh work *)
      incr gave_up;
      emit_sim "give_up" tid;
      w.attempts <- 0;
      w.tpl <- None;
      w.all_ops <- [];
      w.needs_restart <- false;
      next_assignment w
    end
    else begin
      let delay = Retry.backoff config.retry w.retry_rng ~attempt:w.attempts in
      total_backoff := !total_backoff +. delay;
      w.needs_restart <- true;
      Event_queue.push q ~time:(!now +. delay) (Do w.wid)
    end
  in

  let park w blockers =
    let live =
      List.filter (fun b -> Hashtbl.mem owner b) blockers
      |> List.sort_uniq compare
    in
    if live = [] then
      (* everything already finished: retry immediately *)
      Event_queue.push q ~time:!now (Do w.wid)
    else begin
      w.parked_on <- live;
      List.iter
        (fun b ->
          let ws =
            match Hashtbl.find_opt waiters b with Some l -> l | None -> []
          in
          Hashtbl.replace waiters b (w.wid :: ws))
        live;
      if in_deadlock w.wid then begin
        (* break the cycle by aborting the requester *)
        incr deadlocks;
        emit_sim "deadlock"
          (match w.txn with Some t -> t.Txn.id | None -> -1);
        (* unpark first so the wakeups of our own finish don't re-add us *)
        List.iter
          (fun b ->
            match Hashtbl.find_opt waiters b with
            | None -> ()
            | Some ws ->
              Hashtbl.replace waiters b (List.filter (fun x -> x <> w.wid) ws))
          w.parked_on;
        w.parked_on <- [];
        restart w
      end
    end
  in

  let do_op w =
    match w.txn with
    | None ->
      (* a transaction restarting after a rejection or deadlock abort *)
      begin_fresh w ~restart:w.needs_restart;
      w.needs_restart <- false;
      Event_queue.push q ~time:(!now +. config.op_cost) (Do w.wid)
    | Some txn -> (
      match w.ops with
      | [] -> (
        (* all operations done: ask for commit admission, then commit *)
        let admitted =
          match c.Controller.try_commit with
          | None -> Hdd_core.Outcome.Granted ()
          | Some f -> f txn
        in
        match admitted with
        | Hdd_core.Outcome.Granted () ->
          finish_txn w ~commit:true;
          incr committed;
          Retry.note_commit retry_monitor;
          w.attempts <- 0;
          let r = !now -. w.first_begin in
          Stats.add response r;
          (match on_response with Some f -> f r | None -> ());
          w.tpl <- None;
          w.all_ops <- [];
          next_assignment w
        | Hdd_core.Outcome.Blocked blockers ->
          (* commit-wait: park until the predecessors finish *)
          park w blockers
        | Hdd_core.Outcome.Rejected _ -> restart w)
      | op :: rest -> (
        let outcome =
          match op with
          | Workload.Read g ->
            (match c.Controller.read txn g with
            | Hdd_core.Outcome.Granted _ -> Hdd_core.Outcome.Granted ()
            | Hdd_core.Outcome.Blocked b -> Hdd_core.Outcome.Blocked b
            | Hdd_core.Outcome.Rejected r -> Hdd_core.Outcome.Rejected r)
          | Workload.Write (g, v) -> c.Controller.write txn g v
        in
        match outcome with
        | Hdd_core.Outcome.Granted () ->
          w.ops <- rest;
          Event_queue.push q ~time:(!now +. config.op_cost) (Do w.wid)
        | Hdd_core.Outcome.Blocked blockers -> park w blockers
        | Hdd_core.Outcome.Rejected _ -> restart w))
  in

  let start_worker w =
    begin_fresh w ~restart:false;
    (match mode with
    | Closed -> w.first_begin <- !now
    | Open _ -> () (* set from the arrival instant *));
    Event_queue.push q ~time:(!now +. config.op_cost) (Do w.wid)
  in

  let handle_arrival () =
    match mode with
    | Closed -> ()
    | Open interarrival ->
      (* serve with an idle worker or queue the arrival *)
      (match Array.find_opt (fun w -> w.idle) workers with
      | Some w ->
        w.idle <- false;
        w.first_begin <- !now;
        Event_queue.push q ~time:!now (Start w.wid)
      | None -> Queue.push !now backlog);
      Event_queue.push q
        ~time:(!now +. Float.max 0. (interarrival arrival_rng))
        Arrive
  in

  (match mode with
  | Closed ->
    Array.iter (fun w -> Event_queue.push q ~time:0. (Start w.wid)) workers
  | Open _ ->
    Array.iter (fun w -> w.idle <- true) workers;
    Event_queue.push q ~time:0. Arrive);
  let events = ref 0 in
  let rec loop () =
    if !committed >= config.target_commits then ()
    else
      match Event_queue.pop q with
      | None -> failwith "Runner.run: event queue drained (all workers stuck)"
      | Some (t, ev) ->
        now := t;
        incr events;
        if !events > config.max_events then
          failwith "Runner.run: event budget exceeded (livelock?)";
        (match ev with
        | Arrive -> handle_arrival ()
        | Start wid -> start_worker workers.(wid)
        | Do wid ->
          let w = workers.(wid) in
          (* ignore stale wakeups for parked workers *)
          if w.parked_on = [] then do_op w);
        loop ()
  in
  loop ();
  let counters =
    Hdd_obs.Counters.diff (c.Controller.snapshot ()) start_counters
  in
  { controller = c.Controller.name;
    workload = workload.Workload.wl_name;
    committed = !committed;
    restarts = !restarts;
    deadlocks = !deadlocks;
    gave_up = !gave_up;
    total_backoff = !total_backoff;
    max_restart_streak = !max_streak;
    vtime = !now;
    throughput = (if !now > 0. then float_of_int !committed /. !now else 0.);
    mean_response = Stats.mean response;
    p95_response =
      (if Stats.count response > 0 then Stats.percentile response 95. else nan);
    counters }

let run ?trace config workload c = run_impl ?trace ~mode:Closed config workload c

let run_arrivals ?trace ?on_response ~interarrival config workload c =
  run_impl ?trace ?on_response ~mode:(Open interarrival) config workload c

let run_open ?trace ?on_response ~arrival_rate config workload c =
  if arrival_rate <= 0. then
    invalid_arg "Runner.run_open: arrival rate must be positive";
  run_impl ?trace ?on_response
    ~mode:(Open (fun rng -> Dist.exponential rng ~rate:arrival_rate))
    config workload c

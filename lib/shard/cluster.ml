module T = Hdd_obs.Trace
module E = Hdd_runtime.Engine
module Crew = Hdd_runtime.Crew
module Wait = Hdd_runtime.Wait

type script = E.desc array

let assign ~shards (d : E.desc) =
  match d.E.d_kind with
  | `Update c -> c mod shards
  | `Read_only -> d.E.d_id mod shards

(* One shard's Outcome counters as a counter record; node publication
   counts do not travel on the wire, so a process-mode run counts
   none. *)
let of_wire (k : Wire.counters) =
  { (Hdd_obs.Counters.create ()) with
    committed = k.k_committed;
    aborted = k.k_aborted;
    reads_a = k.k_reads_a;
    reads_b = k.k_reads_b;
    reads_c = k.k_reads_c;
    writes = k.k_writes;
    stale_waits = k.k_stale_waits;
    wall_releases = k.k_wall_releases;
    wall_lag_sum = k.k_wall_lag_sum;
    wall_lag_max = k.k_wall_lag_max }

(* A run from every shard's outcomes, trace records and counts. *)
let run_of outcomes records stats =
  { E.records = T.merge records;
    outcomes = List.sort (fun (a, _) (b, _) -> compare a b) (List.concat outcomes);
    stats = List.fold_left Hdd_obs.Counters.add (Hdd_obs.Counters.create ()) stats }

let collect nodes =
  let each f = List.map f (Array.to_list nodes) in
  run_of (each Node.outcomes) (each Node.records) (each Node.stats)

(* --- deterministic single-thread mode --- *)

let run_script_det ?fault ?(config = Node.default_config) ~partition ~init
    ~shards ~seed ~script () =
  let nets = Transport.Loopback.create ?fault ~nodes:shards () in
  let nodes =
    Array.init shards (fun i ->
        Node.create ~config ~partition ~init ~net:nets.(i) ())
  in
  Array.iteri
    (fun i n ->
      Node.set_on_wait n (fun () ->
          Array.iteri
            (fun j m ->
              if j <> i then begin
                Node.pump m;
                Node.publish m
              end)
            nodes))
    nodes;
  let queues = Array.init shards (fun _ -> Queue.create ()) in
  Array.iter (fun d -> Queue.add d queues.(assign ~shards d)) script;
  let prng = Hdd_util.Prng.create seed in
  let rec loop () =
    let live =
      Array.to_list queues
      |> List.mapi (fun i q -> (i, q))
      |> List.filter (fun (_, q) -> not (Queue.is_empty q))
    in
    match live with
    | [] -> ()
    | _ ->
      let i, q = List.nth live (Hdd_util.Prng.int prng (List.length live)) in
      Node.exec nodes.(i) (Queue.take q);
      Array.iter Node.pump nodes;
      loop ()
  in
  loop ();
  Array.iter Node.publish_final nodes;
  (* settle: deliver finals and let the coordinator release trailing
     walls; a fixed round count keeps the trace deterministic *)
  for _ = 1 to 3 do
    Array.iter Node.pump nodes
  done;
  collect nodes

(* --- one domain per shard --- *)

let run_script_domains ?(config = Node.default_config) ~partition ~init
    ~shards ~script () =
  let nets = Transport.Loopback.create ~nodes:shards () in
  let work = Array.init shards (fun _ -> Queue.create ()) in
  Array.iter (fun d -> Queue.add d work.(assign ~shards d)) script;
  let crew = Crew.create shards in
  let run i =
    let node = Node.create ~config ~partition ~init ~net:nets.(i) () in
    Node.set_on_wait node (fun () ->
        Crew.leave_if_failed crew;
        Wait.nap ());
    let q = work.(i) in
    let rec go () =
      Node.pump node;
      match Queue.take_opt q with
      | Some d ->
        Node.exec node d;
        go ()
      | None -> ()
    in
    go ();
    Node.publish_final node;
    (* keep serving publications and 2PC traffic until everyone is done *)
    Crew.linger crew (fun () ->
        Node.pump node;
        Node.publish_final node);
    Node.pump node;
    node
  in
  collect (Crew.run crew ~feed:ignore run)

(* --- one process per shard --- *)

exception Shard_died of { shard : int; reason : string }

let child_main ~config ~partition ~init ~net i =
  let node = Node.create ~config ~partition ~init ~net () in
  Node.set_on_wait node Wait.nap;
  let rec go () =
    Node.pump node;
    match Node.take_work node with
    | Some d ->
      Node.exec node d;
      go ()
    | None ->
      if Node.drained node then ()
      else begin
        Node.publish node;
        Wait.nap ();
        go ()
      end
  in
  go ();
  Node.publish_final node;
  let parent = Transport.Pipe.parent_addr ~nodes:net.Transport.nodes in
  let home msg =
    net.Transport.send
      { Wire.src = i; dst = parent; stamp = Node.now node; msg }
  in
  home (Wire.Bye { shard = i });
  (* Serve publications until the router says goodbye; the coordinator
     keeps releasing walls for still-working siblings through here, so
     outcomes, counters and the trace ship only after the Bye — a wall
     released now must reach the merged trace. *)
  while not (Node.bye_seen node) do
    Node.pump node;
    Node.publish_final node;
    Wait.nap ()
  done;
  home
    (Wire.Outcome
       { shard = i; outcomes = Node.outcomes node;
         counters = Node.counters node });
  home (Wire.Trace_slice { shard = i; records = Node.records node })

let run_script_processes ?(config = Node.default_config) ~partition ~init
    ~shards ~script () =
  let parent = Transport.Pipe.parent_addr ~nodes:shards in
  (* down.(i): parent -> child i; up.(i): child i -> parent *)
  let down = Array.init shards (fun _ -> Unix.pipe ()) in
  let up = Array.init shards (fun _ -> Unix.pipe ()) in
  let pids =
    Array.init shards (fun i ->
        match Unix.fork () with
        | 0 ->
          (* child i keeps read end of down.(i) and write end of up.(i) *)
          Array.iteri
            (fun j (r, w) ->
              if j <> i then Unix.close r;
              Unix.close w)
            down;
          Array.iteri
            (fun j (r, w) ->
              Unix.close r;
              if j <> i then Unix.close w)
            up;
          let net =
            Transport.Pipe.endpoint ~me:i ~nodes:shards
              ~read_fd:(fst down.(i)) ~write_fd:(snd up.(i))
          in
          (match child_main ~config ~partition ~init ~net i with
          | () -> exit 0
          | exception e ->
            prerr_endline
              (Printf.sprintf "shard %d died: %s" i (Printexc.to_string e));
            exit 2)
        | pid -> pid)
  in
  (* parent keeps write ends of down and read ends of up *)
  Array.iter (fun (r, _) -> Unix.close r) down;
  Array.iter (fun (_, w) -> Unix.close w) up;
  let sigpipe =
    (* a child that exits while we still route must not kill the
       parent (nor a sibling forward): surface EPIPE instead *)
    Sys.signal Sys.sigpipe Sys.Signal_ignore
  in
  let w = Hdd_util.Binc.writer () in
  let send_down i (pkt : Wire.packet) =
    try Transport.Pipe.write_packet w (snd down.(i)) pkt
    with Unix.Unix_error (EPIPE, _, _) -> ()
  in
  (* a child's frame for a sibling goes down as the bytes it came in *)
  let forward i buf pos len =
    try Transport.Pipe.write_frame (snd down.(i)) buf ~pos ~len
    with Unix.Unix_error (EPIPE, _, _) -> ()
  in
  let fbs = Array.init shards (fun _ -> Transport.Framebuf.create ()) in
  let chunk = Bytes.create 65536 in
  let outcomes = ref [] and slices = ref [] and counters = ref [] in
  (* per shard: said Bye, sent its Outcome, sent its Trace_slice *)
  let bye = Array.make shards false in
  let reported = Array.make shards false in
  let sliced = Array.make shards false in
  let fd_of = Array.map fst up in
  let teardown () =
    Array.iter (fun (_, w) -> Unix.close w) down;
    Array.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
    Array.iter (fun (r, _) -> Unix.close r) up;
    ignore (Sys.signal Sys.sigpipe sigpipe)
  in
  let died shard reason = raise (Shard_died { shard; reason }) in
  (* one routing round: forward child->child frames undecoded, decode
     the frames addressed to us.  Draining while dispatching keeps the
     pipes from filling up and deadlocking on large scripts.  A child
     closes its pipe only by exiting, so an end of file before its
     Outcome is its death; so is a frame that fails its checks, since
     nothing after it on that pipe can be framed. *)
  let eof = Array.make shards false in
  let service timeout =
    let live =
      Array.to_list fd_of
      |> List.filteri (fun i _ -> not eof.(i))
    in
    if live = [] then false
    else begin
    let ready, _, _ = Unix.select live [] [] timeout in
    let any = ready <> [] in
    List.iter
      (fun fd ->
        let i = ref 0 in
        Array.iteri (fun j f -> if f = fd then i := j) fd_of;
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 ->
          eof.(!i) <- true;
          if not reported.(!i) then
            died !i "exited before reporting its outcome"
        | n ->
          Transport.Framebuf.feed fbs.(!i) chunk ~len:n;
          let rec route () =
            match
              Transport.Framebuf.route fbs.(!i) ~from:!i ~nodes:shards
                ~forward
            with
            | None -> ()
            | Some pkt ->
              (match pkt.Wire.msg with
              | Wire.Outcome { outcomes = o; counters = k; _ } ->
                reported.(!i) <- true;
                outcomes := o :: !outcomes;
                counters := k :: !counters
              | Wire.Trace_slice { records; _ } ->
                sliced.(!i) <- true;
                slices := records :: !slices
              | Wire.Bye _ -> bye.(!i) <- true
              | _ -> ());
              route ()
          in
          try route () with Hdd_util.Binc.Error e ->
            died !i ("sent a corrupt frame: " ^ e))
      ready;
    any
    end
  in
  (* wait until no shard owes [what]; 30 s without traffic names the
     first shard that still owes it *)
  let wait_for what owed =
    let idle = ref 0 in
    let owing () = List.find_opt owed (List.init shards Fun.id) in
    let rec go () =
      match owing () with
      | None -> ()
      | Some shard ->
        if service 1.0 then idle := 0
        else begin
          incr idle;
          if !idle > 30 then
            died shard (Printf.sprintf "sent nothing for 30 s; owes %s" what)
        end;
        go ()
    in
    go ()
  in
  let route_run () =
    Array.iter
      (fun d ->
        let i = assign ~shards d in
        send_down i
          { Wire.src = parent; dst = i; stamp = 0; msg = Wire.Exec d };
        ignore (service 0.))
      script;
    Array.iteri
      (fun i _ ->
        send_down i { Wire.src = parent; dst = i; stamp = 0; msg = Wire.Drain })
      pids;
    wait_for "its drain acknowledgement" (fun i -> not bye.(i));
    (* goodbyes; only now do the children ship outcomes and traces, so a
       wall the coordinator released while serving stragglers is on
       record before the trace crosses the pipe *)
    Array.iteri
      (fun i _ ->
        send_down i
          { Wire.src = parent; dst = i; stamp = 0;
            msg = Wire.Bye { shard = -1 } })
      pids;
    wait_for "its trace and outcome" (fun i -> not (sliced.(i) && reported.(i)))
  in
  (* whatever ends the routing early, a dead shard's [Shard_died]
     included, stops and reaps every child before it propagates *)
  match route_run () with
  | () ->
    teardown ();
    run_of !outcomes !slices (List.map of_wire !counters)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Array.iter
      (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      pids;
    teardown ();
    Printexc.raise_with_backtrace e bt

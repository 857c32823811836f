module T = Hdd_obs.Trace
module P = Hdd_core.Partition
module Spec = Hdd_core.Spec
module Scheduler = Hdd_core.Scheduler
module Certifier = Hdd_core.Certifier
module Outcome = Hdd_core.Outcome
module Prng = Hdd_util.Prng

type script = Engine.desc array

let default_init (g : Granule.t) = (g.segment * 1000) + g.key

(* --- script generation --- *)

let gen_script ~partition ~seed ~txns ?(keys_per_segment = 6)
    ?(ro_frac = 0.25) ?(abort_frac = 0.15) ?(cross_frac = 0.5)
    ?(ops_per_txn = 4) () =
  let prng = Prng.create seed in
  let nseg = P.segment_count partition in
  let readable =
    Array.init nseg (fun c ->
        List.init nseg Fun.id
        |> List.filter (fun s ->
               s <> c && P.may_read partition ~class_id:c ~segment:s)
        |> Array.of_list)
  in
  let key () = Prng.int prng keys_per_segment in
  Array.init txns (fun n ->
      let id = n + 1 in
      if Prng.float prng 1. < ro_frac then begin
        let ops =
          List.init
            (1 + Prng.int prng ops_per_txn)
            (fun _ ->
              Engine.Read
                (Granule.make ~segment:(Prng.int prng nseg) ~key:(key ())))
        in
        { Engine.d_id = id; d_kind = `Read_only; d_ops = ops;
          d_abort = false }
      end
      else begin
        let cls = Prng.int prng nseg in
        let own_g () = Granule.make ~segment:cls ~key:(key ()) in
        let first = Engine.Write (own_g (), Prng.int prng 1_000_000) in
        let rest =
          List.init (Prng.int prng ops_per_txn) (fun _ ->
              let r = Prng.float prng 1. in
              if r < cross_frac && Array.length readable.(cls) > 0 then
                Engine.Read
                  (Granule.make
                     ~segment:(Prng.pick prng readable.(cls))
                     ~key:(key ()))
              else if r < cross_frac +. 0.2 then
                Engine.Write (own_g (), Prng.int prng 1_000_000)
              else Engine.Read (own_g ()))
        in
        { Engine.d_id = id;
          d_kind = `Update cls;
          d_ops = first :: rest;
          d_abort = Prng.float prng 1. < abort_frac }
      end)

(* --- report --- *)

type report = {
  r_serializable : bool;
  r_cycle : int list option;
  r_monitor_violations : string list;
  r_verdicts_agree : bool;
  r_b_reads_agree : bool;
  r_mismatches : string list;
  r_stats : Engine.stats;
  r_events : int;
}

(* The four checks by name, so an 8-worker stress failure says which
   leg of the oracle broke instead of burying it in a dump. *)
let failures r =
  List.filter_map Fun.id
    [ (if r.r_serializable then None else Some "mvsg-certification");
      (if r.r_monitor_violations = [] then None else Some "monitor-replay");
      (if r.r_verdicts_agree then None else Some "serial-oracle-agreement");
      (if r.r_b_reads_agree then None else Some "read-from-equality") ]

let ok r = failures r = []

let pp_report ppf r =
  (match failures r with
  | [] -> ()
  | names ->
    Format.fprintf ppf "FAILED checks: %s@." (String.concat ", " names));
  Format.fprintf ppf
    "serializable=%b monitor=%d verdicts=%b b_reads=%b committed=%d \
     aborted=%d walls=%d repartitions=%d escalations=%d events=%d"
    r.r_serializable
    (List.length r.r_monitor_violations)
    r.r_verdicts_agree r.r_b_reads_agree r.r_stats.committed
    r.r_stats.aborted r.r_stats.wall_releases r.r_stats.repartitions
    r.r_stats.escalations r.r_events;
  List.iter (fun m -> Format.fprintf ppf "@.  %s" m) r.r_mismatches;
  List.iter
    (fun v -> Format.fprintf ppf "@.  monitor: %s" v)
    r.r_monitor_violations

(* --- the serial oracle --- *)

(* Execute the script through the serial scheduler, each descriptor run
   to completion in the order given.  Returns per-descriptor verdicts
   and, for committed updates, the writer descriptor each root-segment
   read resolved to (in op order). *)
let serial_replay ~partition ~init descs =
  let clock = Time.Clock.create () in
  let store =
    Hdd_mvstore.Store.create ~segments:(P.segment_count partition) ~init
  in
  let log = Sched_log.create () in
  let sched = Scheduler.create ~log ~partition ~clock ~store () in
  let verdicts = Hashtbl.create 64 in
  let of_serial = Hashtbl.create 64 in (* serial txn id -> descriptor id *)
  let mismatches = ref [] in
  List.iter
    (fun (d : Engine.desc) ->
      let txn =
        match d.d_kind with
        | `Update cls -> Scheduler.begin_update sched ~class_id:cls
        | `Read_only -> Scheduler.begin_read_only sched
      in
      Hashtbl.replace of_serial txn.Txn.id d.d_id;
      let refused = ref None in
      List.iter
        (fun op ->
          if !refused = None then
            let outcome_tag =
              match op with
              | Engine.Read g -> (
                match Scheduler.read sched txn g with
                | Outcome.Granted _ -> None
                | Outcome.Blocked _ -> Some "blocked"
                | Outcome.Rejected r -> Some ("rejected: " ^ r))
              | Engine.Write (g, v) -> (
                match Scheduler.write sched txn g v with
                | Outcome.Granted () -> None
                | Outcome.Blocked _ -> Some "blocked"
                | Outcome.Rejected r -> Some ("rejected: " ^ r))
            in
            match outcome_tag with
            | None -> ()
            | Some why ->
              refused := Some why;
              mismatches :=
                Printf.sprintf
                  "serial oracle refused an op of txn %d (%s); parallel \
                   granted it"
                  d.d_id why
                :: !mismatches)
        d.d_ops;
      match !refused with
      | Some _ ->
        Scheduler.abort sched txn;
        Hashtbl.replace verdicts d.d_id false
      | None ->
        if d.Engine.d_abort then begin
          Scheduler.abort sched txn;
          Hashtbl.replace verdicts d.d_id false
        end
        else begin
          Scheduler.commit sched txn;
          Hashtbl.replace verdicts d.d_id true
        end)
    descs;
  (* root-segment read-from writers, per committed update descriptor *)
  let class_of = Hashtbl.create 64 in
  List.iter
    (fun (d : Engine.desc) ->
      match d.d_kind with
      | `Update c -> Hashtbl.replace class_of d.d_id c
      | `Read_only -> ())
    descs;
  let writer_of_ts = Hashtbl.create 256 in
  Hashtbl.replace writer_of_ts Time.zero 0;
  List.iter
    (fun (s : Sched_log.step) ->
      if s.action = Sched_log.Write then
        match Hashtbl.find_opt of_serial s.txn with
        | Some did -> Hashtbl.replace writer_of_ts s.version did
        | None -> ())
    (Sched_log.steps log);
  let b_reads = Hashtbl.create 64 in
  List.iter
    (fun (s : Sched_log.step) ->
      if s.action = Sched_log.Read then
        match Hashtbl.find_opt of_serial s.txn with
        | None -> ()
        | Some did -> (
          match Hashtbl.find_opt class_of did with
          | Some cls when s.granule.Granule.segment = cls ->
            let prev =
              match Hashtbl.find_opt b_reads did with
              | Some l -> l
              | None -> []
            in
            let writer =
              match Hashtbl.find_opt writer_of_ts s.version with
              | Some w -> w
              | None -> -1
            in
            Hashtbl.replace b_reads did (writer :: prev)
          | _ -> ()))
    (Sched_log.steps log);
  (verdicts, b_reads, !mismatches)

(* --- the full differential check --- *)

(* The four checks over an already-completed run — any runner that can
   produce an [Engine.run]-shaped result (the multicore engine, the
   sharded cluster in any of its modes) feeds the same oracle. *)
let check_run ~partition ~init ~script (run : Engine.run) =
  let committed =
    List.filter_map (fun (id, c) -> if c then Some id else None) run.outcomes
    |> List.fold_left (fun s id -> Hashtbl.replace s id (); s)
         (Hashtbl.create 64)
  in
  let is_committed id = Hashtbl.mem committed id in
  (* 1. MVSG certification of the committed parallel history *)
  let log = Sched_log.create () in
  List.iter
    (fun (r : T.record) ->
      match r.ev with
      | T.Read { txn; segment; key; version; _ } when is_committed txn ->
        Sched_log.log_read log ~txn
          ~granule:(Granule.make ~segment ~key)
          ~version
      | T.Write { txn; segment; key; ts } when is_committed txn ->
        Sched_log.log_write log ~txn
          ~granule:(Granule.make ~segment ~key)
          ~version:ts
      | _ -> ())
    run.records;
  let verdict = Certifier.certify log in
  (* 2. online invariants over the merged trace *)
  let monitor =
    Hdd_obs.Monitor.create ~raise_on_violation:false
      ~wall_rule:`Any_released ()
  in
  List.iter (Hdd_obs.Monitor.feed monitor) run.records;
  (* 3 + 4. serial oracle in parallel-initiation order *)
  let init_of = Hashtbl.create 64 in
  List.iter
    (fun (r : T.record) ->
      match r.ev with
      | T.Begin { txn; init = i; _ } -> Hashtbl.replace init_of txn i
      | _ -> ())
    run.records;
  let order =
    Array.to_list script
    |> List.sort (fun (a : Engine.desc) b ->
           compare
             (Hashtbl.find_opt init_of a.d_id)
             (Hashtbl.find_opt init_of b.d_id))
  in
  let serial_verdicts, serial_b_reads, mismatches =
    serial_replay ~partition ~init order
  in
  let mismatches = ref mismatches in
  let verdicts_agree = ref true in
  List.iter
    (fun (id, par_committed) ->
      match Hashtbl.find_opt serial_verdicts id with
      | Some ser when ser = par_committed -> ()
      | Some ser ->
        verdicts_agree := false;
        mismatches :=
          Printf.sprintf "txn %d: parallel %s, serial %s" id
            (if par_committed then "committed" else "aborted")
            (if ser then "committed" else "aborted")
          :: !mismatches
      | None ->
        verdicts_agree := false;
        mismatches :=
          Printf.sprintf "txn %d: missing from serial replay" id
          :: !mismatches)
    run.outcomes;
  (* parallel root-segment read-from writers *)
  let par_writer_of_ts = Hashtbl.create 256 in
  Hashtbl.replace par_writer_of_ts Time.zero 0;
  List.iter
    (fun (r : T.record) ->
      match r.ev with
      | T.Write { txn; ts; _ } when is_committed txn ->
        Hashtbl.replace par_writer_of_ts ts txn
      | _ -> ())
    run.records;
  let par_b_reads = Hashtbl.create 64 in
  List.iter
    (fun (r : T.record) ->
      match r.ev with
      | T.Read { txn; protocol = T.B; version; _ } when is_committed txn ->
        let prev =
          match Hashtbl.find_opt par_b_reads txn with
          | Some l -> l
          | None -> []
        in
        let writer =
          match Hashtbl.find_opt par_writer_of_ts version with
          | Some w -> w
          | None -> -1
        in
        Hashtbl.replace par_b_reads txn (writer :: prev)
      | _ -> ())
    run.records;
  let b_reads_agree = ref true in
  Array.iter
    (fun (d : Engine.desc) ->
      match d.d_kind with
      | `Read_only -> ()
      | `Update _ ->
        if is_committed d.d_id then begin
          let got =
            match Hashtbl.find_opt par_b_reads d.d_id with
            | Some l -> l
            | None -> []
          and want =
            match Hashtbl.find_opt serial_b_reads d.d_id with
            | Some l -> l
            | None -> []
          in
          if got <> want then begin
            b_reads_agree := false;
            mismatches :=
              Printf.sprintf
                "txn %d: root-segment read-from writers differ \
                 (parallel [%s], serial [%s])"
                d.d_id
                (String.concat ";" (List.map string_of_int (List.rev got)))
                (String.concat ";" (List.map string_of_int (List.rev want)))
              :: !mismatches
          end
        end)
    script;
  { r_serializable = verdict.Certifier.serializable;
    r_cycle = verdict.Certifier.cycle;
    r_monitor_violations = Hdd_obs.Monitor.violations monitor;
    r_verdicts_agree = !verdicts_agree;
    r_b_reads_agree = !b_reads_agree;
    r_mismatches = List.rev !mismatches;
    r_stats = run.stats;
    r_events = List.length run.records }

let check ?(plan = []) ?(mode_plan = []) ~partition ~init ~config script =
  check_run ~partition ~init ~script
    (Engine.run_script ~partition ~init ~plan ~mode_plan config ~script)

(* --- stress profiles --- *)

type profile = Abort_heavy | Adhoc_read | Mixed

let chain_partition depth =
  let segments = List.init depth (fun i -> Printf.sprintf "D%d" i) in
  let types =
    List.init depth (fun i ->
        Spec.txn_type
          ~name:(Printf.sprintf "t%d" i)
          ~writes:[ i ]
          ~reads:(if i < depth - 1 then [ i; i + 1 ] else [ i ]))
  in
  P.build_exn (Spec.make ~segments ~types)

let tree_partition branches =
  let segments = List.init (branches + 1) (fun i -> Printf.sprintf "D%d" i) in
  let types =
    Spec.txn_type ~name:"t0" ~writes:[ 0 ] ~reads:[ 0 ]
    :: List.init branches (fun b ->
           Spec.txn_type
             ~name:(Printf.sprintf "t%d" (b + 1))
             ~writes:[ b + 1 ]
             ~reads:[ b + 1; 0 ])
  in
  P.build_exn (Spec.make ~segments ~types)

let rotation_plan ~segments ~workers n =
  let rec go acc map i =
    if i = 0 then List.rev acc
    else
      let next = Engine.rotated_map map workers in
      go ((next, "migrate") :: acc) next (i - 1)
  in
  go [] (Engine.default_owner_map ~segments ~workers) n

(* n forced mode flips: step i escalates the classes of one parity and
   de-escalates the other, so every class changes stamping discipline
   at every step — the adversarial schedule for the escalation-
   equivalence property.  The last step restores all-plain so a run
   always ends comparable to a never-escalated one. *)
let escalation_plan ~segments n =
  List.init n (fun i ->
      if i = n - 1 then Array.make segments 0
      else Array.init segments (fun c -> (c + i) land 1))

let stress_case ~seed ~txns ~profile =
  let prng = Prng.create (seed * 2 + 1) in
  let partition =
    if seed land 1 = 0 then chain_partition (4 + Prng.int prng 5)
    else tree_partition (3 + Prng.int prng 3)
  in
  let ro_frac, abort_frac =
    match profile with
    | Abort_heavy -> (0.1, 0.4)
    | Adhoc_read -> (0.5, 0.05)
    | Mixed -> (0.25, 0.15)
  in
  (partition, gen_script ~partition ~seed ~txns ~ro_frac ~abort_frac ())

let stress_one ?(publish_every = 8) ?(repartitions = 0) ?(escalations = 0)
    ~seed ~workers ~txns ~profile () =
  let partition, script = stress_case ~seed ~txns ~profile in
  let config = { (Engine.default_config ~workers) with publish_every } in
  let plan =
    rotation_plan ~segments:(P.segment_count partition) ~workers repartitions
  in
  let mode_plan =
    escalation_plan ~segments:(P.segment_count partition) escalations
  in
  check ~plan ~mode_plan ~partition ~init:default_init ~config script

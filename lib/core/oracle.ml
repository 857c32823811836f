module T = Hdd_obs.Trace
module Monitor = Hdd_obs.Monitor

type op = Read of Granule.t | Write of Granule.t * int

type desc = {
  d_id : Txn.id;
  d_kind : [ `Update of int | `Read_only ];
  d_ops : op list;
  d_abort : bool;
}

(* --- reports --- *)

type family =
  | Trace_complete
  | Mvsg_certification
  | Monitor_replay
  | Serial_oracle_agreement
  | Read_from_equality

let name = function
  | Trace_complete -> "trace-complete"
  | Mvsg_certification -> "mvsg-certification"
  | Monitor_replay -> "monitor-replay"
  | Serial_oracle_agreement -> "serial-oracle-agreement"
  | Read_from_equality -> "read-from-equality"

type verdict = Passed | Failed of string list | Skipped

type report = {
  verdicts : (family * verdict) list;
  events : int;
  epoch : int;
}

let verdict r f = List.assoc f r.verdicts

let witnesses r f =
  match verdict r f with Failed ws -> ws | Passed | Skipped -> []

let failures r =
  List.filter_map
    (function f, Failed _ -> Some (name f) | _, (Passed | Skipped) -> None)
    r.verdicts

let ok r = failures r = []

let of_witnesses = function [] -> Passed | ws -> Failed ws

(* --- the monitor --- *)

type t = Monitor.t

let create = Monitor.create
let attach = Monitor.attach

type replay = {
  partition : Partition.t;
  init : Granule.t -> int;
  script : desc array;
}

(* --- the serial replay --- *)

(* The root-segment (Protocol B) reads of every transaction [desc] maps
   to a descriptor, as the writers they read from, newest first; the
   bootstrap version's writer is 0. *)
let b_reads records ~desc =
  let writer = Hashtbl.create 256 and reads = Hashtbl.create 64 in
  Hashtbl.replace writer Time.zero 0;
  List.iter
    (fun (r : T.record) ->
      match r.ev with
      | T.Write { txn; ts; _ } ->
        Option.iter (Hashtbl.replace writer ts) (desc txn)
      | _ -> ())
    records;
  List.iter
    (fun (r : T.record) ->
      match r.ev with
      | T.Read { txn; protocol = T.B; version; _ } ->
        Option.iter
          (fun d ->
            Hashtbl.replace reads d
              (Option.value ~default:(-1) (Hashtbl.find_opt writer version)
              :: Option.value ~default:[] (Hashtbl.find_opt reads d)))
          (desc txn)
      | _ -> ())
    records;
  reads

let refusal = function
  | Outcome.Granted _ -> None
  | Outcome.Blocked _ -> Some "blocked"
  | Outcome.Rejected r -> Some ("rejected: " ^ r)

(* Execute the descriptors through a traced serial scheduler, each run
   to completion in the order given.  Returns per-descriptor verdicts,
   the root-segment reads, and the operations the scheduler refused. *)
let serial_replay ~partition ~init descs =
  let trace = T.create () in
  let records = ref [] in
  T.enable trace;
  T.subscribe trace (fun r -> records := r :: !records);
  let store =
    Hdd_mvstore.Store.create ~segments:(Partition.segment_count partition)
      ~init
  in
  let sched =
    Scheduler.create ~trace ~partition ~clock:(Time.Clock.create ()) ~store ()
  in
  let verdicts = Hashtbl.create 64 in
  let of_serial = Hashtbl.create 64 in (* serial txn id -> descriptor id *)
  let refusals = ref [] in
  List.iter
    (fun d ->
      let txn =
        match d.d_kind with
        | `Update cls -> Scheduler.begin_update sched ~class_id:cls
        | `Read_only -> Scheduler.begin_read_only sched
      in
      Hashtbl.replace of_serial txn.Txn.id d.d_id;
      let refused =
        List.find_map
          (function
            | Read g -> refusal (Scheduler.read sched txn g)
            | Write (g, v) -> refusal (Scheduler.write sched txn g v))
          d.d_ops
      in
      Option.iter
        (fun why ->
          refusals :=
            Printf.sprintf
              "serial oracle refused an op of txn %d (%s); parallel granted \
               it"
              d.d_id why
            :: !refusals)
        refused;
      let commit = refused = None && not d.d_abort in
      if commit then Scheduler.commit sched txn else Scheduler.abort sched txn;
      Hashtbl.replace verdicts d.d_id commit)
    descs;
  ( verdicts,
    b_reads (List.rev !records) ~desc:(Hashtbl.find_opt of_serial),
    List.rev !refusals )

(* The two serial families: the replay runs in the run's initiation
   order, read from its [Begin] records. *)
let serial_checks rp ~init_of ~records ~outcomes ~is_committed =
  let order =
    Array.to_list rp.script
    |> List.sort (fun a b ->
           compare
             (Hashtbl.find_opt init_of a.d_id)
             (Hashtbl.find_opt init_of b.d_id))
  in
  let serial_verdicts, serial_b_reads, refusals =
    serial_replay ~partition:rp.partition ~init:rp.init order
  in
  let disagreements =
    List.filter_map
      (fun (id, committed) ->
        match Hashtbl.find_opt serial_verdicts id with
        | Some ser when ser = committed -> None
        | Some ser ->
          Some
            (Printf.sprintf "txn %d: parallel %s, serial %s" id
               (if committed then "committed" else "aborted")
               (if ser then "committed" else "aborted"))
        | None -> Some (Printf.sprintf "txn %d: missing from serial replay" id))
      outcomes
  in
  let run_b_reads =
    b_reads records ~desc:(fun t -> if is_committed t then Some t else None)
  in
  let writers tbl id = Option.value ~default:[] (Hashtbl.find_opt tbl id) in
  let show l = String.concat ";" (List.map string_of_int (List.rev l)) in
  let differ =
    Array.to_list rp.script
    |> List.filter_map (fun d ->
           let got = writers run_b_reads d.d_id
           and want = writers serial_b_reads d.d_id in
           match d.d_kind with
           | `Update _ when is_committed d.d_id && got <> want ->
             Some
               (Printf.sprintf
                  "txn %d: root-segment read-from writers differ (parallel \
                   [%s], serial [%s])"
                  d.d_id (show got) (show want))
           | `Update _ | `Read_only -> None)
  in
  (of_witnesses (refusals @ disagreements), of_witnesses differ)

(* --- the one call --- *)

let certify log =
  match Certifier.certify log with
  | { serializable = true; _ } -> Passed
  | { cycle = Some c; _ } ->
    Failed [ "cycle " ^ String.concat " -> " (List.map string_of_int c) ]
  | { cycle = None; _ } -> Failed [ "not serializable" ]

let check ?log ?replay monitor ~records ~outcomes =
  let committed = Hashtbl.create 64 in
  List.iter (fun (id, c) -> if c then Hashtbl.replace committed id ()) outcomes;
  let is_committed id = Hashtbl.mem committed id in
  (* one pass: each transaction's initiation, and the committed history
     as a schedule log *)
  let init_of = Hashtbl.create 64 and history = Sched_log.create () in
  List.iter
    (fun (r : T.record) ->
      match r.ev with
      | T.Begin { txn; init; _ } -> Hashtbl.replace init_of txn init
      | T.Read { txn; segment; key; version; _ } when is_committed txn ->
        Sched_log.log_read history ~txn ~granule:(Granule.make ~segment ~key)
          ~version
      | T.Write { txn; segment; key; ts } when is_committed txn ->
        Sched_log.log_write history ~txn
          ~granule:(Granule.make ~segment ~key) ~version:ts
      | _ -> ())
    records;
  let complete, trace_complete =
    match List.filter (fun (id, _) -> not (Hashtbl.mem init_of id)) outcomes with
    | [] -> (true, Passed)
    | (first, _) :: _ as missing ->
      ( false,
        Failed
          [ Printf.sprintf
              "%d of %d outcomes have no Begin record (first: txn %d): the \
               trace lost records"
              (List.length missing) (List.length outcomes) first ] )
  in
  let mvsg =
    match log with
    | Some log -> certify log
    | None when complete && outcomes <> [] -> certify history
    | None -> Skipped
  in
  let monitor_replay =
    if complete then begin
      List.iter (Monitor.feed monitor) records;
      of_witnesses (Monitor.violations monitor)
    end
    else Skipped
  in
  let serial, reads =
    match replay with
    | Some rp when complete ->
      serial_checks rp ~init_of ~records ~outcomes ~is_committed
    | _ -> (Skipped, Skipped)
  in
  { verdicts =
      [ (Trace_complete, trace_complete); (Mvsg_certification, mvsg);
        (Monitor_replay, monitor_replay);
        (Serial_oracle_agreement, serial); (Read_from_equality, reads) ];
    events = Monitor.events_seen monitor;
    epoch = Monitor.last_epoch monitor }

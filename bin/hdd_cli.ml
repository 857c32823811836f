(* hdd_cli — command-line front end.

   Subcommands:
     validate     parse a partition description and check TST-hierarchy
     dot          emit the DHG of a built-in partition as Graphviz
     simulate     run one workload under one protocol
     compare      run one workload under every protocol
     experiments  run the paper-reproduction experiments (E1..E13)

   Partition descriptions for `validate` use one line per transaction
   type:   name : writes SEG[,SEG...] reads [SEG[,SEG...]]
   Segments are declared implicitly by first use. *)

module Spec = Hdd_core.Spec
module Partition = Hdd_core.Partition
module Workload = Hdd_sim.Workload
module Runner = Hdd_sim.Runner
module Harness = Hdd_sim.Harness
module Controller = Hdd_sim.Controller
module Experiment = Hdd_experiments.Experiment
module Table = Hdd_util.Table

open Cmdliner

(* --- partition description parsing --- *)

(* One line of a partition description or access trace,
   [name : writes A[,B...] [reads C[,D...]]]: [Ok None] for a blank or
   [#] line, [Error reason] for a malformed one. *)
let parse_line line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Ok None
  else
    match String.index_opt line ':' with
    | None -> Error "missing ':' after the type name"
    | Some i -> (
      let name = String.trim (String.sub line 0 i) in
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      let items s =
        String.split_on_char ',' s
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      let fields =
        match
          Scanf.sscanf_opt rest " writes %s@ reads %s@!" (fun w r -> (w, r))
        with
        | Some _ as f -> f
        | None ->
          Option.map (fun w -> (w, ""))
            (Scanf.sscanf_opt rest " writes %s@!" Fun.id)
      in
      match fields with
      | None -> Error "expected 'writes A[,B...] [reads C[,D...]]' after ':'"
      | Some _ when name = "" -> Error "missing type name before ':'"
      | Some (w, r) -> (
        match items w with
        | [] -> Error (Printf.sprintf "type %S writes nothing" name)
        | writes -> Ok (Some (name, writes, items r))))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* The (name, writes, reads) entries of a description file.  A bad line
   prints FILE:LINE: reason and exits 1; [build] turns the entries into
   the tool's input, and a whole-file problem it raises (no types, a
   duplicate name) prints FILE: reason. *)
let read_entries file build =
  let entries =
    List.mapi (fun i line -> (i + 1, line)) (read_lines file)
    |> List.filter_map (fun (n, line) ->
           match parse_line line with
           | Ok e -> e
           | Error reason ->
             Printf.eprintf "%s:%d: %s\n" file n reason;
             exit 1)
  in
  try build entries
  with Invalid_argument reason ->
    Printf.eprintf "%s: %s\n" file reason;
    exit 1

(* Segments are numbered by first use, each line's reads before its
   writes. *)
let spec_of_file file =
  read_entries file (fun entries ->
      let segments : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let order = ref [] in
      let seg name =
        match Hashtbl.find_opt segments name with
        | Some i -> i
        | None ->
          let i = Hashtbl.length segments in
          Hashtbl.add segments name i;
          order := name :: !order;
          i
      in
      let types =
        List.map
          (fun (name, writes, reads) ->
            let reads = List.map seg reads in
            let writes = List.map seg writes in
            Spec.txn_type ~name ~writes ~reads)
          entries
      in
      Spec.make ~segments:(List.rev !order) ~types)

(* --- built-in workloads, protocols and stress profiles --- *)

let workload =
  let parse = function
    | "inventory" -> Ok (Workload.inventory ())
    | "tree" -> Ok (Workload.tree ())
    | "chain3" -> Ok (Workload.chain ~depth:3 ())
    | "chain5" -> Ok (Workload.chain ~depth:5 ())
    | name -> (
      match Scanf.sscanf_opt name "random:%d" Fun.id with
      | Some seed -> Ok (Workload.random_hierarchy ~seed ())
      | None ->
        Error
          (`Msg
            ("unknown workload '" ^ name
           ^ "' (try inventory, tree, chain3, chain5, random:<seed>)")))
  in
  Arg.conv (parse, fun ppf wl -> Format.pp_print_string ppf wl.Workload.wl_name)

let protocol =
  (* an enum prints a value by its last name, so the canonical one goes
     second *)
  Arg.enum
    [ ("hdd", Harness.Hdd); ("HDD", Harness.Hdd);
      ("2pl", Harness.S2pl); ("2PL", Harness.S2pl);
      ("2pl-norl", Harness.S2plNoRl); ("2PL-noRL", Harness.S2plNoRl);
      ("tso", Harness.Tso); ("TSO", Harness.Tso);
      ("tso-norts", Harness.TsoNoRts); ("TSO-noRTS", Harness.TsoNoRts);
      ("mvto", Harness.Mvto); ("MVTO", Harness.Mvto);
      ("mv2pl", Harness.Mv2pl); ("MV2PL", Harness.Mv2pl);
      ("sdd1", Harness.Sdd1); ("SDD-1", Harness.Sdd1);
      ("prudent", Harness.Prudent); ("PRUDENT", Harness.Prudent);
      ("nocc", Harness.Nocc); ("NoCC", Harness.Nocc) ]

let profile =
  let module D = Hdd_runtime.Differential in
  Arg.(value
       & opt
           (enum
              [ ("mixed", D.Mixed); ("abort-heavy", D.Abort_heavy);
                ("adhoc-read", D.Adhoc_read) ])
           D.Mixed
       & info [ "profile" ] ~docv:"PROFILE"
           ~doc:"Workload mix of the generated script: $(b,mixed), \
                 $(b,abort-heavy) (~40% aborts), or $(b,adhoc-read) (~50% \
                 read-only transactions over arbitrary segments).")

(* A name option over a fixed list: an unknown name is a usage error
   listing the valid ones. *)
let name_enum names = Arg.enum (List.map (fun n -> (n, n)) names)

(* --- commands --- *)

let spec_file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Partition description file.")

let validate_cmd =
  let run file =
    let spec = spec_of_file file in
    match Partition.build spec with
    | Ok p ->
      Printf.printf "TST-hierarchical: yes\n";
      Printf.printf "segments: %d, critical arcs: %s\n"
        (Partition.segment_count p)
        (String.concat ", "
           (List.map
              (fun (i, j) -> Printf.sprintf "D%d->D%d" i j)
              (Hdd_graph.Digraph.arcs p.Partition.reduction)));
      Printf.printf "lowest classes: %s\n"
        (String.concat ", "
           (List.map string_of_int (Partition.lowest_classes p)))
    | Error e ->
      Printf.printf "REJECTED: %s\n" (Partition.error_to_string e);
      exit 1
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate a partition description")
    Term.(const run $ spec_file)

let legalize_cmd =
  let run file =
    let spec = spec_of_file file in
    let r = Hdd_core.Legalize.legalize spec in
    if r.Hdd_core.Legalize.merges = [] then
      print_endline "already TST-hierarchical; nothing to merge"
    else begin
      List.iter
        (fun (a, b) ->
          Printf.printf "merge %s with %s\n" (Spec.segment_name spec a)
            (Spec.segment_name spec b))
        r.Hdd_core.Legalize.merges;
      Printf.printf "legal decomposition (%d segments):\n"
        (Spec.segment_count r.Hdd_core.Legalize.spec);
      Array.iteri
        (fun i m ->
          Printf.printf "  %s -> %s\n" (Spec.segment_name spec i)
            (Spec.segment_name r.Hdd_core.Legalize.spec m))
        r.Hdd_core.Legalize.segment_map
    end
  in
  Cmd.v
    (Cmd.info "legalize"
       ~doc:"Merge segments until a partition is TST-hierarchical (§7.2.1)")
    Term.(const run $ spec_file)

let decompose_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"Access-trace file: one line per transaction type, \
                 `name : writes ITEM[,ITEM...] reads [ITEM[,ITEM...]]`.")
  in
  let run file =
    let d =
      read_entries file (fun entries ->
          Hdd_core.Decompose.decompose
            (List.map
               (fun (tag, writes, reads) ->
                 { Hdd_core.Decompose.tag; writes; reads })
               entries))
    in
    let spec = d.Hdd_core.Decompose.legal.Hdd_core.Legalize.spec in
    Printf.printf "legal decomposition with %d segments:\n"
      (Spec.segment_count spec);
    List.iter
      (fun (item, seg) ->
        Printf.printf "  %-20s -> D%d (%s)\n" item seg
          (Spec.segment_name spec seg))
      d.Hdd_core.Decompose.items
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:"Derive a legal decomposition from an access trace (§7.2.2)")
    Term.(const run $ file)

let dot_cmd =
  let workload =
    Arg.(value & pos 0 workload (Workload.inventory ()) & info []
           ~docv:"WORKLOAD" ~doc:"Built-in workload whose DHG to print.")
  in
  let run wl =
    print_string (Partition.to_dot wl.Workload.partition)
  in
  Cmd.v (Cmd.info "dot" ~doc:"Emit a workload's data hierarchy graph as DOT")
    Term.(const run $ workload)

let sim_args =
  let workload =
    Arg.(value & opt workload (Workload.inventory ())
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Workload (inventory, tree, chain3, chain5, \
                   random:<seed>).")
  in
  let commits =
    Arg.(value & opt int 2000 & info [ "n"; "commits" ] ~docv:"N"
           ~doc:"Committed transactions to run.")
  in
  let mpl =
    Arg.(value & opt int 8 & info [ "mpl" ] ~docv:"M"
           ~doc:"Multiprogramming level.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  (workload, commits, mpl, seed)

let config_of ~commits ~mpl ~seed =
  { Runner.default_config with
    Runner.mpl;
    target_commits = commits;
    seed }

let print_results results =
  let table =
    Table.create ~title:"simulation results"
      ~columns:
        [ "protocol"; "commits"; "restarts"; "deadlocks"; "gave up";
          "backoff"; "read regs"; "blocks"; "rejects"; "throughput";
          "p95 resp" ]
  in
  List.iter
    (fun (r : Runner.result) ->
      Table.add_row table
        [ r.Runner.controller;
          string_of_int r.Runner.committed;
          string_of_int r.Runner.restarts;
          string_of_int r.Runner.deadlocks;
          string_of_int r.Runner.gave_up;
          Table.cell_float ~decimals:1 r.Runner.total_backoff;
          string_of_int r.Runner.counters.read_registrations;
          string_of_int r.Runner.counters.blocks;
          string_of_int r.Runner.counters.rejects;
          Table.cell_float ~decimals:3 r.Runner.throughput;
          Table.cell_float r.Runner.p95_response ])
    results;
  Table.print table

let simulate_cmd =
  let workload, commits, mpl, seed = sim_args in
  let protocol =
    Arg.(value & opt protocol Harness.Hdd & info [ "p"; "protocol" ]
           ~docv:"P" ~doc:"Protocol (HDD, 2PL, TSO, MVTO, MV2PL, SDD-1, NoCC).")
  in
  let certify =
    Arg.(value & flag & info [ "certify" ]
           ~doc:"Log the schedule and certify serializability.")
  in
  let run wl commits mpl seed spec certify =
    let config = config_of ~commits ~mpl ~seed in
    if certify then begin
      let r, serializable = Harness.certified_run ~config spec wl in
      print_results [ r ];
      Printf.printf "serializable: %b\n" serializable;
      if not serializable then exit 1
    end
    else print_results [ Runner.run config wl (Harness.make spec wl) ]
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run one workload under one protocol")
    Term.(const run $ workload $ commits $ mpl $ seed $ protocol $ certify)

let compare_cmd =
  let workload, commits, mpl, seed = sim_args in
  let run wl commits mpl seed =
    let config = config_of ~commits ~mpl ~seed in
    print_results (Harness.compare_protocols ~config wl)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run one workload under every protocol")
    Term.(const run $ workload $ commits $ mpl $ seed)

let recover_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"LOG"
           ~doc:"Write-ahead log file to inspect.")
  in
  let segments =
    Arg.(value & opt int 8 & info [ "segments" ] ~docv:"N"
           ~doc:"Segment count of the store to rebuild.")
  in
  let run file segments =
    let r =
      Hdd_storage.Durable.recover ~path:file ~segments ~init:(fun _ -> 0) ()
    in
    (match r.Hdd_storage.Durable.from_checkpoint with
    | Some m ->
      Printf.printf "from checkpoint: seq %d (log offset %d)\n"
        m.Hdd_storage.Checkpoint.seq m.Hdd_storage.Checkpoint.log_offset
    | None -> print_string "from checkpoint: none (full replay)\n");
    Printf.printf
      "log intact: %b
committed: %d
aborted: %d
in-flight lost: %d
last timestamp: %d
live versions: %d
"
      r.Hdd_storage.Durable.log_intact r.Hdd_storage.Durable.committed
      r.Hdd_storage.Durable.aborted r.Hdd_storage.Durable.lost_uncommitted
      r.Hdd_storage.Durable.last_time
      (Hdd_mvstore.Store.version_count r.Hdd_storage.Durable.store);
    if not r.Hdd_storage.Durable.log_intact then exit 2
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Replay a write-ahead log and report the recovered state")
    Term.(const run $ file $ segments)

let torture_cmd =
  let seeds =
    Arg.(value & opt int 50 & info [ "n"; "seeds" ] ~docv:"N"
           ~doc:"Crash/recover cycles to run (one per seed).")
  in
  let first_seed =
    Arg.(value & opt int 0 & info [ "first-seed" ] ~docv:"S"
           ~doc:"Seed of the first cycle.")
  in
  let workload =
    Arg.(value & opt workload (Workload.inventory ())
         & info [ "w"; "workload" ] ~docv:"NAME"
             ~doc:"Workload whose partition to torture.")
  in
  let path =
    Arg.(value & opt string "" & info [ "log" ] ~docv:"FILE"
           ~doc:"Log file to hammer (default: a file under the system \
                 temporary directory).")
  in
  let monitors =
    Arg.(value & flag & info [ "monitors" ]
           ~doc:"Attach the runtime invariant monitors to every phase and \
                 count what they catch as violations.")
  in
  let run seeds first_seed wl path monitors =
    let path =
      if path <> "" then path
      else
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "hdd_torture_%d.log" (Unix.getpid ()))
    in
    let report =
      Hdd_storage.Torture.run ~monitors ~first_seed
        ~partition:wl.Workload.partition ~path ~seeds ()
    in
    Format.printf "%a@." Hdd_storage.Torture.pp_report report;
    if report.Hdd_storage.Torture.violating <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "torture"
       ~doc:"Seeded crash/recover torture of the durable store: inject \
             crashes, torn writes and corruption, then verify the \
             recovery invariants")
    Term.(const run $ seeds $ first_seed $ workload $ path $ monitors)

let explore_cmd =
  let module Explore = Hdd_check.Explore in
  let module Scenarios = Hdd_check.Scenarios in
  let module Shrink = Hdd_check.Shrink in
  let scenario =
    let names = List.map (fun sc -> sc.Scenarios.sc_name) Scenarios.all in
    Arg.(value & opt (name_enum ("all" :: names)) "all"
         & info [ "s"; "scenario" ] ~docv:"NAME"
             ~doc:("Scenario: " ^ Arg.doc_alts ("all" :: names) ^ "."))
  in
  let system =
    let names = List.map (fun sys -> sys.Explore.sys_name) Explore.all_systems in
    Arg.(value & opt (name_enum ("all" :: names)) "all"
         & info [ "p"; "system" ] ~docv:"SYS"
             ~doc:("System: " ^ Arg.doc_alts ("all" :: names) ^ "."))
  in
  let exhaustive =
    Arg.(value & flag & info [ "exhaustive" ]
           ~doc:"Enumerate every interleaving literally instead of one \
                 representative per Mazurkiewicz trace.")
  in
  let max_schedules =
    Arg.(value & opt int 500_000 & info [ "max-schedules" ] ~docv:"N"
           ~doc:"Stop after N complete interleavings.")
  in
  let shrink =
    Arg.(value & flag & info [ "shrink" ]
           ~doc:"Minimise and print the first anomalous trial of each \
                 system that shows one.")
  in
  let run sc_name sys_name exhaustive max_schedules do_shrink =
    let scenarios =
      List.filter
        (fun sc -> sc_name = "all" || sc.Scenarios.sc_name = sc_name)
        Scenarios.all
    in
    let systems =
      List.filter
        (fun sys -> sys_name = "all" || sys.Explore.sys_name = sys_name)
        Explore.all_systems
    in
    let table =
      Table.create ~title:"schedule-space exploration"
        ~columns:
          [ "scenario"; "system"; "schedules"; "pruned"; "serializable";
            "anomalies"; "deadlocks"; "rejections"; "verdict" ]
    in
    let failures = ref 0 in
    List.iter
      (fun (sc : Scenarios.t) ->
        List.iter
          (fun (sys : Explore.system) ->
            let s =
              Explore.explore ~prune:(not exhaustive) ~max_schedules sys
                sc.Scenarios.workload
            in
            let expected =
              List.mem sys.Explore.sys_name sc.Scenarios.expect_anomaly
            in
            let ok =
              (not s.Explore.capped)
              && (s.Explore.anomalies > 0) = expected
            in
            if not ok then incr failures;
            Table.add_row table
              [ sc.Scenarios.sc_name; s.Explore.sum_system;
                string_of_int s.Explore.schedules;
                string_of_int s.Explore.pruned;
                string_of_int s.Explore.serializable;
                string_of_int s.Explore.anomalies;
                string_of_int s.Explore.deadlocks;
                string_of_int s.Explore.rejections;
                (if s.Explore.capped then "CAPPED"
                 else if ok then "ok"
                 else "UNEXPECTED") ];
            if do_shrink && s.Explore.anomalies > 0 then
              match s.Explore.examples with
              | [] -> ()
              | trial :: _ -> (
                match
                  Shrink.minimize sys sc.Scenarios.workload
                    trial.Explore.t_schedule
                with
                | Some r ->
                  Format.printf "@[<v>%s on %s:@,%a@]@.@."
                    sys.Explore.sys_name sc.Scenarios.sc_name
                    Shrink.pp_report r
                | None -> ()))
          systems)
      scenarios;
    Table.print table;
    if !failures > 0 then begin
      Printf.printf "%d scenario/system pairs off expectation\n" !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Enumerate the schedule space of the anomaly scenarios and \
             certify every interleaving under each system")
    Term.(const run $ scenario $ system $ exhaustive $ max_schedules $ shrink)

(* --- bench suites --- *)

type bench_opts = {
  quick : bool;
  workers : int list option;
  publish_every : int option;
}

(* A suite of [hdd_cli bench]: [run] yields its JSON report, a printer
   for it and its intrinsic gate failures; [baseline], for the suites
   gated against a committed report, the fraction a tracked metric may
   fall below it and the module's [tracked]. *)
type suite = {
  run :
    bench_opts ->
    Hdd_benchkit.Jsonlite.t * (Format.formatter -> unit) * string list;
  baseline :
    (float * (Hdd_benchkit.Jsonlite.t -> (string * float) list)) option;
}

let bench_suites =
  let module Macro = Hdd_benchkit.Macro in
  let module Pb = Hdd_runtime.Parbench in
  let module Dbench = Hdd_storage.Dbench in
  let module Sb = Hdd_shard.Shardbench in
  let module Ab = Hdd_adapt.Adaptbench in
  let module Wb = Hdd_workload.Wbench in
  let suite ?baseline run = { run; baseline } in
  let report to_json pp gates r = (to_json r, (fun ppf -> pp ppf r), gates r) in
  let json = report Fun.id in
  let ungated _ = [] in
  let len o ~quick ~full = if o.quick then quick else full in
  [ ( "hot_paths",
      suite ~baseline:(0.20, Macro.tracked) (fun o ->
          json Macro.pp ungated (Macro.run ~quick:o.quick ())) );
    ( "obs_overhead",
      suite (fun o ->
          json Macro.pp_obs Macro.obs_gates
            (Macro.obs_overhead ~quick:o.quick ())) );
    ( "parallel",
      suite ~baseline:(0.50, Pb.tracked) (fun o ->
          report Pb.to_json Pb.pp Pb.gates
            (Pb.run ?workers_list:o.workers ?publish_every:o.publish_every
               ~ksweep:(len o ~quick:[ 1; 16 ] ~full:[ 1; 4; 16; 64 ])
               ~seconds:(len o ~quick:0.2 ~full:1.0) ())) );
    ( "durable",
      suite ~baseline:(0.25, Dbench.tracked) (fun o ->
          json Dbench.pp Dbench.gates (Dbench.run ~quick:o.quick ())) );
    ( "shard",
      suite ~baseline:(0.20, Sb.tracked) (fun o ->
          report Sb.to_json Sb.pp Sb.gates
            (Sb.run ~seconds:(len o ~quick:0.25 ~full:1.0)
               ?publish_every:o.publish_every ())) );
    ( "adapt",
      suite ~baseline:(0.20, Ab.tracked) (fun o ->
          report Ab.to_json Ab.pp Ab.gates
            (Ab.run ~seconds:(len o ~quick:0.25 ~full:1.0)
               ~rotate_every_s:(len o ~quick:0.05 ~full:0.125) ())) );
    ( "hybrid",
      suite ~baseline:(0.20, Wb.tracked) (fun o ->
          report Wb.to_json Wb.pp Wb.gates (Wb.run ~quick:o.quick ())) );
    ( "micro",
      suite (fun o -> json Micro.pp ungated (Micro.run ~quick:o.quick ())) )
  ]

let bench_cmd =
  let module J = Hdd_benchkit.Jsonlite in
  let suite =
    let named = List.map (fun (n, s) -> (n, (n, s))) bench_suites in
    Arg.(required & pos 0 (some (enum named)) None & info [] ~docv:"SUITE"
           ~doc:("The suite to run: " ^ doc_alts_enum named ^ "."))
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Shorter runs and smaller fixtures for per-push CI.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ]
           ~docv:"FILE"
           ~doc:"Where to write the JSON report (default \
                 BENCH_$(i,SUITE).json).")
  in
  let baseline =
    let budget (name, s) =
      Option.map (fun (b, _) -> Printf.sprintf "%s %.0f%%" name (100. *. b))
        s.baseline
    in
    Arg.(value & opt (some file) None & info [ "baseline" ] ~docv:"FILE"
           ~doc:("A committed report of the same suite: fail when a \
                  tracked metric falls below it by more than the suite's \
                  budget ("
                ^ String.concat ", " (List.filter_map budget bench_suites)
                ^ ")."))
  in
  let workers =
    Arg.(value & opt (some (list int)) None & info [ "workers" ]
           ~docv:"W,W,..."
           ~doc:"For $(b,parallel): the worker-domain counts to measure \
                 (default 1,2,4,8, extended with all-cores when that \
                 exceeds 8).")
  in
  let publish_every =
    Arg.(value & opt (some int) None & info [ "publish-every" ] ~docv:"K"
           ~doc:"For $(b,parallel) and $(b,shard): publish activity once \
                 per K finished transactions.  It sets the batch of the \
                 parallel scaling points (the K-sweep still runs) and of \
                 the batched shard side compared against per-commit \
                 publication.")
  in
  let run (name, s) quick out baseline workers publish_every =
    let misuse =
      [ (workers <> None && name <> "parallel",
         "--workers applies to the parallel suite only");
        (publish_every <> None && name <> "parallel" && name <> "shard",
         "--publish-every applies to the parallel and shard suites only");
        (baseline <> None && Option.is_none s.baseline,
         "the " ^ name ^ " suite tracks no metrics against a baseline") ]
    in
    match List.find_opt fst misuse with
    | Some (_, msg) -> `Error (true, msg)
    | None ->
      let report, pp, problems = s.run { quick; workers; publish_every } in
      let out = Option.value out ~default:("BENCH_" ^ name ^ ".json") in
      J.to_file out report;
      Printf.printf "wrote %s\n" out;
      Format.printf "%t@?" pp;
      List.iter
        (Printf.printf "%s GATE FAILED: %s\n" (String.uppercase_ascii name))
        problems;
      let regressions =
        match (baseline, s.baseline) with
        | Some path, Some (budget, tracked) ->
          let rs =
            Hdd_benchkit.Baseline.regressions ~tracked ~budget
              ~baseline:(J.of_file path) report
          in
          List.iter
            (fun (metric, was, now) ->
              Printf.printf "REGRESSION %s: %g -> %g (-%.0f%%)\n" metric was
                now
                (100. *. (1. -. (now /. was))))
            rs;
          if rs = [] then
            Printf.printf "no %s regression beyond %.0f%% against %s\n" name
              (100. *. budget) path;
          rs
        | _ -> []
      in
      if problems <> [] || regressions <> [] then exit 1;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run one bench suite: print it, write its JSON report, check \
             its intrinsic gates and, with $(b,--baseline), compare it \
             with a committed report"
       ~exits:
         (Cmd.Exit.info 1 ~doc:"on a failed gate or a regression."
         :: Cmd.Exit.defaults))
    Term.(
      ret
        (const run $ suite $ quick $ out $ baseline $ workers
       $ publish_every))

let trace_cmd =
  let module Obs_export = Hdd_benchkit.Obs_export in
  let module J = Hdd_benchkit.Jsonlite in
  let module Trace = Hdd_obs.Trace in
  let module Oracle = Hdd_core.Oracle in
  let workload, commits, mpl, seed = sim_args in
  let protocol =
    Arg.(value & opt protocol Harness.Hdd & info [ "p"; "protocol" ]
           ~docv:"P"
           ~doc:"Protocol to trace (only HDD emits events; baselines \
                 produce an empty trace).")
  in
  let out =
    Arg.(value & opt string "hdd_trace.json" & info [ "o"; "out" ]
           ~docv:"FILE" ~doc:"Where to write the Chrome trace-event JSON \
                              (load in chrome://tracing or Perfetto).")
  in
  let capacity =
    Arg.(value & opt int 65536 & info [ "capacity" ] ~docv:"N"
           ~doc:"Trace ring capacity; the oldest records beyond it are \
                 dropped.")
  in
  let run wl commits mpl seed spec out capacity =
    let config = config_of ~commits ~mpl ~seed in
    let result, trace, metrics, report =
      Harness.traced_run ~config ~capacity spec wl
    in
    print_results [ result ];
    J.to_file out (Obs_export.chrome_trace trace);
    Printf.printf "wrote %s (%d events emitted, %d dropped)\n" out
      (Trace.emitted trace) (Trace.dropped trace);
    print_endline "metrics:";
    List.iter
      (fun (name, snap) ->
        match snap with
        | Hdd_obs.Metrics.Counter n -> Printf.printf "  %-28s %d\n" name n
        | Hdd_obs.Metrics.Gauge g -> Printf.printf "  %-28s %g\n" name g
        | Hdd_obs.Metrics.Histogram { count; sum; _ } ->
          Printf.printf "  %-28s count %d sum %g\n" name count sum)
      (Hdd_obs.Metrics.snapshot metrics);
    match Oracle.witnesses report Oracle.Monitor_replay with
    | [] ->
      Printf.printf "monitors: ok (%d events checked)\n" report.Oracle.events
    | vs ->
      List.iter (fun v -> Printf.printf "MONITOR VIOLATION: %s\n" v) vs;
      exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run one workload with full observability on: write a Chrome \
             trace-event JSON, print the metrics registry, and verify the \
             runtime invariant monitors stayed green")
    Term.(const run $ workload $ commits $ mpl $ seed $ protocol $ out
          $ capacity)

let shard_cmd =
  let module Sh = Hdd_shard in
  let module D = Hdd_runtime.Differential in
  let module J = Hdd_benchkit.Jsonlite in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N"
           ~doc:"Number of shards; segments are partitioned round-robin \
                 across them.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED"
           ~doc:"Draws the hierarchy (even seeds a chain, odd a tree), \
                 the script, and the deterministic interleaving.")
  in
  let txns =
    Arg.(value & opt int 40 & info [ "txns" ] ~docv:"N"
           ~doc:"Transactions in the generated script.")
  in
  let processes =
    Arg.(value & flag & info [ "processes" ]
           ~doc:"Fork one OS process per shard connected by real pipes \
                 instead of the deterministic in-process scheduler.")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"Write the merged cluster trace as Chrome trace-event \
                 JSON (load in chrome://tracing or Perfetto).")
  in
  let run shards seed txns profile processes trace_out =
    let partition, script = D.stress_case ~seed ~txns ~profile in
    let init = D.default_init in
    let run =
      if processes then
        Sh.Cluster.run_script_processes ~partition ~init ~shards ~script ()
      else
        Sh.Cluster.run_script_det ~partition ~init ~shards ~seed ~script ()
    in
    let report = D.check_run ~partition ~init ~script run in
    (match trace_out with
    | None -> ()
    | Some file ->
      J.to_file file
        (Hdd_benchkit.Obs_export.chrome_trace_of_records
           run.Hdd_runtime.Engine.records);
      Printf.printf "wrote %s\n" file);
    Format.printf "%d shards (%s), seed %d: %a@." shards
      (if processes then "processes" else "deterministic")
      seed D.pp_report report;
    if not (D.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:"Run a seeded stress script on a multi-shard cluster and \
             apply the cross-shard differential oracle: merge the \
             per-shard traces on the global clock, MVSG-certify, replay \
             the invariant monitors, and compare verdicts and \
             Protocol-B read-from sets against the serial oracle")
    Term.(
      const run $ shards $ seed $ txns $ profile $ processes $ trace_out)

let adapt_cmd =
  let module D = Hdd_runtime.Differential in
  let module Drift = Hdd_adapt.Drift in
  let module Advise = Hdd_adapt.Advise in
  let module Scenario = Hdd_adapt.Scenario in
  let module Oracle = Hdd_core.Oracle in
  let module Trace = Hdd_obs.Trace in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED"
           ~doc:"Draws the hierarchy, the script and the interleaving.")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains for the live-migration oracle run.")
  in
  let txns =
    Arg.(value & opt int 80 & info [ "txns" ] ~docv:"N"
           ~doc:"Transactions in the generated script.")
  in
  let repartitions =
    Arg.(value & opt int 3 & info [ "repartitions" ] ~docv:"N"
           ~doc:"Live whole-map ownership rotations injected while the \
                 run is in flight, each behind a park barrier.")
  in
  let scenario =
    let names = List.map (fun gl -> gl.Scenario.g_name) Scenario.goldens in
    Arg.(value & opt (some (name_enum (names @ [ "all" ]))) None
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:("Instead of the oracle run, drive a curated drift \
                    scenario through the detect/advise/execute pipeline \
                    (" ^ Arg.doc_alts (names @ [ "all" ])
                  ^ ") and replay its trace through the invariant \
                     monitors."))
  in
  let run_scenarios which =
    let picked =
      List.filter
        (fun gl -> which = "all" || gl.Scenario.g_name = which)
        Scenario.goldens
    in
    let failed = ref false in
    List.iter
      (fun gl ->
        let records = Scenario.golden_records gl in
        Printf.printf "%s: %s\n" gl.Scenario.g_name gl.Scenario.g_what;
        List.iter
          (fun (r : Trace.record) ->
            match r.Trace.ev with
            | Trace.Repartition _ ->
              Format.printf "  %a@." Trace.pp_event r.Trace.ev
            | _ -> ())
          records;
        let report =
          Oracle.check
            (Oracle.create ~raise_on_violation:false ~wall_rule:`Any_released
               ())
            ~records ~outcomes:[]
        in
        (match Oracle.witnesses report Oracle.Monitor_replay with
        | [] ->
          Printf.printf "  monitors: ok (%d records, epoch %d)\n"
            report.Oracle.events report.Oracle.epoch
        | vs ->
          failed := true;
          List.iter (fun v -> Printf.printf "  MONITOR VIOLATION: %s\n" v) vs))
      picked;
    if !failed then exit 1
  in
  let run seed workers txns repartitions profile scenario =
    match scenario with
    | Some which -> run_scenarios which
    | None ->
      let r = D.stress_one ~repartitions ~seed ~workers ~txns ~profile () in
      Format.printf "%d workers, seed %d, %d planned rotations: %a@." workers
        seed repartitions D.pp_report r;
      if not (D.ok r) then exit 1;
      if repartitions > 0 && r.D.r_stats.repartitions = 0 then begin
        Printf.printf
          "no rotation was applied (script too short for a barrier)\n";
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:"Exercise online dynamic decomposition: run a seeded script \
             on the multicore engine with live ownership rotations \
             behind park barriers and apply the four-check differential \
             oracle, or drive the curated drift scenarios through the \
             detect/advise/execute pipeline (DESIGN.md §17)")
    Term.(
      const run $ seed $ workers $ txns $ repartitions $ profile $ scenario)

let hybrid_cmd =
  let module D = Hdd_runtime.Differential in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED"
           ~doc:"Draws the hierarchy, the script and the interleaving; \
                 with $(b,--seeds) it is the first of the range.")
  in
  let seeds =
    Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N"
           ~doc:"Consecutive seeds to run (the nightly deep loop passes \
                 hundreds).")
  in
  let workers =
    Arg.(value & opt (list int) [ 2; 4; 8 ] & info [ "workers" ]
           ~docv:"W,W,..."
           ~doc:"Worker-domain counts; the oracle runs once per count.")
  in
  let txns =
    Arg.(value & opt int 80 & info [ "txns" ] ~docv:"N"
           ~doc:"Transactions in the generated script.")
  in
  let escalations =
    Arg.(value & opt int 3 & info [ "escalations" ] ~docv:"N"
           ~doc:"Live CC mode flips injected while the run is in \
                 flight, each behind a park barrier; the last flip \
                 returns every class to plain mode.")
  in
  let run seed seeds workers txns escalations profile =
    let failed = ref 0 in
    let flips_applied = ref 0 in
    for s = seed to seed + seeds - 1 do
      List.iter
        (fun w ->
          let r =
            D.stress_one ~escalations ~seed:s ~workers:w ~txns ~profile ()
          in
          flips_applied := !flips_applied + r.D.r_stats.escalations;
          if not (D.ok r) then begin
            incr failed;
            Format.printf "FAIL seed %d workers %d: %a@." s w D.pp_report r
          end)
        workers
    done;
    Printf.printf "%d seeds x %d worker counts: %d failures, %d flips \
                   applied\n"
      seeds (List.length workers) !failed !flips_applied;
    if !failed > 0 then exit 1;
    if escalations > 0 && !flips_applied = 0 then begin
      Printf.printf "no mode flip was ever applied\n";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "hybrid"
       ~doc:"Exercise adaptive hybrid CC on the multicore engine: seeded \
             scripts with live per-class mode flips (plain HDD <-> \
             commit-stamped) behind park barriers, each run checked by \
             the four-check differential oracle (DESIGN.md §18)")
    Term.(
      const run $ seed $ seeds $ workers $ txns $ escalations $ profile)

let experiments_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"ID"
           ~doc:"Experiment ids (E1..E13); all when omitted.")
  in
  let run ids =
    let outcomes =
      match ids with
      | [] -> Experiment.run_all ()
      | ids -> List.map Experiment.run ids
    in
    List.iter Experiment.print outcomes;
    let failed = List.filter (fun o -> not (Experiment.passed o)) outcomes in
    Printf.printf "\n%d/%d experiments passed\n"
      (List.length outcomes - List.length failed)
      (List.length outcomes);
    if failed <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run the paper-reproduction experiments (DESIGN.md §4)")
    Term.(const run $ ids)

let () =
  let doc = "Hierarchical Database Decomposition (Hsu, 1982) — tools" in
  let info = Cmd.info "hdd_cli" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
                    [ validate_cmd; legalize_cmd; decompose_cmd; dot_cmd;
                      simulate_cmd; compare_cmd; recover_cmd; torture_cmd;
                      explore_cmd; bench_cmd; trace_cmd; shard_cmd;
                      adapt_cmd; hybrid_cmd; experiments_cmd ]))

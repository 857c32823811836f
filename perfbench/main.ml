(* One workload in one process: [main.exe --workload NAME --seed N
   --seconds S --trace 0|1 --out DIR --report FILE].  Writes a JSON
   report (checks, attempted/failed counts, metrics with units,
   environment notes) to FILE; [run.py] turns it into the benchmark's
   result.  Exits 1 when a correctness check fails. *)

open Hddbench

let workloads =
  [ ("serial-read", Serial_read.run);
    ("durable-write", Durable_write.run);
    ("engine-cross", Engine_cross.run);
    ("shard-loopback", Shard_loopback.run) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and out = ref "." and report = ref "report.json" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " one of: "
        ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 1 = traced run (per-layer spans)");
      ("--out", Arg.Set_string out, " directory for traces and logs");
      ("--report", Arg.Set_string report, " where to write the JSON report") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [options]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let r = Report.create () in
  let o =
    { Common.seed = !seed; seconds = !seconds; traced = !trace = 1; out_dir = !out }
  in
  Report.note r "ocaml_version" Sys.ocaml_version;
  Report.note r "recommended_domains"
    (string_of_int (Domain.recommended_domain_count ()));
  (try run o r
   with e ->
     Report.check r "workload ran to completion" false (Printexc.to_string e));
  Report.write r ~workload:!workload !report;
  exit (if Report.correct r then 0 else 1)

(* What one workload process hands back: correctness checks, attempted
   and failed transaction counts, metrics with units, and environment
   notes — written as a JSON file for [run.py] to read. *)

module J = Hdd_benchkit.Jsonlite

type t = {
  mutable checks : (string * bool * string) list;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;
  mutable notes : (string * string) list;
}

let create () =
  { checks = []; attempted = 0; failed = 0; metrics = []; notes = [] }

let metric r name value unit = r.metrics <- (name, value, unit) :: r.metrics
let note r key value = r.notes <- (key, value) :: r.notes

let check r name ok detail =
  r.checks <- (name, ok, detail) :: r.checks

let correct r = r.checks <> [] && List.for_all (fun (_, ok, _) -> ok) r.checks

(* A latency sample set, in µs: median and p99 when the percentile rule
   allows them, always with the sample count. *)
let latency r prefix (s : Meter.samples) =
  let sorted = Meter.sorted s in
  metric r (prefix ^ "_samples") (float_of_int (Meter.count s)) "count";
  List.iter
    (fun (p, tag) ->
      match Meter.percentile sorted p with
      | Some ns -> metric r (prefix ^ "_" ^ tag ^ "_us") (float_of_int ns /. 1e3) "us"
      | None -> note r (prefix ^ "_" ^ tag ^ "_us") "too few samples")
    [ (0.5, "p50"); (0.99, "p99") ]

(* Jsonlite prints numbers to six significant digits, so metric values
   travel as "%.17g" strings and run.py reads every digit measured. *)
let to_json r ~workload =
  J.with_schema
    [ ("workload", J.Str workload);
      ("correct", J.Bool (correct r));
      ("attempted", J.num_of_int r.attempted);
      ("failed", J.num_of_int r.failed);
      ( "checks",
        J.List
          (List.rev_map
             (fun (n, ok, d) ->
               J.Obj [ ("name", J.Str n); ("ok", J.Bool ok); ("detail", J.Str d) ])
             r.checks) );
      ( "metrics",
        J.Obj
          (List.rev_map
             (fun (n, v, u) ->
               (n, J.Obj [ ("value", J.Str (Printf.sprintf "%.17g" v)); ("unit", J.Str u) ]))
             r.metrics) );
      ("env", J.Obj (List.rev_map (fun (k, v) -> (k, J.Str v)) r.notes)) ]

let write r ~workload path = J.to_file path (to_json r ~workload)

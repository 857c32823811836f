(* Benchkit's serialisers: the Jsonlite emitter/parser pair (round-trip
   stability over escapes, big and negative ints, float edge cases,
   deeply nested values) and the Chrome trace-event exporter producing
   JSON the parser itself accepts; and the one baseline comparator, over
   every bench module's [tracked] and its committed baseline. *)

module J = Hdd_benchkit.Jsonlite
module Obs_export = Hdd_benchkit.Obs_export
module Trace = Hdd_obs.Trace
module Metrics = Hdd_obs.Metrics
module Prng = Hdd_util.Prng

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* emit/parse/emit: one parse must reach the fixed point, so emitted
   JSON re-parses to the same serialization *)
let stable name v =
  let s = J.to_string v in
  let s' = J.to_string (J.of_string s) in
  checks name s s'

let test_string_escapes () =
  List.iter
    (fun s -> stable (Printf.sprintf "string %S" s) (J.Str s))
    [ "";
      "plain";
      "quote \" backslash \\ slash /";
      "newline \n tab \t return \r";
      "control \001\002\031";
      "backspace \b formfeed \012";
      "high bytes \xc3\xa9\xe2\x82\xac" ]

let test_numbers () =
  List.iter
    (fun f -> stable (Printf.sprintf "number %g" f) (J.Num f))
    [ 0.; -0.; 1.; -1.; 42.; -273.; 0.1; -0.25; 1e-7; 1.5e20;
      9007199254740992. (* 2^53 *); -9007199254740992.;
      4611686018427387903. (* max OCaml int *); 3.141592653589793 ]

let test_nonfinite_floats_are_null () =
  List.iter
    (fun f ->
      checks "non-finite emits null" "null"
        (String.trim (J.to_string (J.Num f))))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* and inside structures: the null survives a round-trip *)
  checkb "nested non-finite parses back as null" true
    (J.of_string (J.to_string (J.List [ J.Num Float.nan; J.Num 1. ]))
    = J.List [ J.Null; J.Num 1. ])

let test_nesting () =
  stable "empty structures" (J.List [ J.Obj []; J.List []; J.Null ]);
  stable "mixed nesting"
    (J.Obj
       [ ("a", J.List [ J.Num 1.; J.Str "x"; J.Bool true; J.Null ]);
         ("b", J.Obj [ ("c", J.List [ J.Obj [ ("d", J.Num (-2.5)) ] ]) ]);
         ("empty key", J.Str "");
         ("esc\"key", J.Num 7.) ])

(* random values, seeded: shrink-free but replayable *)
let rec gen_value g depth =
  match if depth = 0 then Prng.int g 4 else Prng.int g 6 with
  | 0 -> J.Null
  | 1 -> J.Bool (Prng.bool g)
  | 2 ->
    J.Num
      (match Prng.int g 4 with
      | 0 -> Float.of_int (Prng.int g 1000 - 500)
      | 1 -> Float.of_int (Prng.int g 1_000_000) /. 97.
      | 2 -> Float.of_int (Prng.int g 1_000_000) *. 1e12
      | _ -> -.Float.of_int (Prng.int g 1000) /. 13.)
  | 3 ->
    J.Str
      (String.init (Prng.int g 12) (fun _ -> Char.chr (Prng.int g 128)))
  | 4 -> J.List (List.init (Prng.int g 4) (fun _ -> gen_value g (depth - 1)))
  | _ ->
    J.Obj
      (List.init (Prng.int g 4) (fun i ->
           (Printf.sprintf "k%d_%c" i (Char.chr (32 + Prng.int g 95)),
            gen_value g (depth - 1))))

let prop_roundtrip_stable =
  QCheck2.Test.make ~name:"jsonlite: emit/parse/emit reaches a fixed point"
    ~count:500
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
      let g = Prng.create seed in
      let v = gen_value g 3 in
      let s = J.to_string v in
      J.to_string (J.of_string s) = s)

(* --- the trace exporter --- *)

let test_chrome_trace_parses () =
  let t = Trace.create () in
  Trace.emit t ~at:1 (Trace.Begin { txn = 1; kind = Trace.Update 0; init = 1 });
  Trace.emit t ~at:2
    (Trace.Read
       { txn = 1; protocol = Trace.B; segment = 0; key = 0; threshold = 1;
         version = 0 });
  Trace.emit t ~at:2 (Trace.Write { txn = 1; segment = 0; key = 0; ts = 1 });
  Trace.emit t ~at:3 (Trace.Commit { txn = 1; at = 3 });
  Trace.emit t ~at:3 (Trace.Begin { txn = 2; kind = Trace.Read_only; init = 4 });
  Trace.emit t ~at:4
    (Trace.Wall_release { m = 3; released_at = 4; components = [| 3 |] });
  Trace.emit t ~at:4 (Trace.Gc { watermark = 3; vector = [| 3 |]; dropped = 2 });
  let json = Obs_export.chrome_trace t in
  let reparsed = J.of_string (J.to_string json) in
  (match Option.map (fun e -> e <> J.List []) (J.member "traceEvents" reparsed) with
  | Some true -> ()
  | _ -> Alcotest.fail "traceEvents empty or missing");
  (* one complete slice for the finished transaction, one zero-duration
     slice for the still-active reader *)
  match J.member "traceEvents" reparsed with
  | Some (J.List events) ->
    let phases =
      List.filter_map
        (fun e ->
          match (J.member "ph" e, J.member "dur" e) with
          | Some (J.Str "X"), Some (J.Num d) -> Some d
          | _ -> None)
        events
    in
    checkb "two transaction slices" true (List.length phases = 2);
    checkb "one has positive duration, one is zero" true
      (List.sort compare phases = [ 0.; 2. ])
  | _ -> Alcotest.fail "traceEvents not a list"

let test_metrics_json_parses () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "c") 3;
  Metrics.set (Metrics.gauge m "g") 1.5;
  Metrics.observe (Metrics.histogram ~buckets:[| 1.; 2. |] m "h") 1.5;
  let json = Obs_export.metrics_json m in
  let reparsed = J.of_string (J.to_string json) in
  checkb "counter" true (J.member "c" reparsed = Some (J.Num 3.));
  checkb "gauge" true (J.member "g" reparsed = Some (J.Num 1.5));
  match Option.bind (J.member "h" reparsed) (J.member "count") with
  | Some (J.Num 1.) -> ()
  | _ -> Alcotest.fail "histogram count missing"

(* --- the baseline comparator --- *)

module Baseline = Hdd_benchkit.Baseline

let committed name = J.of_file (Filename.concat "../bench" name)

let test_tracked_baselines () =
  let names tracked file = List.map fst (tracked (committed file)) in
  let check_names what expected got =
    Alcotest.(check (list string)) what expected got
  in
  check_names "hot_paths"
    [ "macro.ops_per_sec"; "macro.txns_per_sec";
      "hot_paths.cross_class_read.after_ops_per_sec" ]
    (names Hdd_benchkit.Macro.tracked "BENCH_baseline.json");
  check_names "parallel"
    [ "reads_a_per_s at 1 workers"; "reads_a_per_s at 2 workers";
      "reads_a_per_s at 4 workers"; "reads_a_per_s at 8 workers";
      "cross_read_scaling_1_to_8" ]
    (names Hdd_runtime.Parbench.tracked "BENCH_parallel_baseline.json");
  check_names "durable"
    [ "txns_per_sec at batch=0 delay=0"; "txns_per_sec at batch=8 delay=16";
      "txns_per_sec at batch=32 delay=64" ]
    (names Hdd_storage.Dbench.tracked "BENCH_durable_baseline.json");
  check_names "shard" [ "speedup" ]
    (names Hdd_shard.Shardbench.tracked "BENCH_shard_baseline.json");
  check_names "adapt" [ "retention_live" ]
    (names Hdd_adapt.Adaptbench.tracked "BENCH_adapt_baseline.json");
  check_names "hybrid" [ "ratio_high" ]
    (names Hdd_workload.Wbench.tracked "BENCH_hybrid_baseline.json")

(* [doc] with the number at [keys] multiplied by [k] *)
let rec scale keys k doc =
  match (keys, doc) with
  | [], J.Num x -> J.Num (x *. k)
  | key :: rest, J.Obj kvs ->
    J.Obj
      (List.map
         (fun (key', v) -> (key', if key' = key then scale rest k v else v))
         kvs)
  | _ -> doc

let test_budget () =
  let base = committed "BENCH_baseline.json" in
  let report = scale [ "macro"; "txns_per_sec" ] 0.7 base in
  let regressions budget =
    List.map
      (fun (metric, _, _) -> metric)
      (Baseline.regressions ~tracked:Hdd_benchkit.Macro.tracked ~budget
         ~baseline:base report)
  in
  Alcotest.(check (list string))
    "30% below regresses at 0.20" [ "macro.txns_per_sec" ] (regressions 0.20);
  Alcotest.(check (list string)) "and passes at 0.50" [] (regressions 0.50)

let test_skips () =
  let tracked = Hdd_shard.Shardbench.tracked in
  let speedup v = J.Obj [ ("speedup", v) ] in
  List.iter
    (fun (what, baseline, report) ->
      checkb what true
        (Baseline.regressions ~tracked ~budget:0.2 ~baseline report = []))
    [ ("missing in the report", speedup (J.Num 3.), J.Obj []);
      ("missing in the baseline", J.Obj [], speedup (J.Num 0.1));
      ("null in the baseline", speedup J.Null, speedup (J.Num 0.1));
      ("zero baseline", speedup (J.Num 0.), speedup (J.Num (-1.)));
      ("negative baseline", speedup (J.Num (-1.)), speedup (J.Num (-5.))) ]

let suite =
  [ Alcotest.test_case "jsonlite: string escapes round-trip" `Quick
      test_string_escapes;
    Alcotest.test_case "jsonlite: int and float edge cases" `Quick
      test_numbers;
    Alcotest.test_case "jsonlite: non-finite floats emit null" `Quick
      test_nonfinite_floats_are_null;
    Alcotest.test_case "jsonlite: nested structures" `Quick test_nesting;
    QCheck_alcotest.to_alcotest prop_roundtrip_stable;
    Alcotest.test_case "obs_export: chrome trace parses back" `Quick
      test_chrome_trace_parses;
    Alcotest.test_case "obs_export: metrics snapshot parses back" `Quick
      test_metrics_json_parses;
    Alcotest.test_case "baseline: tracked metrics of each committed report"
      `Quick test_tracked_baselines;
    Alcotest.test_case "baseline: a 30% drop against two budgets" `Quick
      test_budget;
    Alcotest.test_case "baseline: missing and non-positive metrics skip"
      `Quick test_skips ]

(* The benchmark's own self-tests: span self time, the percentile rule,
   systematic sampling, and reproducible inputs.  Run with
   [dune test perfbench]. *)

open Hddbench

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let self_of spans =
  let a = Array.of_list spans in
  let n = Array.length a in
  Spans.self_times
    ~start:(Array.map (fun (s, _, _) -> s) a)
    ~stop:(Array.map (fun (_, e, _) -> e) a)
    ~parent:(Array.map (fun (_, _, p) -> p) a)
    n
  |> Array.to_list

let () =
  (* nested: a child's own child does not count against the root *)
  expect "self time, nested children"
    (self_of [ (0, 100, -1); (10, 60, 0); (20, 30, 1); (70, 80, 0) ]
    = [ 40; 40; 10; 10 ]);
  (* overlapping children count their union once; a child reaching past
     its parent is clipped to the parent *)
  expect "self time, overlapping children"
    (self_of [ (0, 100, -1); (10, 50, 0); (30, 70, 0); (90, 120, 0) ]
    = [ 30; 40; 40; 30 ]);
  expect "self time, leaf" (self_of [ (5, 9, -1) ] = [ 4 ])

let () =
  let sorted n = Array.init n (fun i -> i + 1) in
  (* a percentile is reported only with at least ten samples beyond it *)
  expect "p50 of 20 samples" (Meter.percentile (sorted 20) 0.5 = Some 10);
  expect "no p50 of 19 samples" (Meter.percentile (sorted 19) 0.5 = None);
  expect "p99 of 1000 samples" (Meter.percentile (sorted 1000) 0.99 = Some 990);
  expect "no p99 of 999 samples" (Meter.percentile (sorted 999) 0.99 = None)

let () =
  let s = Meter.samples ~cap:8 () in
  for i = 0 to 99 do
    Meter.add s i
  done;
  (* 100 values into 8 cells: every 16th value is kept *)
  expect "systematic sample"
    (Array.to_list (Meter.sorted s) = [ 0; 16; 32; 48; 64; 80; 96 ]
    && Meter.count s = 100)

let () =
  let a = Gen.all_inputs ~seed:7 and b = Gen.all_inputs ~seed:7 in
  expect "same seed, byte-identical inputs" (String.equal a b);
  expect "different seed, different inputs"
    (not (String.equal a (Gen.all_inputs ~seed:8)))

let () = if !failures > 0 then exit 1

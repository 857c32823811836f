(* Unit tests for hdd_util: PRNG determinism, distributions, statistics,
   table rendering, the CRC-32. *)

module Prng = Hdd_util.Prng
module Dist = Hdd_util.Dist
module Stats = Hdd_util.Stats
module Table = Hdd_util.Table
module Binc = Hdd_util.Binc

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 7 and b = Prng.create 8 in
  checkb "different seeds diverge" true (Prng.bits64 a <> Prng.bits64 b)

let test_prng_int_bounds () =
  let g = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.int g 17 in
    checkb "0 <= x < 17" true (x >= 0 && x < 17)
  done;
  Alcotest.check_raises "zero bound rejected"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0))

let test_prng_float_bounds () =
  let g = Prng.create 2 in
  for _ = 1 to 1000 do
    let x = Prng.float g 3.5 in
    checkb "0 <= x < 3.5" true (x >= 0. && x < 3.5)
  done

let test_prng_copy () =
  let a = Prng.create 9 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.bits64 a)
    (Prng.bits64 b)

let test_bernoulli_extremes () =
  let g = Prng.create 21 in
  for _ = 1 to 200 do
    checkb "p=0 never" false (Dist.bernoulli g ~p:0.);
    checkb "p=1 always" true (Dist.bernoulli g ~p:1.0)
  done;
  let g = Prng.create 22 in
  let hits = ref 0 in
  for _ = 1 to 10000 do
    if Dist.bernoulli g ~p:0.3 then incr hits
  done;
  checkb "p=0.3 frequency" true (!hits > 2700 && !hits < 3300)

let test_prng_split_independence () =
  let g = Prng.create 3 in
  let h = Prng.split g in
  (* the split stream must differ from the parent's continuation *)
  checkb "split differs" true (Prng.bits64 h <> Prng.bits64 g)

let test_prng_shuffle_permutation () =
  let g = Prng.create 4 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation"
    (Array.init 50 Fun.id) sorted

let test_prng_pick () =
  let g = Prng.create 5 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    checkb "pick from array" true (Array.mem (Prng.pick g a) a)
  done;
  Alcotest.check_raises "empty pick rejected"
    (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick g [||]))

let test_exponential_mean () =
  let g = Prng.create 11 in
  let n = 20000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Dist.exponential g ~rate:2.0
  done;
  let mean = !total /. float_of_int n in
  (* mean of Exp(2) is 0.5; allow generous tolerance *)
  checkb "exponential mean near 0.5" true (abs_float (mean -. 0.5) < 0.03)

let test_uniform_int_range () =
  let g = Prng.create 12 in
  for _ = 1 to 1000 do
    let x = Dist.uniform_int g ~lo:5 ~hi:9 in
    checkb "in [5,9]" true (x >= 5 && x <= 9)
  done

let test_zipf_uniform_degenerate () =
  let g = Prng.create 13 in
  let z = Dist.zipf ~n:4 ~alpha:0. in
  let counts = Array.make 4 0 in
  for _ = 1 to 8000 do
    let i = Dist.zipf_draw z g in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c -> checkb "roughly uniform" true (c > 1600 && c < 2400))
    counts

let test_zipf_skew () =
  let g = Prng.create 14 in
  let z = Dist.zipf ~n:100 ~alpha:1.2 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10000 do
    let i = Dist.zipf_draw z g in
    counts.(i) <- counts.(i) + 1
  done;
  checkb "rank 0 dominates rank 50" true (counts.(0) > 10 * (counts.(50) + 1));
  checki "domain size" 100 (Dist.zipf_n z)

let test_zipf_validation () =
  Alcotest.check_raises "n=0 rejected"
    (Invalid_argument "Dist.zipf: n must be positive") (fun () ->
      ignore (Dist.zipf ~n:0 ~alpha:1.));
  Alcotest.check_raises "alpha<0 rejected"
    (Invalid_argument "Dist.zipf: alpha must be >= 0") (fun () ->
      ignore (Dist.zipf ~n:3 ~alpha:(-1.)))

let test_stats_moments () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  checki "count" 8 (Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean s);
  check (Alcotest.float 1e-6) "stddev" 2.13809 (Stats.stddev s);
  check (Alcotest.float 1e-9) "min" 2. (Stats.min_value s);
  check (Alcotest.float 1e-9) "max" 9. (Stats.max_value s);
  check (Alcotest.float 1e-9) "total" 40. (Stats.total s)

let test_stats_percentile () =
  let s = Stats.create () in
  for i = 1 to 100 do
    Stats.add s (float_of_int i)
  done;
  check (Alcotest.float 1e-9) "p50" 50. (Stats.percentile s 50.);
  check (Alcotest.float 1e-9) "p95" 95. (Stats.percentile s 95.);
  check (Alcotest.float 1e-9) "p100" 100. (Stats.percentile s 100.);
  check (Alcotest.float 1e-9) "p0 -> first" 1. (Stats.percentile s 0.)

let test_stats_empty () =
  let s = Stats.create () in
  checkb "mean of empty is nan" true (Float.is_nan (Stats.mean s));
  Alcotest.check_raises "percentile of empty rejected"
    (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile s 50.))

let test_stats_growth () =
  let s = Stats.create () in
  for i = 1 to 1000 do
    Stats.add s (float_of_int i)
  done;
  checki "all observations kept" 1000 (Array.length (Stats.observations s))

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~buckets:10 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -3.; 42. ];
  let counts = Stats.Histogram.counts h in
  checki "bucket 0 gets 0.5 and clamped -3" 2 counts.(0);
  checki "bucket 1" 2 counts.(1);
  checki "bucket 9 gets 9.9 and clamped 42" 2 counts.(9);
  checkb "render mentions counts" true
    (String.length (Stats.Histogram.render h ~width:20) > 0)

let test_table_render () =
  let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_rule t;
  Table.add_row t [ "333"; "4" ];
  let s = Table.render t in
  checkb "has title" true (String.length s > 0);
  checkb "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l ->
         String.length l >= 3 && String.sub l 0 1 = "|"))

let test_table_width_mismatch () =
  let t = Table.create ~title:"demo" ~columns:[ "a" ] in
  Alcotest.check_raises "row width checked"
    (Invalid_argument "Table.add_row: row width differs from header")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_table_cells () =
  check Alcotest.string "float cell" "3.14" (Table.cell_float ~decimals:2 3.14159);
  check Alcotest.string "nan cell" "-" (Table.cell_float nan);
  check Alcotest.string "pct cell" "12.3%" (Table.cell_pct 0.123);
  check Alcotest.string "int cell" "7" (Table.cell_int 7)

(* --- CRC-32 --- *)

(* Reference: one byte at a time, each table entry recomputed bit by bit. *)
let crc32_bytewise buf pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    let x = ref ((!c lxor Bytes.get_uint8 buf i) land 0xff) in
    for _ = 0 to 7 do
      x := if !x land 1 = 1 then 0xEDB88320 lxor (!x lsr 1) else !x lsr 1
    done;
    c := !x lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc32_check_value () =
  checki "CRC-32(\"123456789\")" 0xCBF43926
    (Binc.crc32_sub (Bytes.of_string "123456789") 0 9);
  checki "empty range" 0 (Binc.crc32_sub (Bytes.create 4) 4 0);
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Binc.crc32_sub") (fun () ->
      ignore (Binc.crc32_sub (Bytes.create 4) 1 4))

let test_crc32_matches_bytewise () =
  let rng = Prng.create 0xc3c in
  for _ = 1 to 2000 do
    let pos = Prng.int rng 16 and len = Prng.int rng 301 in
    let buf =
      Bytes.init (pos + len + Prng.int rng 16) (fun _ ->
          Char.chr (Prng.int rng 256))
    in
    checki (Printf.sprintf "pos %d len %d" pos len)
      (crc32_bytewise buf pos len) (Binc.crc32_sub buf pos len)
  done

(* --- Binc varints and frame bounds --- *)

(* [n] alone in a frame: its encoded length and its decoded value *)
let varint_frame n =
  let w = Binc.writer () in
  Binc.w_int w n;
  let buf = Binc.frame w in
  (Bytes.length buf - 8, Binc.decode buf ~pos:0 ~f:Binc.r_int)

let test_binc_varint_lengths () =
  let cases = ref [ (0, 1); (-1, 1); (1, 1); (max_int, 9); (min_int, 9) ] in
  (* zigzag: [k] digits hold exactly [-2^(7k-1), 2^(7k-1))] *)
  for k = 1 to 8 do
    let b = 1 lsl ((7 * k) - 1) in
    cases :=
      [ (b - 1, k); (b, k + 1); (b + 1, k + 1);
        (-b + 1, k); (-b, k); (-b - 1, k + 1) ]
      @ !cases
  done;
  List.iter
    (fun (n, digits) ->
      let len, back = varint_frame n in
      checki (Printf.sprintf "%d: bytes" n) digits len;
      match back with
      | Ok (v, _) -> checki (Printf.sprintf "%d: round-trips" n) n v
      | Error e -> Alcotest.failf "%d: %s" n e)
    !cases

let test_binc_decode_bounds () =
  let frame_of f =
    let w = Binc.writer () in
    f w;
    Binc.frame w
  in
  let a = frame_of (fun w -> Binc.w_int w 300; Binc.w_string w "x") in
  let b = frame_of (fun w -> Binc.w_int w (-7)) in
  let buf = Bytes.cat (Bytes.cat a b) (Bytes.of_string "\001") in
  let la = Bytes.length a and lb = Bytes.length b in
  let read_a r =
    let n = Binc.r_int r in
    (n, Binc.r_string r)
  in
  (match Binc.decode buf ~pos:0 ~f:read_a with
  | Ok ((300, "x"), next) -> checki "first frame's next" la next
  | Ok _ -> Alcotest.fail "first frame misread"
  | Error e -> Alcotest.failf "first frame: %s" e);
  (match Binc.decode buf ~pos:la ~f:Binc.r_int with
  | Ok (-7, next) -> checki "second frame's next" (la + lb) next
  | Ok _ -> Alcotest.fail "second frame misread"
  | Error e -> Alcotest.failf "second frame: %s" e);
  (* a one-byte payload holding a varint cut short (continuation bit
     set), then bytes that would complete it: the reader must stop at
     its own frame's end *)
  let cut = Bytes.make 11 '\000' in
  Bytes.set_int32_le cut 2 1l;
  Bytes.set cut 10 '\x80';
  Bytes.set_int32_le cut 6 (Int32.of_int (Binc.crc32_sub cut 10 1));
  let buf = Bytes.cat cut (Bytes.of_string "\x80\x01") in
  check
    Alcotest.(result (pair int int) string)
    "cut-short varint" (Error "truncated")
    (Binc.decode buf ~pos:2 ~f:Binc.r_int)

(* A decoded list of any length stays off the stack: 200,000 elements
   under a 16,384-word stack limit, which a plain recursion overflows. *)
let test_binc_long_list () =
  let n = 200_000 in
  let w = Binc.writer () in
  Binc.w_list w Binc.w_int (List.init n (fun i -> (i * 7) - 3));
  let buf = Binc.frame w in
  let g = Gc.get () in
  let back =
    Fun.protect
      ~finally:(fun () -> Gc.set g)
      (fun () ->
        Gc.set { g with Gc.stack_limit = 16_384 };
        Binc.decode buf ~pos:0 ~f:(fun r -> Binc.r_list r Binc.r_int))
  in
  match back with
  | Ok (l, _) ->
    checki "length" n (List.length l);
    checkb "elements in order" true
      (List.for_all2 ( = ) l (List.init n (fun i -> (i * 7) - 3)))
  | Error e -> Alcotest.failf "long list: %s" e

let suite =
  [ Alcotest.test_case "prng: deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng: seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng: int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng: float bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng: copy" `Quick test_prng_copy;
    Alcotest.test_case "dist: bernoulli" `Quick test_bernoulli_extremes;
    Alcotest.test_case "prng: split independence" `Quick test_prng_split_independence;
    Alcotest.test_case "prng: shuffle permutes" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng: pick" `Quick test_prng_pick;
    Alcotest.test_case "dist: exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "dist: uniform range" `Quick test_uniform_int_range;
    Alcotest.test_case "dist: zipf alpha=0 uniform" `Quick test_zipf_uniform_degenerate;
    Alcotest.test_case "dist: zipf skew" `Quick test_zipf_skew;
    Alcotest.test_case "dist: zipf validation" `Quick test_zipf_validation;
    Alcotest.test_case "stats: moments" `Quick test_stats_moments;
    Alcotest.test_case "stats: percentiles" `Quick test_stats_percentile;
    Alcotest.test_case "stats: empty" `Quick test_stats_empty;
    Alcotest.test_case "stats: growth" `Quick test_stats_growth;
    Alcotest.test_case "stats: histogram" `Quick test_histogram;
    Alcotest.test_case "table: render" `Quick test_table_render;
    Alcotest.test_case "table: width mismatch" `Quick test_table_width_mismatch;
    Alcotest.test_case "table: cells" `Quick test_table_cells;
    Alcotest.test_case "crc32: check value and bounds" `Quick test_crc32_check_value;
    Alcotest.test_case "crc32: slicing-by-8 equals bytewise" `Quick
      test_crc32_matches_bytewise;
    Alcotest.test_case "binc: varint length at every 7-bit boundary" `Quick
      test_binc_varint_lengths;
    Alcotest.test_case "binc: decode stops at its frame's end" `Quick
      test_binc_decode_bounds;
    Alcotest.test_case "binc: a long list decodes off the stack" `Quick
      test_binc_long_list ]

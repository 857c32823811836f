(* Measurement primitives: the nanosecond monotonic clock, a bounded
   sample store with the percentile rule, and process-level readings of
   CPU time and peak memory. *)

(* CLOCK_MONOTONIC in nanoseconds, read through an unboxed, non-allocating
   stub. *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* A systematic sample of a stream of integers in bounded memory: every
   value is kept until the store fills, then every other one is dropped
   and the stride doubles, so the store always holds every [stride]-th
   value of the whole stream. *)
type samples = {
  mutable data : int array;
  mutable len : int;
  mutable stride : int;
  mutable seen : int;
}

let samples ?(cap = 1 lsl 18) () =
  { data = Array.make cap 0; len = 0; stride = 1; seen = 0 }

let add s v =
  if s.seen land (s.stride - 1) = 0 then begin
    if s.len = Array.length s.data then begin
      let half = s.len / 2 in
      for i = 0 to half - 1 do
        s.data.(i) <- s.data.(2 * i)
      done;
      s.len <- half;
      s.stride <- 2 * s.stride
    end;
    if s.seen land (s.stride - 1) = 0 then begin
      s.data.(s.len) <- v;
      s.len <- s.len + 1
    end
  end;
  s.seen <- s.seen + 1

let reset s =
  s.len <- 0;
  s.stride <- 1;
  s.seen <- 0

let count s = s.seen

let sorted s =
  let a = Array.sub s.data 0 s.len in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array, reported only when at least
   ten samples lie beyond it: a p99 needs 1000 samples, a p50 needs 20. *)
let percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  let rank = Int.max 1 rank in
  if n - rank < 10 then None else Some sorted.(rank - 1)

let median_float xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* User plus system CPU of the whole process, every domain included. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf
        (String.sub line 6 (String.length line - 6))
        " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

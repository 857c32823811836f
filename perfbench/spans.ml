(* The traced run's span recorder.  Spans are stamped around calls into
   the program's public functions — never inside it — and kept in a
   preallocated buffer of plain int arrays: name, start, end, parent
   and transaction id.  When the buffer fills, the workload folds it at
   a transaction boundary (no span open): self times are computed, added
   to per-name aggregates, the first spans of the run are kept for the
   Chrome trace-event file, and the buffer is reused.  The time spent
   folding is excluded from the traced phase's measured time.

   Each span costs two clock reads.  That cost is calibrated on empty
   spans, at [create] and again after every fold, because the host's
   speed drifts over a run: [inner_ns] is the part that lands inside a
   span's interval, [outer_ns] the part between spans.  Reported self
   times have it subtracted (a parent also loses [outer_ns] per direct
   child), and {!overhead_ns} is the total the measured time must be
   reduced by before comparing it with the spans. *)

type t = {
  enabled : bool;
  names : string array;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  txn : int array;
  mutable len : int;
  stack : int array;
  mutable depth : int;
  first_child : int array;
  next_sibling : int array;
  self : int array;
  calls : int array;
  self_total : int array;
  self_samples : Meter.samples array;
  dur_samples : Meter.samples array;
  mutable exported : int;
  chrome : Buffer.t;
  mutable fold_ns : int;
  mutable spans : int;
  mutable inner_ns : int;
  mutable outer_ns : int;
  mutable overhead_ns : int;
}

(* Spans held before a fold, and spans kept for the Chrome trace file. *)
let cap = 1 lsl 12
let export_cap = 20_000

let make ~enabled names =
  let cap = if enabled then cap else 1 in
  let names = Array.of_list names in
  let k = Array.length names in
  let ints () = Array.make cap 0 in
  { enabled; names; name = ints (); start = ints (); stop = ints ();
    parent = ints (); txn = ints (); len = 0; stack = Array.make 64 0;
    depth = 0; first_child = Array.make cap (-1);
    next_sibling = Array.make cap (-1); self = ints ();
    calls = Array.make k 0; self_total = Array.make k 0;
    self_samples =
      Array.init k (fun _ -> Meter.samples ~cap:(if enabled then 1 lsl 16 else 1) ());
    dur_samples =
      Array.init k (fun _ -> Meter.samples ~cap:(if enabled then 1 lsl 16 else 1) ());
    exported = 0; chrome = Buffer.create 4096; fold_ns = 0;
    spans = 0; inner_ns = 0; outer_ns = 0; overhead_ns = 0 }

let enter t name txn =
  if t.enabled then begin
    let i = t.len in
    t.name.(i) <- name;
    t.parent.(i) <- (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
    t.txn.(i) <- txn;
    t.stack.(t.depth) <- i;
    t.depth <- t.depth + 1;
    t.len <- i + 1;
    t.start.(i) <- Meter.now ()
  end

(* Close the innermost span, optionally renaming it — a call's kind may
   only be known once it returns (did it run an fsync round?). *)
let leave_as t name =
  if t.enabled then begin
    let e = Meter.now () in
    t.depth <- t.depth - 1;
    let i = t.stack.(t.depth) in
    t.stop.(i) <- e;
    if name >= 0 then t.name.(i) <- name
  end

let leave t = leave_as t (-1)

(* Raw self time of spans [0, n): duration minus the union of the direct
   children's intervals clipped to the span.  Children may nest further
   or overlap one another (spans from several threads of control); the
   union counts shared time once.  [first_child]/[next_sibling] are
   scratch arrays of at least [n] cells. *)
let self_into ~start ~stop ~parent ~first_child ~next_sibling ~self n =
  Array.fill first_child 0 n (-1);
  for i = n - 1 downto 0 do
    let p = parent.(i) in
    if p >= 0 then begin
      next_sibling.(i) <- first_child.(p);
      first_child.(p) <- i
    end
  done;
  for i = 0 to n - 1 do
    let s = start.(i) and e = stop.(i) in
    if first_child.(i) < 0 then self.(i) <- e - s
    else begin
      let rec kids c acc =
        if c < 0 then acc
        else
          let a = Int.max s start.(c) and b = Int.min e stop.(c) in
          kids next_sibling.(c) (if b > a then (a, b) :: acc else acc)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Int.max a reach in
            if b > a then (acc + b - a, b) else (acc, reach))
          (0, s)
          (List.sort compare (kids first_child.(i) []))
      in
      self.(i) <- e - s - covered
    end
  done

let self_times ~start ~stop ~parent n =
  let self = Array.make n 0 in
  self_into ~start ~stop ~parent ~first_child:(Array.make n (-1))
    ~next_sibling:(Array.make n (-1)) ~self n;
  self

let rec children t c k = if c < 0 then k else children t t.next_sibling.(c) (k + 1)

(* Written by hand rather than through [Hdd_benchkit.Jsonlite], which
   prints numbers to six significant digits: too coarse for timestamps
   in microseconds with nanosecond fractions. *)
let export t =
  let n = Int.min t.len (export_cap - t.exported) in
  for i = 0 to n - 1 do
    if t.exported > 0 || i > 0 then Buffer.add_string t.chrome ",\n";
    Printf.bprintf t.chrome
      {|{"name":"%s","ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"txn":%d,"parent":%d,"self_ns":%d}}|}
      t.names.(t.name.(i))
      (float_of_int t.start.(i) /. 1e3)
      (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3)
      t.txn.(i)
      (if t.parent.(i) < 0 then -1 else t.exported + t.parent.(i))
      t.self.(i)
  done;
  t.exported <- t.exported + n

(* The tracer's own cost per span, from [rounds] rounds of [per] empty
   spans in the (empty) buffer: the median round's mean self time (clock
   cost inside a span) and mean wall time per span. *)
let calibrate t ~per ~rounds =
  let inner = Array.make rounds 0 and whole = Array.make rounds 0 in
  for r = 0 to rounds - 1 do
    t.len <- 0;
    let t0 = Meter.now () in
    for _ = 1 to per do
      enter t 0 0;
      leave t
    done;
    let t1 = Meter.now () in
    let s = ref 0 in
    for i = 0 to per - 1 do
      s := !s + (t.stop.(i) - t.start.(i))
    done;
    inner.(r) <- !s / per;
    whole.(r) <- (t1 - t0) / per
  done;
  Array.sort compare inner;
  Array.sort compare whole;
  t.len <- 0;
  t.inner_ns <- inner.(rounds / 2);
  t.outer_ns <- Int.max 0 (whole.(rounds / 2) - t.inner_ns)

let fold t =
  if t.enabled && t.len > 0 then begin
    let t0 = Meter.now () in
    self_into ~start:t.start ~stop:t.stop ~parent:t.parent
      ~first_child:t.first_child ~next_sibling:t.next_sibling ~self:t.self t.len;
    for i = 0 to t.len - 1 do
      let k = t.name.(i) in
      let own =
        t.self.(i) - t.inner_ns - (t.outer_ns * children t t.first_child.(i) 0)
      in
      let own = Int.max 0 own in
      t.self.(i) <- own;
      t.calls.(k) <- t.calls.(k) + 1;
      t.self_total.(k) <- t.self_total.(k) + own;
      Meter.add t.self_samples.(k) own;
      Meter.add t.dur_samples.(k) (Int.max 0 (t.stop.(i) - t.start.(i) - t.inner_ns))
    done;
    t.spans <- t.spans + t.len;
    t.overhead_ns <- t.overhead_ns + (t.len * (t.inner_ns + t.outer_ns));
    if t.exported < export_cap then export t;
    t.len <- 0;
    (* the cost for the spans the buffer takes next *)
    calibrate t ~per:128 ~rounds:5;
    t.fold_ns <- t.fold_ns + (Meter.now () - t0)
  end

(* Forget everything recorded so far (the warm-up's spans). *)
let reset t =
  t.len <- 0;
  t.depth <- 0;
  Array.fill t.calls 0 (Array.length t.calls) 0;
  Array.fill t.self_total 0 (Array.length t.self_total) 0;
  Array.iter Meter.reset t.self_samples;
  Array.iter Meter.reset t.dur_samples;
  t.exported <- 0;
  Buffer.clear t.chrome;
  t.fold_ns <- 0;
  t.spans <- 0;
  t.overhead_ns <- 0

(* Called by a workload between transactions: fold once the buffer is
   nearly full, so no transaction's spans straddle a fold. *)
let maybe_fold t =
  if t.enabled && t.depth = 0 && t.len > Array.length t.name - 512 then fold t

let create ~enabled names =
  let t = make ~enabled names in
  if enabled then calibrate t ~per:4096 ~rounds:31;
  t

(* What tracing itself added to the measured time. *)
let overhead_ns t = t.overhead_ns

type summary = {
  s_name : string;
  s_calls : int;
  s_self_ns : int;
  s_median_ns : int option;
  s_p99_ns : int option;
  s_dur_median_ns : int option;  (** whole duration, children included *)
}

let summaries t =
  fold t;
  List.filter_map
    (fun k ->
      if t.calls.(k) = 0 then None
      else
        let sorted = Meter.sorted t.self_samples.(k) in
        Some
          { s_name = t.names.(k); s_calls = t.calls.(k);
            s_self_ns = t.self_total.(k);
            s_median_ns = Meter.percentile sorted 0.5;
            s_p99_ns = Meter.percentile sorted 0.99;
            s_dur_median_ns = Meter.percentile (Meter.sorted t.dur_samples.(k)) 0.5 })
    (List.init (Array.length t.names) Fun.id)

let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  Buffer.output_buffer oc t.chrome;
  output_string oc "\n]}\n";
  close_out oc

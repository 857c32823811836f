(* Scaffolding every workload shares: options, repeated set-up timing,
   the measured phase's end-to-end readings and the traced run's span
   metrics. *)

type opts = {
  seed : int;
  seconds : float;
  traced : bool;
  out_dir : string;  (** reports, traces and logs; inside the checkout *)
}

(* The host's speed right now: one run of a fixed L1-resident loop of
   8,000 iterations, ~7.5 µs at full speed on the 2-core host this was
   built on and about twice that in the slow state its neighbours impose
   (see the windows below).  A probe is fast when it reads within 30% of
   the fastest the process has seen. *)
let probe_data = Array.init 4096 Fun.id
let best_probe = ref max_int

let probe_ns () =
  let t0 = Meter.now () in
  let s = ref 0 in
  for k = 0 to 7_999 do
    s := !s + probe_data.((k * 7) land 4095)
  done;
  ignore (Sys.opaque_identity !s);
  let p = Meter.now () - t0 in
  if p < !best_probe then best_probe := p;
  p

let fast p = p * 10 <= !best_probe * 13

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else a.(Int.min (n - 1) (int_of_float (q *. float_of_int n)))

(* Set-up timing.  A workload sets up [2n] times: [n] times before the
   measured phase, the last result being the measured state, and [n]
   more spread over the phase, each disposed of at once ([dispose]
   releases a result: files, descriptors).  A set-up calls {!lap}
   between fixed pieces of its work (so many warm-up commits, one empty
   engine run) — the same pieces in the same order every time — and a
   probe runs at each lap, its time left out.

   A set-up takes 0.1-0.3 s, and about twice that in the host's slow
   state (serial-read's ~0.12 s or ~0.2 s).  Under load the host's fast
   spells are shorter than a set-up: the fastest of twelve whole
   set-ups, spread over the run, still followed the load of the batch
   (serial-read's ten-run median read 0.127, 0.146 and 0.160 s in three
   batches).  A piece is about a millisecond, like a window.  So a
   piece's time is the median of its instances that lie between fast
   probes, across the [2n] set-ups, or the fastest instance when none
   does; [setup_s] is the sum over the pieces.  The later set-ups are
   spread evenly over the phase (after [peak_rss_mb] is read), each
   waiting to start until three probes in a row read fast, for up to
   half a second.  The median of the whole set-ups' times is reported
   beside it.

   No collection is forced between set-ups: on OCaml 5.1 every forced
   major collection makes the heap grow larger later on (seven of them
   raised durable-write's peak RSS from 128 to 213 MB), so each set-up
   instead collects earlier garbage as it goes. *)

(* The pieces of the set-up being timed: (duration, probe before), in
   reverse order. *)
let pieces : (int * int) list ref = ref []
let piece_t0 = ref 0 and piece_probe = ref 0 and timing = ref false

let lap () =
  if !timing then begin
    pieces := (Meter.now () - !piece_t0, !piece_probe) :: !pieces;
    piece_probe := probe_ns ();
    piece_t0 := Meter.now ()
  end

type setups = {
  count : int;  (** set-ups to spread over the phase *)
  mutable left : int;
  more : unit -> unit;  (** one of them, timed, its result disposed of *)
  samples : (int * int) array list ref;  (** each set-up's pieces *)
  report : Report.t;
}

let setups r ~n ?(dispose = ignore) f =
  let samples = ref [] and i = ref 0 in
  let timed () =
    incr i;
    pieces := [];
    piece_probe := probe_ns ();
    timing := true;
    piece_t0 := Meter.now ();
    let v = f !i in
    lap ();
    timing := false;
    (* the probe after the last piece, for the fast test *)
    samples := Array.of_list (List.rev ((0, !piece_probe) :: !pieces)) :: !samples;
    v
  in
  let last = ref None in
  for _ = 1 to n do
    Option.iter dispose !last;
    (* unreachable while the next set-up runs *)
    last := None;
    last := Some (timed ())
  done;
  let more () =
    let give_up = Meter.now () + 500_000_000 in
    while
      (not (fast (probe_ns ()) && fast (probe_ns ()) && fast (probe_ns ())))
      && Meter.now () < give_up
    do
      ()
    done;
    dispose (timed ())
  in
  (Option.get !last, { count = n; left = n; more; samples; report = r })

(* Report [setup_s], after running any set-ups a short phase left over. *)
let finish_setups s =
  while s.left > 0 do
    s.left <- s.left - 1;
    s.more ()
  done;
  let runs = List.rev !(s.samples) in
  let k = List.fold_left (fun k a -> Int.min k (Array.length a - 1)) max_int runs in
  let calm_pieces = ref 0 in
  let piece j =
    let all = List.map (fun a -> fst a.(j)) runs in
    let calm =
      List.filter_map
        (fun a -> if fast (snd a.(j)) && fast (snd a.(j + 1)) then Some (fst a.(j)) else None)
        runs
    in
    if calm = [] then List.fold_left Int.min max_int all
    else begin
      incr calm_pieces;
      int_of_float (Meter.median_float (List.map float_of_int calm))
    end
  in
  let total a = float_of_int (Array.fold_left (fun t (ns, _) -> t + ns) 0 a) /. 1e9 in
  let sum = List.fold_left ( + ) 0 (List.init k piece) in
  Report.metric s.report "setup_s" (float_of_int sum /. 1e9) "s";
  Report.metric s.report "setup.median_all_s" (Meter.median_float (List.map total runs)) "s";
  Report.metric s.report "setup.pieces" (float_of_int k) "count";
  Report.metric s.report "setup.calm_pieces" (float_of_int !calm_pieces) "count";
  Report.note s.report "setup.times_s"
    (String.concat " " (List.map (fun a -> Printf.sprintf "%.4f" (total a)) runs))

(* The measured phase is cut into short windows of [unit] commits, and a
   probe runs before each one.  This host switches between a fast and a
   slow state in spells of a few milliseconds to seconds: a probe reads
   ~7.5 µs or ~15 µs, and the slow state is charged as CPU time too.
   A run's share of fast time moves with its neighbours' load, and with
   it any plain mean.  Two readings of the windows are steady:

   - [Fast_windows], for workloads whose windows are slices of one
     continuous stream: the windows that lie in a fast stretch, pooled —
     their commits over their summed time and CPU.  A window lies in a
     fast stretch when the probes before and after it and before and
     after each neighbour are all fast: a single short probe can read
     fast during a slow spell.  The choice is made by probes outside the
     window, so it hardly depends on what the window holds (garbage
     collection, checkpoints).  A window is ~2 ms.
   - [Quartile_window], for workloads whose windows each repeat the same
     work (engine-cross): the first quartile of the windows' CPU per
     commit and the third quartile of their rates.  Interference only
     ever slows a window down, so the faster windows are the ones the
     host left alone; a quartile still has a quarter of the windows
     beyond it, hundreds in a run.

   Plain means over all windows print beside them.  [peak_rss_mb] is
   read once the phase reaches [rss_at] commits, so every run is read
   after the same amount of work.  The phase lasts [seconds] of measured
   time: the probes, the set-ups spread over it and the work a workload
   does between windows are left out and the phase runs that much
   longer. *)
type reading = Fast_windows | Quartile_window

type win = {
  n : int;  (** commits *)
  ns : int;
  cpu : float;  (** seconds *)
  probe : int;  (** the probe just before the window, ns *)
}

type phase = {
  t0 : int;
  span : int;  (** measured time to run, ns *)
  setups : setups;
  cpu0 : float;
  minor0 : float;
  major0 : float;
  unit : int;
  rss_at : int;
  mutable rss : float;
  mutable w_t0 : int;
  mutable w_cpu0 : float;
  mutable w_commits0 : int;
  mutable w_probe : int;
  mutable excluded_ns : int;  (** probes and work between windows *)
  mutable wins : win list;
}

(* Probe the host, then start the next window. *)
let open_window p =
  let t = Meter.now () in
  p.w_probe <- probe_ns ();
  p.w_cpu0 <- Meter.cpu_s ();
  p.w_t0 <- Meter.now ();
  p.excluded_ns <- p.excluded_ns + (p.w_t0 - t)

let start_phase ~unit ~rss_at ~seconds setups =
  let s = Gc.quick_stat () in
  let t0 = Meter.now () and cpu0 = Meter.cpu_s () in
  let p =
    { t0; span = int_of_float (seconds *. 1e9); setups; cpu0;
      minor0 = s.Gc.minor_words; major0 = s.Gc.major_words; unit;
      rss_at; rss = nan; w_t0 = t0; w_cpu0 = cpu0; w_commits0 = 0; w_probe = 0;
      excluded_ns = 0; wins = [] }
  in
  open_window p;
  p

let close_window p ~now ~commits =
  let cpu = Meter.cpu_s () in
  p.wins <-
    { n = commits - p.w_commits0; ns = now - p.w_t0; cpu = cpu -. p.w_cpu0;
      probe = p.w_probe }
    :: p.wins;
  p.w_commits0 <- commits;
  if Float.is_nan p.rss && commits >= p.rss_at then p.rss <- Meter.peak_rss_mb ()

let measured_ns p ~now = now - p.t0 - p.excluded_ns

(* Whether the phase has run its time. *)
let over p ~now = measured_ns p ~now >= p.span

(* Between windows: run the next spread-out set-up once it is due. *)
let setup_if_due p =
  let s = p.setups in
  let next = s.count - s.left + 1 in
  if s.left > 0 && (not (Float.is_nan p.rss))
     && measured_ns p ~now:(Meter.now ()) >= next * p.span / (s.count + 1)
  then begin
    s.left <- s.left - 1;
    let t = Meter.now () in
    s.more ();
    p.excluded_ns <- p.excluded_ns + (Meter.now () - t)
  end

(* Called from the workload loop with the phase's running commit count. *)
let window p ~now ~commits =
  if commits - p.w_commits0 >= p.unit then begin
    close_window p ~now ~commits;
    setup_if_due p;
    open_window p
  end

(* Close the current window, run [f] outside the measured time, then
   open the next window. *)
let between_windows p ~now ~commits f =
  close_window p ~now ~commits;
  let t = Meter.now () in
  let v = f () in
  p.excluded_ns <- p.excluded_ns + (Meter.now () - t);
  setup_if_due p;
  open_window p;
  v

(* Commit rate and CPU per commit of a set of windows, pooled. *)
let pooled ws =
  let n, ns, cpu =
    List.fold_left (fun (n, ns, cpu) w -> (n + w.n, ns + w.ns, cpu +. w.cpu)) (0, 0, 0.) ws
  in
  let n = float_of_int (Int.max 1 n) in
  (n /. (float_of_int ns /. 1e9), cpu *. 1e6 /. n)

(* End-to-end readings of the measured phase, leaving out the time the
   span recorder spent folding, the probes and the work between windows.
   Returns the measured wall time in nanoseconds. *)
let finish_phase r p (sp : Spans.t) ~commits ~reading =
  let wall_ns = Meter.now () - p.t0 - sp.Spans.fold_ns - p.excluded_ns in
  let s = Gc.quick_stat () in
  let c = float_of_int (Int.max 1 commits) in
  let m = Report.metric r in
  let wins = Array.of_list (List.rev (List.filter (fun w -> w.n > 0) p.wins)) in
  let k = Array.length wins in
  let counted =
    List.filter_map
      (fun i ->
        let rec stretch j = j > i + 2 || (fast wins.(j).probe && stretch (j + 1)) in
        if i >= 1 && i + 2 < k && stretch (i - 1) then Some wins.(i) else None)
      (List.init k Fun.id)
  in
  let wins = Array.to_list wins in
  let mean, (tps, cpu_per) =
    if wins = [] then begin
      (* a run too slow to fill one window reads the whole phase *)
      let whole = (c /. (float_of_int wall_ns /. 1e9), (Meter.cpu_s () -. p.cpu0) *. 1e6 /. c) in
      (whole, whole)
    end
    else
      ( pooled wins,
        match reading with
        | Fast_windows -> pooled (if counted = [] then wins else counted)
        | Quartile_window ->
          ( quantile (List.map (fun w -> float_of_int w.n /. (float_of_int w.ns /. 1e9)) wins) 0.75,
            quantile (List.map (fun w -> w.cpu *. 1e6 /. float_of_int w.n) wins) 0.25 ) )
  in
  m "commit_tps" tps "txn/s";
  m "cpu_us_per_commit" cpu_per "us";
  m "commit_tps.mean" (fst mean) "txn/s";
  m "cpu_us_per_commit.mean" (snd mean) "us";
  m "windows" (float_of_int (List.length wins)) "count";
  m "windows.fast" (float_of_int (List.length counted)) "count";
  if Float.is_nan p.rss then begin
    p.rss <- Meter.peak_rss_mb ();
    Report.note r "peak_rss_mb" (Printf.sprintf "read at the end: fewer than %d commits" p.rss_at)
  end;
  m "peak_rss_mb" p.rss "MB";
  m "gc.minor_words_per_commit" ((s.Gc.minor_words -. p.minor0) /. c) "words";
  m "gc.major_words_per_commit" ((s.Gc.major_words -. p.major0) /. c) "words";
  m "gc.top_heap_mb"
    (float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.)
    "MB";
  m "measured_s" (float_of_int wall_ns /. 1e9) "s";
  m "commits" (float_of_int commits) "count";
  wall_ns

(* The library a span's layer belongs to, from its name's prefix. *)
let layer_of name =
  match String.index_opt name '.' with
  | None -> name
  | Some i -> (
    match String.sub name 0 i with
    | "scheduler" | "activity" | "timewall" -> "core"
    | "store" -> "mvstore"
    | "durable" | "group_commit" | "checkpoint" -> "storage"
    | "engine" -> "runtime"
    | "node" | "transport" -> "shard"
    | other -> other)

(* The traced run's probes before a Protocol A read: the threshold the
   read will use ([Scheduler.read_threshold]) and the store lookup at it
   ([Store.committed_before]), each timed on its own inside a [probe]
   span.  A workload lists [probe_spans] after its own span names and
   passes the index of the first as [first]. *)
let probe_spans = [ "probe"; "activity.threshold"; "store.lookup" ]

let probe sp ~first sched store txn (g : Granule.t) =
  let id = txn.Txn.id in
  Spans.enter sp first id;
  Spans.enter sp (first + 1) id;
  let th = Hdd_core.Scheduler.read_threshold sched txn ~segment:g.Granule.segment in
  Spans.leave sp;
  (match th with
  | Some ts ->
    Spans.enter sp (first + 2) id;
    ignore (Sys.opaque_identity (Hdd_mvstore.Store.committed_before store g ~ts));
    Spans.leave sp
  | None -> ());
  Spans.leave sp

(* Per-span medians, call counts and self-time shares, per-layer shares
   and [trace.coverage]: the spans' summed self time over the traced
   phase's measured time, both without the probe spans' whole extent
   (the probes exist only to be timed, so would cover themselves).
   Coverage below 0.9 fails the run.  Writes the Chrome trace-event file. *)
let span_metrics r (sp : Spans.t) ~workload ~out_dir ~wall_ns ~commits =
  let sums = Spans.summaries sp in
  let m = Report.metric r in
  let wall = float_of_int wall_ns and c = float_of_int (Int.max 1 commits) in
  let self_sum keep =
    List.fold_left (fun a s -> if keep s.Spans.s_name then a + s.Spans.s_self_ns else a) 0 sums
  in
  let covered = self_sum (fun _ -> true) in
  let probes = self_sum (fun n -> List.mem n probe_spans) in
  let traced_wall = wall_ns - Spans.overhead_ns sp in
  let coverage = float_of_int (covered - probes) /. float_of_int (traced_wall - probes) in
  m "trace.coverage" coverage "ratio";
  Report.check r "trace.coverage is at least 0.9" (coverage >= 0.9)
    (Printf.sprintf "%.3f of the traced phase inside spans, probes left out" coverage);
  m "trace.clock_share" (float_of_int (Spans.overhead_ns sp) /. wall) "ratio";
  m "trace.span_cost_ns"
    (float_of_int (Spans.overhead_ns sp) /. float_of_int (Int.max 1 sp.Spans.spans))
    "ns";
  m "trace.layer_ns_per_commit" (float_of_int covered /. c) "ns";
  let layers = Hashtbl.create 8 in
  List.iter
    (fun (s : Spans.summary) ->
      let n = s.Spans.s_name in
      Option.iter (fun v -> m (n ^ "_ns") (float_of_int v) "ns") s.Spans.s_median_ns;
      m (n ^ ".calls_per_commit") (float_of_int s.Spans.s_calls /. c) "count";
      m (n ^ ".self_share") (float_of_int s.Spans.s_self_ns /. wall) "ratio";
      let l = layer_of n in
      Hashtbl.replace layers l
        (s.Spans.s_self_ns + Option.value ~default:0 (Hashtbl.find_opt layers l)))
    sums;
  Hashtbl.iter
    (fun l ns -> m ("layer." ^ l ^ ".self_share") (float_of_int ns /. wall) "ratio")
    layers;
  let path = Filename.concat out_dir ("trace-" ^ workload ^ ".json") in
  Spans.write_chrome sp path;
  Report.note r "trace_file" path;
  sums

let per r name num den = Report.metric r name (float_of_int num /. float_of_int (Int.max 1 den))

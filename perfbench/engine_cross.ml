(* engine-cross: Engine.run_script with two worker domains on a depth-8
   chain where class i reads segment i+1, which the other worker owns;
   10% read-only descriptors, 2% scripted aborts.  The engine has no
   steady state over long scripts (publication copies grow with the
   live ranges), so the measured phase repeats a fixed script of
   [Gen.engine_script_len] descriptors, each repetition on a fresh
   engine, until the time is up, and reads its faster repetitions (see
   {!Common.reading}).  Besides the workers the engine runs
   its wall coordinator (polling every 100 µs) and the feeding main
   domain: four domains, reported against the core count.  No
   per-transaction latency is visible from outside [run_script]. *)

module E = Hdd_runtime.Engine
module Diff = Hdd_runtime.Differential

let prefix = 2_000

let config ~traced =
  { (E.default_config ~workers:Gen.engine_workers) with E.traced }

(* Every descriptor reached its scripted verdict: update and read-only
   descriptors commit unless the script aborts them. *)
let verdicts (script : E.desc array) (run : E.run) =
  let bad = ref 0 in
  let outs = Array.of_list run.E.outcomes in
  if Array.length outs <> Array.length script then
    bad := abs (Array.length script - Array.length outs);
  Array.iteri
    (fun i (id, committed) ->
      if i < Array.length script then begin
        let d = script.(i) in
        if id <> d.E.d_id || committed = d.E.d_abort then incr bad
      end)
    outs;
  !bad

let run (o : Common.opts) r =
  let script = Gen.engine_script ~seed:o.seed ~len:Gen.engine_script_len in
  let scripted = Array.fold_left (fun a d -> if d.E.d_abort then a else a + 1) 0 script in
  (* run.py sets this against the core count for the oversubscribed flag *)
  Report.note r "domains" (string_of_int (Gen.engine_workers + 2));
  Report.note r "engine_domains"
    (Printf.sprintf "%d workers + wall coordinator + feeding main domain"
       Gen.engine_workers);
  let cfg = config ~traced:false in
  let partition, setups =
    Common.setups r ~n:6 (fun _ ->
        let partition = Gen.cross_partition Gen.engine_segments in
        for _ = 1 to 50 do
          ignore (E.run_script ~partition ~init:Gen.init cfg ~script:[||]);
          Common.lap ()
        done;
        partition)
  in
  let sp = Spans.create ~enabled:o.traced [ "engine.run_script" ] in
  (* one unmeasured repetition: the heap and code paths warm *)
  ignore (E.run_script ~partition ~init:Gen.init cfg ~script);
  (* peak memory after ten repetitions: it keeps climbing with every fresh
     engine, so a later reading would depend on how many repetitions the
     host's speed allowed *)
  let p = Common.start_phase ~unit:1 ~rss_at:(10 * scripted) ~seconds:o.seconds setups in
  let commits = ref 0 and bad = ref 0 and reps = ref 0 and stats = ref [] in
  while not (Common.over p ~now:(Meter.now ())) do
    (* a window is one repetition, run_script on a fresh engine; the
       verdict check after it is left out *)
    Spans.enter sp 0 !reps;
    let run = E.run_script ~partition ~init:Gen.init cfg ~script in
    Spans.leave sp;
    commits := !commits + run.E.stats.E.committed;
    incr reps;
    Common.between_windows p ~now:(Meter.now ()) ~commits:!commits (fun () ->
        bad := !bad + verdicts script run;
        stats := run.E.stats :: !stats);
    Spans.maybe_fold sp
  done;
  let wall_ns = Common.finish_phase r p sp ~commits:!commits ~reading:Quartile_window in
  r.Report.attempted <- !reps * scripted;
  r.Report.failed <- !bad;
  Report.metric r "abort_frac" 0. "ratio";
  Report.metric r "engine.repetitions" (float_of_int !reps) "count";
  let total f = List.fold_left (fun a s -> a + f s) 0 !stats in
  let c = !commits in
  Common.per r "engine.publications_per_commit" (total (fun s -> s.E.publications)) c
    "count";
  let releases = total (fun s -> s.E.wall_releases) in
  Common.per r "engine.wall_releases_per_kcommit" (1000 * releases) c "count";
  Common.per r "engine.wall_lag_mean_ticks" (total (fun s -> s.E.wall_lag_sum)) releases
    "ticks";
  (* CPU and wall time over the same intervals: the repetitions *)
  let cpu_s, ns =
    List.fold_left (fun (c, n) w -> (c +. w.Common.cpu, n + w.Common.ns)) (0., 0) p.Common.wins
  in
  Report.metric r "engine.cpu_util"
    (cpu_s /. (float_of_int ns /. 1e9 *. float_of_int (Domain.recommended_domain_count ())))
    "ratio";
  if o.traced then
    ignore
      (Common.span_metrics r sp ~workload:"engine-cross" ~out_dir:o.out_dir ~wall_ns
         ~commits:c);
  Report.check r "engine-cross: every descriptor reached its scripted verdict"
    (!bad = 0)
    (Printf.sprintf "%d wrong or missing over %d repetitions" !bad !reps);
  let prefix_script = Array.sub script 0 prefix in
  let rep =
    Diff.check ~partition ~init:Gen.init ~config:(config ~traced:true) prefix_script
  in
  Report.check r "engine-cross: prefix passes the four-check oracle" (Diff.ok rep)
    (String.concat ", " (Diff.failures rep));
  Common.finish_setups setups

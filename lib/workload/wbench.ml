module Runner = Hdd_sim.Runner
module Adapters = Hdd_sim.Adapters
module Workload = Hdd_sim.Workload
module Trace = Hdd_obs.Trace
module Hybrid = Hdd_hybrid.Hybrid_sched
module Policy = Hdd_hybrid.Policy
module J = Hdd_benchkit.Jsonlite

(* The hybrid-CC benchmark behind [hdd_cli bench hybrid]: the TPC-C
   shaped open/closed workload suite over {low, high} contention ×
   {hdd, hybrid, mv2pl}, all in virtual time (deterministic per seed,
   so the throughput-ratio gates run in CI on any machine).

   The headline ratios compare hybrid against pure HDD closed-loop
   throughput: at low contention escalation must not cost more than
   10%, at the high-contention zipf point the commit-wait discipline
   must beat MVTO's restart storm by at least 30%. *)

type cell = {
  c_controller : string;
  c_contention : string;
  c_committed : int;
  c_restarts : int;
  c_gave_up : int;
  c_throughput : float;  (** commits per unit of virtual time *)
  c_escalations : int;  (** hybrid: applied mode flips; others 0 *)
  c_escalated_high : bool;
      (** hybrid: the stock class ran escalated at some point *)
}

type result = {
  w_seed : int;
  w_quick : bool;
  w_mpl : int;
  w_target : int;
  w_cells : cell list;
  w_ratio_low : float;  (** hybrid / hdd throughput, low contention *)
  w_ratio_high : float;  (** hybrid / hdd throughput, high contention *)
  w_slo_users : int;
  w_slo : (string * Openloop.slo) list;  (** per contention, hybrid *)
}

let ratio_floor_low = 0.9
let ratio_floor_high = 1.3

let hybrid_policy =
  { Policy.escalate_above = 0.15;
    deescalate_below = 0.01;
    min_finished = 8;
    hold = 1;
    cooldown = 16 }

let config ~quick ~seed =
  { Runner.default_config with
    Runner.mpl = 12;
    target_commits = (if quick then 300 else 1500);
    seed }

let closed_cell ~name ~contention ~cfg wl make =
  let controller, escalations, escalated = make () in
  let r = Runner.run cfg wl controller in
  { c_controller = name;
    c_contention = Tpcc.contention_name contention;
    c_committed = r.Runner.committed;
    c_restarts = r.Runner.restarts;
    c_gave_up = r.Runner.gave_up;
    c_throughput = r.Runner.throughput;
    c_escalations = escalations ();
    c_escalated_high = escalated () }

let make_hybrid ~partition ~init () =
  let trace = Trace.create () in
  Trace.enable trace;
  let h = Hybrid.create ~trace ~partition ~init () in
  let stock = Tpcc.stock_class ~branches:Tpcc.default_branches in
  let was_escalated = ref false in
  let controller, _contention, _policy =
    Hybrid.auto ~policy:hybrid_policy ~decide_every:4 h ~trace
  in
  let controller =
    Hdd_sim.Controller.with_hooks
      ~on_finish:(fun _ ~commit:_ ->
        if Hybrid.escalated h stock then was_escalated := true)
      controller
  in
  ( (controller, trace),
    (fun () -> Hybrid.escalations h),
    fun () -> !was_escalated )

let run ?(quick = false) ?(seed = 42) () =
  let cfg = config ~quick ~seed in
  let cells = ref [] in
  let tp = Hashtbl.create 8 in
  let slos = ref [] in
  List.iter
    (fun contention ->
      let wl = Tpcc.workload ~contention () in
      let partition = wl.Workload.partition in
      let init = wl.Workload.init in
      let segments = Hdd_core.Partition.segment_count partition in
      let plain () =
        (Adapters.hdd ~partition ~init (), (fun () -> 0), fun () -> false)
      in
      let mv2pl () =
        (Adapters.mv2pl ~segments ~init (), (fun () -> 0), fun () -> false)
      in
      List.iter
        (fun (name, make) ->
          let cell =
            match name with
            | "hybrid" ->
              let (controller, trace), esc, was = make_hybrid ~partition ~init () in
              let r = Runner.run ~trace cfg wl controller in
              { c_controller = name;
                c_contention = Tpcc.contention_name contention;
                c_committed = r.Runner.committed;
                c_restarts = r.Runner.restarts;
                c_gave_up = r.Runner.gave_up;
                c_throughput = r.Runner.throughput;
                c_escalations = esc ();
                c_escalated_high = was () }
            | _ -> closed_cell ~name ~contention ~cfg wl make
          in
          Hashtbl.replace tp (name, cell.c_contention) cell.c_throughput;
          cells := cell :: !cells)
        [ ("hdd", plain); ("hybrid", plain); ("mv2pl", mv2pl) ];
      (* open-loop SLO: a million-user population offered at 70% of the
         hybrid's measured closed-loop capacity *)
      let cap =
        try Hashtbl.find tp ("hybrid", Tpcc.contention_name contention)
        with Not_found -> 1.
      in
      let users = 1_000_000 in
      let rate = 0.7 *. cap in
      let think_time = float_of_int users /. rate in
      let (h2, trace2), _, _ = make_hybrid ~partition ~init () in
      let _r, slo =
        Openloop.run_users ~trace:trace2 ~users ~think_time cfg wl h2
      in
      slos := (Tpcc.contention_name contention, slo) :: !slos)
    [ `Low; `High ];
  let tp_of name c = try Hashtbl.find tp (name, c) with Not_found -> nan in
  { w_seed = seed;
    w_quick = quick;
    w_mpl = cfg.Runner.mpl;
    w_target = cfg.Runner.target_commits;
    w_cells = List.rev !cells;
    w_ratio_low = tp_of "hybrid" "low" /. tp_of "hdd" "low";
    w_ratio_high = tp_of "hybrid" "high" /. tp_of "hdd" "high";
    w_slo_users = 1_000_000;
    w_slo = List.rev !slos }

let gates r =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun c ->
      if c.c_committed <= 0 then
        fail "%s/%s committed nothing" c.c_controller c.c_contention)
    r.w_cells;
  (match
     List.find_opt
       (fun c -> c.c_controller = "hybrid" && c.c_contention = "high")
       r.w_cells
   with
  | Some c ->
    if c.c_escalations < 1 then
      fail "hybrid/high never escalated (escalations=%d)" c.c_escalations;
    if not c.c_escalated_high then
      fail "hybrid/high: the stock class never ran escalated"
  | None -> fail "missing hybrid/high cell");
  if not (r.w_ratio_low >= ratio_floor_low) then
    fail "hybrid/hdd ratio at low contention %.3f < %.2f" r.w_ratio_low
      ratio_floor_low;
  if not (r.w_ratio_high >= ratio_floor_high) then
    fail "hybrid/hdd ratio at high contention %.3f < %.2f" r.w_ratio_high
      ratio_floor_high;
  List.iter
    (fun (c, s) ->
      if s.Openloop.s_committed <= 0 then fail "slo/%s committed nothing" c;
      let finite f = Float.is_finite f in
      if
        not
          (finite s.Openloop.s_p50 && finite s.Openloop.s_p99
         && finite s.Openloop.s_p999)
      then fail "slo/%s has non-finite quantiles" c;
      if not (s.Openloop.s_p50 <= s.Openloop.s_p99) then
        fail "slo/%s p50 > p99" c;
      if not (s.Openloop.s_p99 <= s.Openloop.s_p999) then
        fail "slo/%s p99 > p999" c)
    r.w_slo;
  List.rev !problems

let cell_json c =
  J.Obj
    [ ("controller", J.Str c.c_controller);
      ("contention", J.Str c.c_contention);
      ("committed", J.num_of_int c.c_committed);
      ("restarts", J.num_of_int c.c_restarts);
      ("gave_up", J.num_of_int c.c_gave_up);
      ("throughput", J.Num c.c_throughput);
      ("escalations", J.num_of_int c.c_escalations);
      ("escalated_high", J.Bool c.c_escalated_high) ]

let slo_json (contention, s) =
  J.Obj
    [ ("contention", J.Str contention);
      ("committed", J.num_of_int s.Openloop.s_committed);
      ("offered_rate", J.Num s.Openloop.s_offered_rate);
      ("mean", J.Num s.Openloop.s_mean);
      ("p50", J.Num s.Openloop.s_p50);
      ("p99", J.Num s.Openloop.s_p99);
      ("p999", J.Num s.Openloop.s_p999) ]

let tracked = Hdd_benchkit.Baseline.metrics [ [ "ratio_high" ] ]

let to_json r =
  J.with_schema
    [ ("bench", J.Str "hybrid");
      ("seed", J.num_of_int r.w_seed);
      ("quick", J.Bool r.w_quick);
      ("mpl", J.num_of_int r.w_mpl);
      ("target_commits", J.num_of_int r.w_target);
      ("cells", J.List (List.map cell_json r.w_cells));
      ("ratio_low", J.Num r.w_ratio_low);
      ("ratio_high", J.Num r.w_ratio_high);
      ("slo_users", J.num_of_int r.w_slo_users);
      ("slo", J.List (List.map slo_json r.w_slo)) ]

let pp ppf r =
  Format.fprintf ppf "hybrid bench (seed %d%s):@." r.w_seed
    (if r.w_quick then ", quick" else "");
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-7s %-4s committed=%-6d restarts=%-6d tput=%.4f esc=%d@."
        c.c_controller c.c_contention c.c_committed c.c_restarts
        c.c_throughput c.c_escalations)
    r.w_cells;
  Format.fprintf ppf "  ratio low=%.3f (floor %.2f) high=%.3f (floor %.2f)@."
    r.w_ratio_low ratio_floor_low r.w_ratio_high ratio_floor_high;
  List.iter
    (fun (c, s) ->
      Format.fprintf ppf "  slo %-4s %a@." c Openloop.pp_slo s)
    r.w_slo

type spec =
  | Hdd
  | S2pl
  | S2plNoRl
  | Tso
  | TsoNoRts
  | Mvto
  | Mv2pl
  | Prudent
  | Sdd1
  | Nocc

let spec_name = function
  | Hdd -> "HDD"
  | S2pl -> "2PL"
  | S2plNoRl -> "2PL-noRL"
  | Tso -> "TSO"
  | TsoNoRts -> "TSO-noRTS"
  | Mvto -> "MVTO"
  | Mv2pl -> "MV2PL"
  | Prudent -> "Prudent"
  | Sdd1 -> "SDD-1"
  | Nocc -> "NoCC"

let all_controlled = [ Hdd; Sdd1; Mv2pl; S2pl; Tso; Mvto ]

let all =
  [ Hdd; Sdd1; Mv2pl; S2pl; S2plNoRl; Tso; TsoNoRts; Mvto; Prudent; Nocc ]

let make ?log ?trace spec (wl : Workload.t) =
  let init = wl.Workload.init in
  let segments = Workload.segment_count wl in
  match spec with
  | Hdd -> Adapters.hdd ?log ?trace ~partition:wl.Workload.partition ~init ()
  | S2pl -> Adapters.s2pl ?log ~init ()
  | S2plNoRl -> Adapters.s2pl ?log ~read_locks:false ~init ()
  | Tso -> Adapters.tso ?log ~init ()
  | TsoNoRts -> Adapters.tso ?log ~read_timestamps:false ~init ()
  | Mvto -> Adapters.mvto ?log ~segments ~init ()
  | Mv2pl -> Adapters.mv2pl ?log ~segments ~init ()
  | Prudent -> Adapters.prudent ?log ~segments ~init ()
  | Sdd1 -> Adapters.sdd1 ?log ~partition:wl.Workload.partition ~init ()
  | Nocc -> Adapters.nocc ?log ~init ()

let compare_protocols ?(config = Runner.default_config)
    ?(specs = all_controlled) wl =
  List.map (fun spec -> Runner.run config wl (make spec wl)) specs

let certified_run ?(config = Runner.default_config) spec wl =
  let log = Sched_log.create () in
  let controller = make ~log spec wl in
  let result = Runner.run config wl controller in
  (result, Hdd_core.Certifier.serializable log)

let traced_run ?(config = Runner.default_config) ?capacity spec wl =
  let module Oracle = Hdd_core.Oracle in
  let trace = Hdd_obs.Trace.create ?capacity () in
  Hdd_obs.Trace.enable trace;
  let oracle = Oracle.create ~raise_on_violation:false () in
  Oracle.attach oracle trace;
  let metrics = Hdd_obs.Metrics.create () in
  Hdd_obs.Metrics.attach metrics trace;
  let controller = make ~trace spec wl in
  let result = Runner.run ~trace config wl controller in
  (result, trace, metrics, Oracle.check oracle ~records:[] ~outcomes:[])

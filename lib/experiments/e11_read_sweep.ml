(* E11 — §1.2/§6: read-synchronisation overhead as the share of
   cross-class reads grows.

   A three-level chain where each update transaction's reads go to higher
   segments with probability f.  The registrations-per-transaction curve
   is the paper's claimed saving: HDD's falls towards zero with f while
   every registering protocol stays flat. *)

module Harness = Hdd_sim.Harness
module Runner = Hdd_sim.Runner
module Workload = Hdd_sim.Workload
module Controller = Hdd_sim.Controller
module Table = Hdd_util.Table

let config =
  { Runner.default_config with Runner.mpl = 8; target_commits = 800; seed = 5 }

let specs = [ Harness.Hdd; Harness.Mvto; Harness.S2pl; Harness.Sdd1 ]

let run () =
  let fractions = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  let table =
    Table.create
      ~title:
        "E11: read registrations per committed txn vs cross-class read \
         fraction (chain depth 3)"
      ~columns:
        ("cross-read f"
         :: List.concat_map
              (fun s -> [ Harness.spec_name s ^ " regs"; Harness.spec_name s ^ " tput" ])
              specs)
  in
  let results =
    List.map
      (fun f ->
        let wl =
          Workload.chain ~depth:3 ~cross_read_fraction:f ~ro_weight:0.1 ()
        in
        let row =
          List.map (fun spec -> Runner.run config wl (Harness.make spec wl)) specs
        in
        (f, row))
      fractions
  in
  List.iter
    (fun (f, row) ->
      Table.add_row table
        (Table.cell_pct f
         :: List.concat_map
              (fun (r : Runner.result) ->
                [ Table.cell_float
                    (float_of_int r.Runner.counters.read_registrations
                     /. float_of_int r.Runner.committed);
                  Table.cell_float ~decimals:3 r.Runner.throughput ])
              row))
    results;
  let regs_of spec f =
    let _, row = List.find (fun (f', _) -> f' = f) results in
    let idx = Option.get (List.find_index (( = ) spec) specs) in
    let r = List.nth row idx in
    float_of_int r.Runner.counters.read_registrations
    /. float_of_int r.Runner.committed
  in
  { Exp_types.id = "E11";
    title = "Cross-class read fraction sweep";
    source = "§1.2, §6 (claimed registration saving)";
    tables = [ table ];
    checks =
      [ ("HDD registrations fall as reads move cross-class",
         regs_of Harness.Hdd 1.0 < regs_of Harness.Hdd 0.0);
        ("at f=1 HDD registers well under half of MVTO's",
         regs_of Harness.Hdd 1.0 < 0.5 *. regs_of Harness.Mvto 1.0);
        ("MVTO stays flat and high",
         regs_of Harness.Mvto 1.0 > 1.0 && regs_of Harness.Mvto 0.0 > 1.0);
        ("2PL stays flat and high", regs_of Harness.S2pl 1.0 > 1.0) ];
    notes =
      [ "At f=1 HDD's only registrations come from the top class, which \
         has no higher segment to read and so reads its own root segment \
         through protocol B; all other classes register nothing." ] }

(* E4 — Figure 4: if read timestamps are not left, an anomaly may occur.

   The same three transactions under timestamp ordering, with initiation
   order t1 < t2 < t3.  t3 reads the arrivals before t1's insert; without
   a read timestamp on the arrival granule nothing stops t1's late write,
   and t3 later reads the inventory level derived from it — a cycle.
   Honest TSO rejects t1's write; HDD admits the timing and stays
   serializable without any read timestamp. *)

module B = Hdd_baselines
module Scheduler = Hdd_core.Scheduler
module Outcome = Hdd_core.Outcome
module Certifier = Hdd_core.Certifier
module Store = Hdd_mvstore.Store
module Table = Hdd_util.Table

let y = Granule.make ~segment:2 ~key:0
let v = Granule.make ~segment:1 ~key:0
let order = Granule.make ~segment:0 ~key:0

type observation = {
  name : string;
  t1_write : string;
  v_seen_by_t3 : string;
  registrations : int;
  serializable : bool;
}

let run_tso ~read_timestamps =
  let log = Sched_log.create () in
  let c =
    B.Tso.create ~read_timestamps ~log ~clock:(Time.Clock.create ())
      ~init:(fun _ -> 0) ()
  in
  let t1 = B.Tso.begin_txn c in
  let t2 = B.Tso.begin_txn c in
  let t3 = B.Tso.begin_txn c in
  ignore (B.Tso.read c t3 y);
  let w1 = B.Tso.write c t1 y 1 in
  let t1_write =
    match w1 with
    | Outcome.Granted () ->
      B.Tso.commit c t1;
      "committed"
    | Outcome.Rejected _ ->
      B.Tso.abort c t1;
      "rejected (rts)"
    | Outcome.Blocked _ -> "blocked"
  in
  (match B.Tso.read c t2 y with
  | Outcome.Granted seen ->
    ignore (B.Tso.write c t2 v (10 + seen));
    B.Tso.commit c t2
  | _ -> B.Tso.abort c t2);
  let v3 =
    match B.Tso.read c t3 v with
    | Outcome.Granted x ->
      ignore (B.Tso.write c t3 order x);
      B.Tso.commit c t3;
      string_of_int x
    | Outcome.Rejected _ ->
      B.Tso.abort c t3;
      "rejected"
    | Outcome.Blocked _ -> "blocked"
  in
  { name =
      (if read_timestamps then "TSO (full)" else "TSO without read timestamps");
    t1_write;
    v_seen_by_t3 = v3;
    registrations = (B.Tso.metrics c).read_registrations;
    serializable = Certifier.serializable log }

let partition = E03_fig3.partition

let run_hdd () =
  let log = Sched_log.create () in
  let clock = Time.Clock.create () in
  let store = Store.create ~segments:3 ~init:(fun _ -> 0) in
  let s = Scheduler.create ~log ~partition ~clock ~store () in
  (* HDD classes replace the flat TSO txns; same event order *)
  let t1 = Scheduler.begin_update s ~class_id:2 in
  let t2 = Scheduler.begin_update s ~class_id:1 in
  let t3 = Scheduler.begin_update s ~class_id:0 in
  ignore (Scheduler.read s t3 y);
  let t1_write =
    match Scheduler.write s t1 y 1 with
    | Outcome.Granted () ->
      Scheduler.commit s t1;
      "committed"
    | Outcome.Rejected _ -> "rejected"
    | Outcome.Blocked _ -> "blocked"
  in
  (match Scheduler.read s t2 y with
  | Outcome.Granted seen ->
    ignore (Scheduler.write s t2 v (10 + seen));
    Scheduler.commit s t2
  | _ -> Scheduler.abort s t2);
  let v3 =
    match Scheduler.read s t3 v with
    | Outcome.Granted x ->
      ignore (Scheduler.write s t3 order x);
      Scheduler.commit s t3;
      string_of_int x
    | Outcome.Rejected _ -> "rejected"
    | Outcome.Blocked _ -> "blocked"
  in
  { name = "HDD (protocols A+B)";
    t1_write;
    v_seen_by_t3 = v3;
    registrations = (Scheduler.metrics s).Scheduler.read_registrations;
    serializable = Certifier.serializable log }

let run () =
  let rows =
    [ run_tso ~read_timestamps:false; run_tso ~read_timestamps:true;
      run_hdd () ]
  in
  let table =
    Table.create
      ~title:
        "E4 (Figure 4): timestamp ordering with and without read stamps"
      ~columns:
        [ "regime"; "t1's late insert"; "inventory seen by t3";
          "read registrations"; "serializable" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ r.name; r.t1_write; r.v_seen_by_t3;
          string_of_int r.registrations;
          (if r.serializable then "yes" else "NO") ])
    rows;
  let crippled = List.nth rows 0
  and full = List.nth rows 1
  and hdd = List.nth rows 2 in
  { Exp_types.id = "E4";
    title =
      "TSO without read timestamps admits the Figure 4 anomaly; HDD does not";
    source = "Figure 4, §1.2.1";
    tables = [ table ];
    checks =
      [ ("without read timestamps the schedule is NOT serializable",
         not crippled.serializable);
        ("honest TSO rejects t1's late write", full.t1_write = "rejected (rts)");
        ("honest TSO registered t3's read", full.registrations > 0);
        ("HDD is serializable with strictly fewer registrations",
         hdd.serializable && hdd.registrations < full.registrations) ];
    notes =
      [ "HDD still registers the protocol-B read of t3's own reorder \
         segment if any; in this timing t3 touches only higher segments \
         and the inventory read goes through the activity link." ] }

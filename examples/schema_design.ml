(* From an access trace to a running hierarchical database.

   The full §7.2 methodology end to end:

   1. record the access patterns of the application's transaction types
      over named data items (the trace);
   2. derive a candidate decomposition by clustering co-written items
      (§7.2.2) and legalize it by merging where the data hierarchy graph
      demands (§7.2.1);
   3. run the application on the derived partition under the HDD
      scheduler and certify the execution.

   The trace describes a small order-management system whose "fulfil"
   transaction co-writes two items (shipment and invoice records), and
   whose reporting transaction reads across — the kind of workload where
   the legal decomposition is not obvious by eye.

   Run with: dune exec examples/schema_design.exe *)

module Decompose = Hdd_core.Decompose
module Legalize = Hdd_core.Legalize
module Spec = Hdd_core.Spec
module Scheduler = Hdd_core.Scheduler
module Outcome = Hdd_core.Outcome
module Certifier = Hdd_core.Certifier
module Store = Hdd_mvstore.Store

let trace =
  [ { Decompose.tag = "place-order"; writes = [ "orders" ]; reads = [] };
    { Decompose.tag = "fulfil";
      writes = [ "shipments"; "invoices" ];
      reads = [ "orders" ] };
    { Decompose.tag = "pay";
      writes = [ "payments" ];
      reads = [ "invoices"; "payments" ] };
    { Decompose.tag = "report";
      writes = [ "reports" ];
      reads = [ "payments"; "shipments"; "invoices"; "reports" ] } ]

let ok = function
  | Outcome.Granted v -> v
  | Outcome.Blocked _ -> failwith "unexpected block"
  | Outcome.Rejected why -> failwith ("unexpected rejection: " ^ why)

let () =
  (* 1-2. derive and legalize *)
  let d = Decompose.decompose trace in
  let legal = d.Decompose.legal in
  let spec = legal.Legalize.spec in
  Printf.printf "derived %d segments from %d items:\n"
    (Spec.segment_count spec)
    (List.length d.Decompose.items);
  List.iter
    (fun (item, seg) ->
      Printf.printf "  %-10s -> D%d (%s)\n" item seg (Spec.segment_name spec seg))
    d.Decompose.items;
  if legal.Legalize.merges <> [] then
    Printf.printf "legalization merged %d segment pairs\n"
      (List.length legal.Legalize.merges);

  (* 3. run the application on the derived partition *)
  let partition = legal.Legalize.partition in
  let log = Sched_log.create () in
  let clock = Time.Clock.create () in
  let store =
    Store.create ~segments:(Spec.segment_count spec) ~init:(fun _ -> 0)
  in
  let s = Scheduler.create ~log ~partition ~clock ~store () in
  let seg item = Decompose.segment_of d item in
  let gr item key = Granule.make ~segment:(seg item) ~key in
  let class_of_type name =
    let ty =
      List.find (fun (ty : Spec.txn_type) -> ty.Spec.type_name = name)
        (Array.to_list spec.Spec.types)
    in
    List.hd ty.Spec.writes
  in

  (* a week of business *)
  for order = 0 to 9 do
    let place = Scheduler.begin_update s ~class_id:(class_of_type "place-order") in
    ok (Scheduler.write s place (gr "orders" order) (100 + order));
    Scheduler.commit s place;

    let fulfil = Scheduler.begin_update s ~class_id:(class_of_type "fulfil") in
    let amount = ok (Scheduler.read s fulfil (gr "orders" order)) in
    ok (Scheduler.write s fulfil (gr "shipments" order) order);
    ok (Scheduler.write s fulfil (gr "invoices" order) amount);
    Scheduler.commit s fulfil;

    let pay = Scheduler.begin_update s ~class_id:(class_of_type "pay") in
    let due = ok (Scheduler.read s pay (gr "invoices" order)) in
    ok (Scheduler.write s pay (gr "payments" order) due);
    Scheduler.commit s pay
  done;

  let report = Scheduler.begin_update s ~class_id:(class_of_type "report") in
  let total = ref 0 in
  for order = 0 to 9 do
    total := !total + ok (Scheduler.read s report (gr "payments" order))
  done;
  ok (Scheduler.write s report (gr "reports" 0) !total);
  Scheduler.commit s report;

  Printf.printf "reported revenue: %d (expected %d)\n" !total
    (let rec sum k acc = if k > 9 then acc else sum (k + 1) (acc + 100 + k) in
     sum 0 0);
  let m = Scheduler.metrics s in
  Printf.printf
    "%d commits; %d protocol-A reads, %d protocol-B reads, %d registrations\n"
    m.Scheduler.committed m.Scheduler.reads_a m.Scheduler.reads_b
    m.Scheduler.read_registrations;
  Printf.printf "certified serializable: %b\n" (Certifier.serializable log)

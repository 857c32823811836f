(* A bank ledger decomposed hierarchically.

   D2 journal (highest): tellers append deposits and withdrawals;
   D1 balances: a poster folds journal entries into account balances;
   D0 branch summaries: a summariser folds balances into per-branch
   totals.  Ad-hoc auditors read everything through time walls.

   The example runs a deterministic money-conservation scenario: every
   journal amount is drawn so that the grand total is known, posters and
   summarisers propagate it, and the audit must observe a *consistent
   cut* — a summary that matches the balances it was computed from —
   even while updates keep flowing.

   Run with: dune exec examples/bank_ledger.exe *)

module Spec = Hdd_core.Spec
module Partition = Hdd_core.Partition
module Scheduler = Hdd_core.Scheduler
module Outcome = Hdd_core.Outcome
module Certifier = Hdd_core.Certifier
module Store = Hdd_mvstore.Store
module Prng = Hdd_util.Prng

let accounts = 8
let entries_per_account = 4

let granule segment key = Granule.make ~segment ~key

let ok = function
  | Outcome.Granted v -> v
  | Outcome.Blocked _ -> failwith "unexpected block"
  | Outcome.Rejected why -> failwith ("unexpected rejection: " ^ why)

let () =
  let spec =
    Spec.make
      ~segments:[ "branch-summary"; "balances"; "journal" ]
      ~types:
        [ Spec.txn_type ~name:"teller" ~writes:[ 2 ] ~reads:[];
          Spec.txn_type ~name:"poster" ~writes:[ 1 ] ~reads:[ 1; 2 ];
          Spec.txn_type ~name:"summariser" ~writes:[ 0 ] ~reads:[ 0; 1 ] ]
  in
  let partition = Partition.build_exn spec in
  let log = Sched_log.create () in
  let clock = Time.Clock.create () in
  let store = Store.create ~segments:3 ~init:(fun _ -> 0) in
  let s =
    Scheduler.create ~log ~wall_every_commits:4 ~partition ~clock ~store ()
  in
  let rng = Prng.create 2024 in

  (* tellers append journal entries: key = account * entries + slot *)
  let grand_total = ref 0 in
  for account = 0 to accounts - 1 do
    for slot = 0 to entries_per_account - 1 do
      let teller = Scheduler.begin_update s ~class_id:2 in
      let amount = 10 + Prng.int rng 90 in
      grand_total := !grand_total + amount;
      ok (Scheduler.write s teller
            (granule 2 ((account * entries_per_account) + slot))
            amount);
      Scheduler.commit s teller
    done
  done;
  Printf.printf "tellers journalled %d entries, grand total %d\n"
    (accounts * entries_per_account) !grand_total;

  (* posters fold the journal into balances, one account at a time; the
     journal reads travel through Protocol A *)
  for account = 0 to accounts - 1 do
    let poster = Scheduler.begin_update s ~class_id:1 in
    let balance = ref (ok (Scheduler.read s poster (granule 1 account))) in
    for slot = 0 to entries_per_account - 1 do
      balance :=
        !balance
        + ok (Scheduler.read s poster
                (granule 2 ((account * entries_per_account) + slot)))
    done;
    ok (Scheduler.write s poster (granule 1 account) !balance);
    Scheduler.commit s poster
  done;
  print_endline "posters folded the journal into account balances";

  (* one summariser per branch of 4 accounts *)
  let branches = accounts / 4 in
  for branch = 0 to branches - 1 do
    let sum = Scheduler.begin_update s ~class_id:0 in
    let total = ref 0 in
    for k = 0 to 3 do
      total := !total + ok (Scheduler.read s sum (granule 1 ((branch * 4) + k)))
    done;
    ok (Scheduler.write s sum (granule 0 branch) !total);
    Scheduler.commit s sum
  done;
  print_endline "summarisers posted branch totals";

  (* the audit: read-only, wall-based, no registration *)
  (match Scheduler.release_wall s with Ok _ -> () | Error _ -> ());
  let audit = Scheduler.begin_read_only s in
  let audit_summaries =
    List.init branches (fun b -> ok (Scheduler.read s audit (granule 0 b)))
  in
  let audit_balances =
    List.init accounts (fun a -> ok (Scheduler.read s audit (granule 1 a)))
  in
  Scheduler.commit s audit;
  let summary_total = List.fold_left ( + ) 0 audit_summaries in
  let balance_total = List.fold_left ( + ) 0 audit_balances in
  Printf.printf "audit: branch summaries total %d, balances total %d\n"
    summary_total balance_total;
  Printf.printf "money conserved through the hierarchy: %b\n"
    (balance_total = !grand_total && summary_total = balance_total);

  (* hosted read-only transaction along the balances-journal path *)
  let ro = Scheduler.begin_read_only_on_path s ~below:1 in
  let b0 = ok (Scheduler.read s ro (granule 1 0)) in
  let j0 = ok (Scheduler.read s ro (granule 2 0)) in
  Scheduler.commit s ro;
  Printf.printf "hosted reader: balance[0]=%d, journal[0]=%d\n" b0 j0;

  let m = Scheduler.metrics s in
  Printf.printf
    "metrics: %d commits, %d protocol-A reads, %d protocol-B reads, %d \
     protocol-C reads, %d registrations\n"
    m.Scheduler.committed m.Scheduler.reads_a m.Scheduler.reads_b
    m.Scheduler.reads_c m.Scheduler.read_registrations;
  Printf.printf "schedule certifies serializable: %b\n"
    (Certifier.serializable log)

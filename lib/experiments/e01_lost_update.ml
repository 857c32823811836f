(* E1 — Figure 1: the lost-update anomaly.

   Smith's account holds $100; t1 deposits $50 while t2 withdraws $50,
   with the paper's exact interleaving (both read, both compute, both
   write).  Without concurrency control the final balance is $50 — one
   update lost — and the certifier flags the schedule.  Every controller
   in the repository prevents the loss. *)

module Outcome = Hdd_core.Outcome
module Certifier = Hdd_core.Certifier
module Table = Hdd_util.Table
module Controller = Hdd_sim.Controller
module Adapters = Hdd_sim.Adapters
open Outcome

let account = Granule.make ~segment:0 ~key:0

(* Drive the Figure 1 interleaving through a controller; blocked or
   rejected steps are resolved the way the controller dictates (wait for
   the blocker, or restart the loser). *)
let figure1_interleaving (c : Controller.t) =
  let t1 = c.begin_txn (Controller.Update 0) in
  let t2 = c.begin_txn (Controller.Update 0) in
  let b1 = c.read t1 account in
  let b2 = c.read t2 account in
  match (b1, b2) with
  | Granted b1v, Granted b2v ->
    (* both reads were admitted concurrently: attempt both writes *)
    let w1 = c.write t1 account (b1v + 50) in
    let finish1 =
      match w1 with
      | Granted () ->
        c.commit t1;
        `Committed
      | Rejected _ ->
        c.abort t1;
        `Restarted
      | Blocked _ -> `Blocked
    in
    let w2 = c.write t2 account (b2v - 50) in
    let finish2 =
      match w2 with
      | Granted () ->
        c.commit t2;
        `Committed
      | Rejected _ ->
        c.abort t2;
        `Restarted
      | Blocked _ ->
        (* t1 has finished by now in every controller here; retry once *)
        (match c.write t2 account (b2v - 50) with
        | Granted () ->
          c.commit t2;
          `Committed
        | Rejected _ ->
          c.abort t2;
          `Restarted
        | Blocked _ ->
          c.abort t2;
          `Stuck)
    in
    (finish1, finish2)
  | Granted _, (Blocked _ | Rejected _) ->
    (* t2's read already refused: the interleaving is impossible *)
    (match c.write t1 account 150 with
    | Granted () -> c.commit t1
    | _ -> c.abort t1);
    (match b2 with
    | Rejected _ -> c.abort t2
    | _ ->
      (* blocked: t1 finished, redo the whole of t2 serially *)
      (match c.read t2 account with
      | Granted v -> (
        match c.write t2 account (v - 50) with
        | Granted () -> c.commit t2
        | _ -> c.abort t2)
      | _ -> c.abort t2));
    (`Committed, `Serialized)
  | _ -> (`Stuck, `Stuck)

(* Re-run a restarted transaction (with its own delta) to completion so
   the business outcome is comparable across controllers. *)
let settle (c : Controller.t) ~delta = function
  | `Restarted ->
    let t = c.begin_txn (Controller.Update 0) in
    (match c.read t account with
    | Granted v -> (
      match c.write t account (v + delta) with
      | Granted () -> c.commit t
      | _ -> ())
    | _ -> ())
  | _ -> ()

let balance (c : Controller.t) =
  let t = c.begin_txn (Controller.Update 0) in
  match c.read t account with
  | Granted v ->
    c.commit t;
    v
  | _ -> min_int

let controllers =
  let init _ = 100 in
  [ (fun log -> Adapters.nocc ~log ~init ());
    (fun log -> Adapters.s2pl ~log ~init ());
    (fun log -> Adapters.tso ~log ~init ());
    (fun log -> Adapters.mvto ~log ~segments:1 ~init ()) ]

let run () =
  let table =
    Table.create ~title:"E1 (Figure 1): lost update — deposit $50, withdraw $50 from $100"
      ~columns:
        [ "controller"; "final balance"; "update lost"; "serializable" ]
  in
  let checks = ref [] in
  List.iter
    (fun build ->
      let log = Sched_log.create () in
      let c = build log in
      let name = c.Controller.name in
      let f1, f2 = figure1_interleaving c in
      settle c ~delta:50 f1;
      settle c ~delta:(-50) f2;
      let final = balance c in
      let serializable = Certifier.serializable log in
      let lost = final <> 100 in
      Table.add_row table
        [ name; string_of_int final; (if lost then "YES" else "no");
          (if serializable then "yes" else "NO") ];
      if name = "NoCC" then
        checks :=
          ("NoCC loses the update and certifies non-serializable",
           lost && not serializable)
          :: !checks
      else
        checks :=
          (name ^ " preserves the balance and serializability",
           (not lost) && serializable)
          :: !checks)
    controllers;
  { Exp_types.id = "E1";
    title = "Lost update under concurrent deposit/withdraw";
    source = "Figure 1, §1.1";
    tables = [ table ];
    checks = List.rev !checks;
    notes =
      [ "The paper's interleaving: both transactions read the $100 \
         balance before either write lands.";
        "Controllers that refuse the interleaving (2PL blocks, TSO/MVTO \
         reject a late write) serialize or restart the withdrawal; the \
         business outcome is $100 in every controlled run." ] }

exception Violation of string

type txn_info = {
  kind : Trace.txn_kind;
  init : int;
  wall : int array option;
      (** resolved wall components for a walled read-only transaction *)
  mutable pending : (int * int * int) list;  (** (segment, key, ts) *)
  mutable used : (int * int) list;  (** (segment, threshold) observed *)
}

type t = {
  raise_on_violation : bool;
  wall_rule : [ `Latest | `Any_released ];
  durability_only : bool;
  mutable violations : string list;  (** newest first *)
  active : (int, txn_info) Hashtbl.t;
  committed : (int * int, int list) Hashtbl.t;
      (** (segment, key) -> committed version timestamps, descending *)
  mutable walls : (int * int array) list;
      (** (released_at, components), newest first *)
  acked : (int * int, unit) Hashtbl.t;
      (** (txn, at) acknowledged as durable — must survive every
          subsequent recovery *)
  recovered_now : (int * int, unit) Hashtbl.t;
      (** (txn, at) replayed by the recovery in progress *)
  mutable last_cut : (int * int array) option;
      (** newest checkpoint cut: (seq, wall components) *)
  mutable last_epoch : int;
      (** newest partition epoch entered; 0 before any {!Trace.event.Repartition} *)
  mutable last_esc_seq : int;
      (** newest escalation sequence number; 0 before any {!Trace.event.Escalation} *)
  mutable esc_modes : int array;
      (** per-class CC modes after the newest escalation; [||] (all
          classes plain HDD) before any *)
  mutable events_seen : int;
}

let create ?(raise_on_violation = true) ?(wall_rule = `Latest)
    ?(durability_only = false) () =
  { raise_on_violation;
    wall_rule;
    durability_only;
    violations = [];
    active = Hashtbl.create 64;
    committed = Hashtbl.create 256;
    walls = [];
    acked = Hashtbl.create 64;
    recovered_now = Hashtbl.create 64;
    last_cut = None;
    last_epoch = 0;
    last_esc_seq = 0;
    esc_modes = [||];
    events_seen = 0 }

let violations t = List.rev t.violations
let events_seen t = t.events_seen
let last_epoch t = t.last_epoch
let last_esc_seq t = t.last_esc_seq

let violate t fmt =
  Printf.ksprintf
    (fun msg ->
      t.violations <- msg :: t.violations;
      if t.raise_on_violation then raise (Violation msg))
    fmt

(* The scheduler's wall rule for a read-only transaction initiated at
   [init]: the newest wall released strictly before it, else the newest
   wall outright. *)
let wall_for t ~init =
  let rec go = function
    | [] -> (match t.walls with (_, c) :: _ -> Some c | [] -> None)
    | (released_at, components) :: rest ->
      if released_at < init then Some components else go rest
  in
  go t.walls

let committed_of t ~segment ~key =
  match Hashtbl.find_opt t.committed (segment, key) with
  | Some l -> l
  | None -> []

let record_use (info : txn_info) ~segment ~threshold =
  if not (List.mem (segment, threshold) info.used) then
    info.used <- (segment, threshold) :: info.used

(* Invariant 3, read side: the version served must sit strictly below the
   threshold, and no committed version the shadow knows may lie between
   them — otherwise the store skipped a newer legal version (timestamp
   order broken) or GC stole it (watermark broken). *)
let check_read t (r : Trace.record) ~txn ~protocol ~segment ~key ~threshold
    ~version =
  let proto = Trace.(match protocol with A -> "A" | B -> "B" | C -> "C") in
  if version >= threshold then
    violate t "event %d: protocol %s read of D%d/%d by txn %d: version %d \
               not below threshold %d"
      r.Trace.seq proto segment key txn version threshold;
  (match
     List.find_opt
       (fun ts -> ts > version && ts < threshold)
       (committed_of t ~segment ~key)
   with
  | Some newer ->
    violate t "event %d: protocol %s read of D%d/%d by txn %d served \
               version %d, but version %d < threshold %d is committed"
      r.Trace.seq proto segment key txn version newer threshold
  | None -> ());
  match Hashtbl.find_opt t.active txn with
  | None ->
    violate t "event %d: read by unknown transaction %d" r.Trace.seq txn
  | Some info ->
    record_use info ~segment ~threshold;
    (* a walled reader's threshold is pinned to its wall's component *)
    (match (info.kind, info.wall, t.wall_rule) with
    | Trace.Read_only, _, `Any_released ->
      (* Parallel runtime: a reader grabs the seqlock wall before
         ticking its initiation time, so by the time both events reach
         the merged trace any wall released before [init] is legal, not
         just the newest one. *)
      let applicable =
        List.filter
          (fun (released_at, components) ->
            released_at < info.init
            && segment >= 0
            && segment < Array.length components)
          t.walls
      in
      if
        applicable <> []
        && not
             (List.exists (fun (_, c) -> c.(segment) = threshold) applicable)
      then
        violate t "event %d: protocol C read of D%d by txn %d used \
                   threshold %d; no wall released before init %d has that \
                   component"
          r.Trace.seq segment txn threshold info.init
    | Trace.Read_only, Some components, `Latest ->
      if
        segment >= 0
        && segment < Array.length components
        && components.(segment) <> threshold
      then
        violate t "event %d: protocol C read of D%d by txn %d used \
                   threshold %d; its wall says %d"
          r.Trace.seq segment txn threshold components.(segment)
    | _ -> ())

(* Invariant 4: necessary conditions on a collection's threshold vector,
   from what the event stream alone reveals. *)
let check_gc t (r : Trace.record) ~vector =
  let bad s bound what =
    violate t "event %d: gc vector component D%d = %d above %s = %d"
      r.Trace.seq s vector.(s) what bound
  in
  (match t.walls with
  | (_, components) :: _ ->
    Array.iteri
      (fun s c -> if s < Array.length vector && vector.(s) > c then
          bad s c "current wall component")
      components
  | [] -> ());
  Hashtbl.iter
    (fun id (info : txn_info) ->
      (match info.kind with
      | Trace.Update cls ->
        if cls < Array.length vector && vector.(cls) > info.init then
          bad cls info.init
            (Printf.sprintf "active txn %d's initiation time" id)
      | Trace.Adhoc _ ->
        Array.iteri
          (fun s v ->
            if v > info.init then
              bad s info.init
                (Printf.sprintf "active ad-hoc txn %d's initiation time" id))
          vector
      | Trace.Hosted bottom ->
        if bottom < Array.length vector && vector.(bottom) > info.init then
          bad bottom info.init
            (Printf.sprintf "active hosted txn %d's initiation time" id)
      | Trace.Read_only -> (
        match info.wall with
        | Some components ->
          Array.iteri
            (fun s c ->
              if s < Array.length vector && vector.(s) > c then
                bad s c (Printf.sprintf "active reader %d's wall component" id))
            components
        | None -> ()));
      (* An escalated class reads the latest committed version: its
         emitted thresholds are one past the version served, never a
         repeatable MVTO bound, and GC always keeps the newest committed
         version per granule — so they do not pin the vector. *)
      let esc_own s =
        match info.kind with
        | Trace.Update cls ->
          s = cls && cls < Array.length t.esc_modes && t.esc_modes.(cls) <> 0
        | _ -> false
      in
      List.iter
        (fun (s, th) ->
          if
            s >= 0 && s < Array.length vector && vector.(s) > th
            && not (esc_own s)
          then bad s th (Printf.sprintf "threshold txn %d already used" id))
        info.used)
    t.active

(* Mirror Store.gc_wall on the shadow: per granule of segment [s], keep
   the newest committed timestamp below [vector.(s)] and everything above
   it.  Keeps the shadow in lockstep with the store, so later read checks
   stay exact, and bounds the monitor's memory. *)
let prune_shadow t ~vector =
  Hashtbl.iter
    (fun (segment, _key as g) tss ->
      if segment < Array.length vector then begin
        let floor = vector.(segment) in
        let rec cut = function
          | [] -> []
          | ts :: rest ->
            if ts < floor then [ ts ] (* newest below: keep, drop the rest *)
            else ts :: cut rest
        in
        Hashtbl.replace t.committed g (cut tss)
      end)
    t.committed

(* Invariant 5, durability: an acknowledged-durable commit survives every
   subsequent recovery, and checkpoint cuts are monotone — increasing
   sequence numbers, componentwise non-decreasing wall vectors. *)
let handle_durability t (r : Trace.record) =
  match r.Trace.ev with
  | Trace.Durable_ack { txn; at } -> Hashtbl.replace t.acked (txn, at) ()
  | Trace.Durable_recovered { txn; at } ->
    Hashtbl.replace t.recovered_now (txn, at) ()
  | Trace.Recovery_complete { last_time } ->
    Hashtbl.iter
      (fun (txn, at) () ->
        if not (Hashtbl.mem t.recovered_now (txn, at)) then
          violate t "event %d: acknowledged-durable commit of txn %d at %d \
                     lost across recovery (replayed up to %d)"
            r.Trace.seq txn at last_time)
      t.acked;
    Hashtbl.reset t.recovered_now
  | Trace.Checkpoint_cut { seq; components } ->
    (match t.last_cut with
    | Some (prev_seq, prev) ->
      if seq <= prev_seq then
        violate t "event %d: checkpoint sequence moved backwards: %d after %d"
          r.Trace.seq seq prev_seq;
      Array.iteri
        (fun s c ->
          if s < Array.length prev && c < prev.(s) then
            violate t "event %d: checkpoint %d wall component D%d moved \
                       backwards: %d after %d"
              r.Trace.seq seq s c prev.(s))
        components
    | None -> ());
    t.last_cut <- Some (seq, Array.copy components)
  | _ -> ()

(* Invariant 6, partition epochs: a repartition is only legal behind a
   quiescent barrier — strictly increasing epoch numbers and no
   transaction in flight when the swap lands.  A repair that rebuilt the
   physical store changes what segment ids mean, so the committed-version
   shadow and the released walls of the old epoch are retired with it;
   a pure ownership migration leaves both meanings intact. *)
let check_repartition t (r : Trace.record) ~epoch ~fresh_store =
  if epoch <= t.last_epoch then
    violate t "event %d: partition epoch moved backwards: %d after %d \
               (epochs are strictly increasing)"
      r.Trace.seq epoch t.last_epoch;
  if Hashtbl.length t.active > 0 then begin
    let ids =
      Hashtbl.fold (fun id _ acc -> id :: acc) t.active []
      |> List.sort compare |> List.map string_of_int |> String.concat ","
    in
    violate t "event %d: repartition to epoch %d with transactions [%s] \
               still in flight — the wall barrier must drain them first"
      r.Trace.seq epoch ids
  end;
  t.last_epoch <- epoch;
  if fresh_store then begin
    Hashtbl.reset t.committed;
    t.walls <- []
  end

(* Invariant 7, hybrid escalation: mode switches carry strictly
   increasing sequence numbers, and no update transaction of a class
   whose mode changes may be in flight when the switch lands.  This is
   deliberately weaker than the repartition rule's global quiescence:
   the serial hybrid scheduler applies a flip as soon as the affected
   classes drain, while the engine's full park barrier (which drains
   everyone) satisfies it a fortiori. *)
let check_escalation t (r : Trace.record) ~seq ~modes =
  if seq <= t.last_esc_seq then
    violate t "event %d: escalation sequence moved backwards: %d after %d \
               (sequence numbers are strictly increasing)"
      r.Trace.seq seq t.last_esc_seq;
  let next = Array.of_list modes in
  let mode_of v c = if c < Array.length v then v.(c) else 0 in
  let in_flight =
    Hashtbl.fold
      (fun id (info : txn_info) acc ->
        match info.kind with
        | Trace.Update cls when mode_of t.esc_modes cls <> mode_of next cls ->
          id :: acc
        | _ -> acc)
      t.active []
  in
  if in_flight <> [] then begin
    let ids =
      List.sort compare in_flight |> List.map string_of_int
      |> String.concat ","
    in
    violate t "event %d: escalation %d switches the mode of classes with \
               update transactions [%s] still in flight — the mode-switch \
               barrier must drain them first"
      r.Trace.seq seq ids
  end;
  t.last_esc_seq <- seq;
  t.esc_modes <- next

let escalated t cls = cls < Array.length t.esc_modes && t.esc_modes.(cls) <> 0

let handle t (r : Trace.record) =
  t.events_seen <- t.events_seen + 1;
  match r.Trace.ev with
  | Trace.Durable_ack _ | Trace.Durable_recovered _ | Trace.Recovery_complete _
  | Trace.Checkpoint_cut _ ->
    handle_durability t r
  | _ when t.durability_only -> ()
  | Trace.Begin { txn; kind; init } ->
    let wall =
      match kind with
      | Trace.Read_only -> wall_for t ~init
      | _ -> None
    in
    Hashtbl.replace t.active txn { kind; init; wall; pending = []; used = [] }
  | Trace.Read { txn; protocol; segment; key; threshold; version } ->
    check_read t r ~txn ~protocol ~segment ~key ~threshold ~version
  | Trace.Block { txn; protocol; segment; _ } -> (
    match protocol with
    | Trace.B -> ()
    | Trace.A | Trace.C ->
      violate t "event %d: protocol %s read of D%d by txn %d blocked — \
                 protocols A and C never wait"
        r.Trace.seq
        (if protocol = Trace.A then "A" else "C")
        segment txn)
  | Trace.Reject { txn; protocol; stage; segment; reason } -> (
    match (stage, protocol) with
    | Trace.Rule, Some (Trace.A | Trace.C) ->
      violate t "event %d: protocol %s access to D%d by txn %d rejected \
                 (%s) — protocols A and C never reject"
        r.Trace.seq
        (if protocol = Some Trace.A then "A" else "C")
        segment txn reason
    | _ -> () (* routing and barrier rejections are by design; B may
                 reject (MVTO late writes) *))
  | Trace.Write { txn; segment; key; ts } -> (
    match Hashtbl.find_opt t.active txn with
    | None ->
      violate t "event %d: write by unknown transaction %d" r.Trace.seq txn
    | Some info ->
      (match info.kind with
      | Trace.Update cls when escalated t cls ->
        (* escalated classes install at a commit stamp taken after the
           transaction's operations — strictly after initiation *)
        if ts <= info.init then
          violate t "event %d: write to D%d/%d by escalated txn %d carries \
                     timestamp %d, not a commit stamp after its initiation \
                     time %d"
            r.Trace.seq segment key txn ts info.init
      | _ ->
        if ts <> info.init then
          violate t "event %d: write to D%d/%d by txn %d carries timestamp \
                     %d, not its initiation time %d"
            r.Trace.seq segment key txn ts info.init);
      (* a rewrite of the same granule replaces the pending version *)
      info.pending <-
        (segment, key, ts)
        :: List.filter (fun (s, k, _) -> (s, k) <> (segment, key)) info.pending)
  | Trace.Commit { txn; _ } -> (
    match Hashtbl.find_opt t.active txn with
    | None ->
      violate t "event %d: commit of unknown transaction %d" r.Trace.seq txn
    | Some info ->
      List.iter
        (fun (segment, key, ts) ->
          let tss = committed_of t ~segment ~key in
          if List.mem ts tss then
            violate t "event %d: txn %d committed a duplicate version \
                       timestamp %d at D%d/%d"
              r.Trace.seq txn ts segment key;
          Hashtbl.replace t.committed (segment, key)
            (List.sort (fun a b -> compare b a) (ts :: tss)))
        info.pending;
      Hashtbl.remove t.active txn)
  | Trace.Abort { txn; _ } -> Hashtbl.remove t.active txn
  | Trace.Wall_release { m; released_at; components } ->
    (match t.walls with
    | (prev_released, prev_components) :: _ ->
      if released_at <= prev_released then
        violate t "event %d: wall released at %d after one released at %d"
          r.Trace.seq released_at prev_released;
      Array.iteri
        (fun s c ->
          if
            s < Array.length prev_components
            && c < prev_components.(s)
          then
            violate t "event %d: wall component D%d moved backwards: %d \
                       after %d (walls must be monotone)"
              r.Trace.seq s c prev_components.(s))
        components
    | [] -> ());
    ignore m;
    t.walls <- (released_at, Array.copy components) :: t.walls
  | Trace.Gc { vector; _ } ->
    check_gc t r ~vector;
    prune_shadow t ~vector
  | Trace.Repartition { epoch; fresh_store; _ } ->
    check_repartition t r ~epoch ~fresh_store
  | Trace.Escalation { seq; modes } -> check_escalation t r ~seq ~modes
  | Trace.Wall_blocked _ | Trace.Seg_gc _ | Trace.Registry_prune _
  | Trace.Sim _ | Trace.Note _ ->
    ()

let attach t trace = Trace.subscribe trace (handle t)
let feed = handle

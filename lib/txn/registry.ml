module Binc = Hdd_util.Binc

(* A class's frozen activity state: what a snapshot holds per class.
   Immutable once built; the arrays start at index 0. *)
type class_view = {
  v_actives : (Txn.id * Time.t) list;
  v_w_init : Time.t array;
  v_w_end : Time.t array;
  v_gen : int;
}

let no_view = { v_actives = []; v_w_init = [||]; v_w_end = [||]; v_gen = -1 }

type class_log = {
  mutable records : Txn.t array;  (* circular-free growable array *)
  mutable base : int;  (* first live index after pruning *)
  mutable len : int;  (* one past the last used index *)
  (* --- incremental activity index ---
     [pending] holds registered transactions last seen active, oldest
     (smallest initiation) first; a lazy [sync] pass moves the ones that
     have since finished into the window arrays.  [w_end]/[w_init] record
     finished activity windows [init, end) with both columns ascending:
     every window dominated by another (later end, older init) is dropped
     on insertion, so the first window with [end > m] is the oldest one
     spanning [m], and the last window with [init < m] carries the latest
     end among windows initiated before [m].  This turns [i_old]/[c_late]
     into O(|active| + log windows) instead of a scan of the class log. *)
  mutable pending : Txn.t list;
  (* --- packed single-active fast path ---
     The multicore engine runs at most one update transaction per class
     at a time, so its commit path registers activity as two ints
     instead of allocating a [Txn.t] and threading it through [pending]:
     [a_init = max_int] means no packed active.  Queries account for
     both faces; the packed active is always the newest activity. *)
  mutable a_id : Txn.id;
  mutable a_init : Time.t;
  mutable w_end : int array;
  mutable w_init : int array;
  mutable w_base : int;
  mutable w_len : int;
  mutable gen : int;  (* bumped whenever a query could change *)
  (* the view the last snapshot froze, and [w_base] when it did *)
  mutable view : class_view;
  mutable view_w_base : int;
}

type t = { logs : class_log array; trace : Hdd_obs.Trace.t option }

let fresh_log () =
  { records = Array.make 8 Txn.bootstrap; base = 0; len = 0;
    pending = []; a_id = -1; a_init = max_int;
    w_end = [||]; w_init = [||]; w_base = 0; w_len = 0;
    gen = 0; view = no_view; view_w_base = 0 }

let create ?trace ~classes () =
  if classes <= 0 then invalid_arg "Registry.create: classes must be > 0";
  { logs = Array.init classes (fun _ -> fresh_log ()); trace }

let log_of t class_id =
  if class_id < 0 || class_id >= Array.length t.logs then
    invalid_arg (Printf.sprintf "Registry: class %d out of range" class_id);
  t.logs.(class_id)

(* --- finished-window index maintenance --- *)

let ensure_window_capacity log =
  if log.w_len >= Array.length log.w_end then begin
    let live = log.w_len - log.w_base in
    let cap = Array.length log.w_end in
    if cap > 0 && live + 1 <= cap - Int.max 1 (cap / 4) then begin
      (* at least a quarter of the buffer was pruned away: reclaim it in
         place (same-array blit) instead of allocating — this is what
         keeps the steady-state commit path at zero bytes once a wall
         keeps pruning behind it *)
      Array.blit log.w_end log.w_base log.w_end 0 live;
      Array.blit log.w_init log.w_base log.w_init 0 live;
      log.w_base <- 0;
      log.w_len <- live
    end
    else begin
      let cap = Int.max 8 (2 * (live + 1)) in
      let ends = Array.make cap 0 and inits = Array.make cap 0 in
      Array.blit log.w_end log.w_base ends 0 live;
      Array.blit log.w_init log.w_base inits 0 live;
      log.w_end <- ends;
      log.w_init <- inits;
      log.w_base <- 0;
      log.w_len <- live
    end
  end

(* The binary searches are top-level and tail-recursive on ints: a [ref]
   accumulator would allocate a minor-heap cell per query, and these sit
   on the zero-allocation commit path (DESIGN.md §16). *)

(* First index in [[lo, hi)] of [arr] whose value is > [m] (= hi if none). *)
let rec bs_above arr lo hi m =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get arr mid > m then bs_above arr lo mid m
    else bs_above arr (mid + 1) hi m

(* First index in [[lo, hi)] of [arr] whose value is >= [m] (= hi if none). *)
let rec bs_at_or_above arr lo hi m =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if Array.unsafe_get arr mid >= m then bs_at_or_above arr lo mid m
    else bs_at_or_above arr (mid + 1) hi m

(* First index in [[w_base, w_len)] whose end is > [m] (= w_len if none). *)
let first_end_above log m = bs_above log.w_end log.w_base log.w_len m

(* First index in [[w_base, w_len)] whose init is >= [m] (= w_len if none). *)
let first_init_at_or_above log m =
  bs_at_or_above log.w_init log.w_base log.w_len m

(* Start of the contiguous run of windows just below [pos] that a new
   window initiated at [init] dominates. *)
let rec dominated_run_start w_init base pos init =
  if pos > base && Array.unsafe_get w_init (pos - 1) >= init then
    dominated_run_start w_init base (pos - 1) init
  else pos

let add_window log ~endt ~init =
  ensure_window_capacity log;
  let pos = first_end_above log endt in
  (* dominated: some retained window ends no earlier and started no later *)
  if not (pos < log.w_len && log.w_init.(pos) <= init) then begin
    (* windows this one dominates sit in a contiguous run just below [pos] *)
    let j = dominated_run_start log.w_init log.w_base pos init in
    let tail = log.w_len - pos in
    Array.blit log.w_end pos log.w_end (j + 1) tail;
    Array.blit log.w_init pos log.w_init (j + 1) tail;
    log.w_end.(j) <- endt;
    log.w_init.(j) <- init;
    log.w_len <- j + 1 + tail
  end

(* Move transactions that finished since the last look from [pending] into
   the window index.  Lazy: nothing tells the registry about commits and
   aborts (drivers mutate {!Txn.t} directly), so every query re-checks the
   few transactions last seen active. *)
let sync log =
  match log.pending with
  | [] -> ()
  | pending ->
    let changed = ref false in
    let still =
      List.filter
        (fun (r : Txn.t) ->
          if Txn.is_active r then true
          else begin
            (match Txn.end_time r with
            | Some e -> add_window log ~endt:e ~init:r.Txn.init
            | None -> ());
            changed := true;
            false
          end)
        pending
    in
    if !changed then begin
      log.pending <- still;
      log.gen <- log.gen + 1
    end

let register_in t ~class_id (txn : Txn.t) =
  let log = log_of t class_id in
  if log.len > log.base && (log.records.(log.len - 1)).Txn.init >= txn.init
  then
    invalid_arg "Registry.register: initiation times must be increasing";
  if log.len = Array.length log.records then begin
    let live = log.len - log.base in
    let bigger = Array.make (Int.max 8 (2 * live)) Txn.bootstrap in
    Array.blit log.records log.base bigger 0 live;
    log.records <- bigger;
    log.base <- 0;
    log.len <- live
  end;
  log.records.(log.len) <- txn;
  log.len <- log.len + 1;
  (* initiation times increase, so appending keeps [pending] ordered *)
  log.pending <- log.pending @ [ txn ];
  log.gen <- log.gen + 1

let register t (txn : Txn.t) =
  match txn.kind with
  | Txn.Read_only -> invalid_arg "Registry.register: read-only transaction"
  | Txn.Update class_id -> register_in t ~class_id txn

(* --- packed single-active fast path --- *)

let register_active t ~class_id ~id ~init =
  let log = log_of t class_id in
  if log.a_init <> max_int then
    invalid_arg "Registry.register_active: class already has a packed active";
  if log.w_len > log.w_base && log.w_init.(log.w_len - 1) >= init then
    invalid_arg "Registry.register_active: initiation times must be increasing";
  log.a_id <- id;
  log.a_init <- init;
  log.gen <- log.gen + 1

let finish_active t ~class_id ~endt =
  let log = log_of t class_id in
  if log.a_init = max_int then
    invalid_arg "Registry.finish_active: no packed active";
  if endt <= log.a_init then
    invalid_arg "Registry.finish_active: end time not after initiation";
  add_window log ~endt ~init:log.a_init;
  log.a_id <- -1;
  log.a_init <- max_int;
  log.gen <- log.gen + 1

(* Iterate the records of a class with init <= m, oldest first; [f] returns
   [true] to keep going. *)
let iter_upto log m f =
  let i = ref log.base in
  let continue = ref true in
  while !continue && !i < log.len do
    let r = log.records.(!i) in
    if r.Txn.init > m then continue := false
    else begin
      continue := f r;
      incr i
    end
  done

let i_old t ~class_id ~at =
  let log = log_of t class_id in
  sync log;
  (* oldest currently-active transaction (pending is ordered by init,
     the packed active is always the newest activity) *)
  let best =
    match log.pending with
    | r :: _ when r.Txn.init < at -> r.Txn.init
    | _ -> at
  in
  let best = if log.a_init < best then log.a_init else best in
  (* oldest finished window still spanning [at]; its init is < at
     whenever it is < best, since best <= at *)
  let i = first_end_above log at in
  if i < log.w_len && Array.unsafe_get log.w_init i < best then
    Array.unsafe_get log.w_init i
  else best

let c_late t ~class_id ~at =
  let log = log_of t class_id in
  sync log;
  match log.pending with
  (* strict initiation bound, matching Txn.active_at: transactions
     initiated exactly at [at] play no role in C_late(at) *)
  | r :: _ when r.Txn.init < at -> Error r.Txn.id
  | _ ->
    if log.a_init < at then Error log.a_id
    else
      (* windows are ascending in both columns, so the latest end among
         windows initiated before [at] sits on the last such window *)
      let i = first_init_at_or_above log at in
      if i > log.w_base && log.w_end.(i - 1) > at then Ok log.w_end.(i - 1)
      else Ok at

(* Reference implementations: the original linear scans over the class
   log, kept as the ablation partner for the benchmarks and as the oracle
   for the equivalence properties in the test suite. *)

let i_old_scan t ~class_id ~at =
  let log = log_of t class_id in
  let found = ref at in
  (try
     iter_upto log at (fun r ->
         if Txn.active_at r at then begin
           found := r.Txn.init;
           raise Exit
         end
         else true)
   with Exit -> ());
  !found

let c_late_scan t ~class_id ~at =
  let log = log_of t class_id in
  let blocking = ref None in
  let latest = ref at in
  let saw_committed_span = ref false in
  iter_upto log (at - 1) (fun r ->
      (match r.Txn.status with
      | Txn.Active -> blocking := Some r.Txn.id
      | Txn.Committed c | Txn.Aborted c ->
        (* aborted windows count too: I_old treats the transaction as
           active until its abort, so the clearing time must cover it,
           or A(B(m)) >= m (Property 2.1) fails around aborts *)
        if c > at then begin
          saw_committed_span := true;
          if c > !latest then latest := c
        end);
      !blocking = None);
  match !blocking with
  | Some id -> Error id
  | None -> Ok (if !saw_committed_span then !latest else at)

let c_late_computable t ~class_id ~at =
  match c_late t ~class_id ~at with Ok _ -> true | Error _ -> false

let generation t ~class_id =
  let log = log_of t class_id in
  sync log;
  log.gen

let active_count t ~class_id =
  let log = log_of t class_id in
  sync log;
  List.length log.pending + (if log.a_init <> max_int then 1 else 0)

let transactions t ~class_id =
  let log = log_of t class_id in
  List.init (log.len - log.base) (fun i -> log.records.(log.base + i))

let record_count t ~class_id =
  let log = log_of t class_id in
  log.len - log.base

let window_count t ~class_id =
  let log = log_of t class_id in
  sync log;
  log.w_len - log.w_base

(* --- immutable snapshots --- *)

type snapshot = { views : class_view array }

(* Reuse the class's last frozen view while nothing it shows has moved.
   Every change to the actives or to a window bumps [gen] (the window
   arrays are only written by [add_window], whose callers bump it);
   [prune] alone moves [w_base] without a bump, and only forwards.  So
   equal ([gen], [w_base]) means equal content. *)
let freeze log =
  sync log;
  if log.view.v_gen = log.gen && log.view_w_base = log.w_base then log.view
  else begin
    let live = log.w_len - log.w_base in
    let actives =
      List.map (fun (r : Txn.t) -> (r.Txn.id, r.Txn.init)) log.pending
    in
    let actives =
      (* the packed active is the newest activity: append last to keep
         [v_actives] ascending in init *)
      if log.a_init = max_int then actives
      else actives @ [ (log.a_id, log.a_init) ]
    in
    let v =
      { v_actives = actives;
        v_w_init = Array.sub log.w_init log.w_base live;
        v_w_end = Array.sub log.w_end log.w_base live;
        v_gen = log.gen }
    in
    log.view <- v;
    log.view_w_base <- log.w_base;
    v
  end

let snapshot t = { views = Array.map freeze t.logs }

let view_of snap class_id =
  if class_id < 0 || class_id >= Array.length snap.views then
    invalid_arg
      (Printf.sprintf "Registry.snapshot: class %d out of range" class_id);
  snap.views.(class_id)

let snap_generation snap ~class_id = (view_of snap class_id).v_gen

(* The binary searches from the live index, over a view's plain arrays
   (the view has no [w_base]; its arrays start at 0). *)
let v_first_end_above v m = bs_above v.v_w_end 0 (Array.length v.v_w_end) m

let v_first_init_at_or_above v m =
  bs_at_or_above v.v_w_init 0 (Array.length v.v_w_init) m

let snap_i_old snap ~class_id ~at =
  let v = view_of snap class_id in
  let best =
    match v.v_actives with
    | (_, init) :: _ when init < at -> init
    | _ -> at
  in
  let i = v_first_end_above v at in
  if i < Array.length v.v_w_end && Array.unsafe_get v.v_w_init i < best then
    Array.unsafe_get v.v_w_init i
  else best

let snap_c_late snap ~class_id ~at =
  let v = view_of snap class_id in
  match v.v_actives with
  | (id, init) :: _ when init < at -> Error id
  | _ ->
    let i = v_first_init_at_or_above v at in
    if i > 0 && v.v_w_end.(i - 1) > at then Ok v.v_w_end.(i - 1) else Ok at

(* --- the wire layout ---

   Per class: the actives as count-prefixed (id, initiation) pairs,
   oldest first; the windows as a count and (init, end) pairs,
   ascending; the generation.  The live and the frozen writer share
   [w_class], and every element writer is a top-level function, so
   writing allocates nothing. *)

let rec w_pending b = function
  | [] -> ()
  | (r : Txn.t) :: rest ->
    Binc.w_int b r.Txn.id;
    Binc.w_int b r.Txn.init;
    w_pending b rest

let w_pair b (id, init) =
  Binc.w_int b id;
  Binc.w_int b init

(* windows [[lo, hi)] of the two columns, then the generation *)
let w_class b w_init w_end lo hi gen =
  Binc.w_int b (hi - lo);
  for k = lo to hi - 1 do
    Binc.w_int b (Array.unsafe_get w_init k);
    Binc.w_int b (Array.unsafe_get w_end k)
  done;
  Binc.w_int b gen

(* A live class as [freeze] would show it: the same [sync], the packed
   active after the pending ones, the windows from [w_base]. *)
let w_log b log =
  sync log;
  let packed = log.a_init <> max_int in
  Binc.w_int b (List.length log.pending + if packed then 1 else 0);
  w_pending b log.pending;
  if packed then begin
    Binc.w_int b log.a_id;
    Binc.w_int b log.a_init
  end;
  w_class b log.w_init log.w_end log.w_base log.w_len log.gen

let write b t = Binc.w_array b w_log t.logs

let w_view b v =
  Binc.w_list b w_pair v.v_actives;
  w_class b v.v_w_init v.v_w_end 0 (Array.length v.v_w_init) v.v_gen

let write_snapshot b snap = Binc.w_array b w_view snap.views

(* The reader refuses what no registry can show, so corrupted bytes
   fail here, never as a snapshot that answers nonsense. *)
let malformed what = raise (Binc.Error ("Registry.read: " ^ what))

let[@tail_mod_cons] rec r_actives r n prev =
  if n = 0 then []
  else
    let id = Binc.r_int r in
    let init = Binc.r_int r in
    if init <= prev then malformed "actives not ascending";
    (id, init) :: r_actives r (n - 1) init

let r_view r =
  let v_actives = r_actives r (Binc.r_count r) min_int in
  let n = Binc.r_count r in
  (* [Array.make] is a C call even for n = 0; most classes have no
     window *)
  let v_w_init = if n = 0 then [||] else Array.make n 0 in
  let v_w_end = if n = 0 then [||] else Array.make n 0 in
  for k = 0 to n - 1 do
    let init = Binc.r_int r in
    let endt = Binc.r_int r in
    if init >= endt then malformed "empty window";
    if k > 0 && (v_w_init.(k - 1) >= init || v_w_end.(k - 1) >= endt) then
      malformed "windows not ascending";
    v_w_init.(k) <- init;
    v_w_end.(k) <- endt
  done;
  { v_actives; v_w_init; v_w_end; v_gen = Binc.r_int r }

let read r =
  match Binc.r_array r r_view with
  | [||] -> malformed "no classes"
  | views -> { views }

let same_view a b ~class_id = view_of a class_id == view_of b class_id

(* First record index at or after [i] that has not finished by [upto].
   Top-level recursion: [prune] runs on the engine's steady-state commit
   path (every K commits), which must stay allocation-free. *)
let rec prune_records records len i upto =
  if
    i < len
    &&
    match (Array.unsafe_get records i).Txn.status with
    | Txn.Committed e | Txn.Aborted e -> e <= upto
    | Txn.Active -> false
  then prune_records records len (i + 1) upto
  else i

let prune_log log upto =
  sync log;
  let i = prune_records log.records log.len log.base upto in
  let dropped_records = i - log.base in
  log.base <- i;
  (* windows closed at or before [upto] can serve no query at >= upto *)
  let w = first_end_above log upto in
  let dropped = dropped_records + (w - log.w_base) in
  log.w_base <- w;
  dropped

let prune t ~upto =
  match t.trace with
  | None ->
    let logs = t.logs in
    for c = 0 to Array.length logs - 1 do
      ignore (prune_log logs.(c) upto)
    done
  | Some tr ->
    let records_dropped = ref 0 and windows_dropped = ref 0 in
    Array.iter
      (fun log ->
        sync log;
        let i = prune_records log.records log.len log.base upto in
        records_dropped := !records_dropped + (i - log.base);
        log.base <- i;
        let w = first_end_above log upto in
        windows_dropped := !windows_dropped + (w - log.w_base);
        log.w_base <- w)
      t.logs;
    Hdd_obs.Trace.emit_here tr
      (Hdd_obs.Trace.Registry_prune
         { upto;
           records_dropped = !records_dropped;
           windows_dropped = !windows_dropped })

module T = Hdd_obs.Trace
module Pstore = Hdd_mvstore.Pstore
module P = Hdd_core.Partition
module TW = Hdd_core.Timewall

type op = Read of Granule.t | Write of Granule.t * int

type desc = {
  d_id : Txn.id;
  d_kind : [ `Update of int | `Read_only ];
  d_ops : op list;
  d_abort : bool;
}

type state = {
  partition : P.t;
  stores : Pstore.t array;
  trace : T.t option;
  c : Hdd_obs.Counters.t;
  keep_outcomes : bool;
  mutable outcomes : (Txn.id * bool) list;
  publish_every : int;
  mutable since_pub : int;
  mutable wb_keys : int array;
  mutable wb_vals : int array;
  mutable wb_len : int;
  timed : bool;
  mutable lat : float array;
  mutable lat_n : int;
}

let state ~partition ~stores ~trace ~keep_outcomes ~publish_every ~timed =
  { partition;
    stores;
    trace;
    c = Hdd_obs.Counters.create ();
    keep_outcomes;
    outcomes = [];
    publish_every;
    since_pub = 0;
    wb_keys = Array.make 8 0;
    wb_vals = Array.make 8 0;
    wb_len = 0;
    timed;
    lat = (if timed then Array.make 1024 0. else [||]);
    lat_n = 0 }

let published x =
  x.since_pub <- 0;
  x.c.publications <- x.c.publications + 1

module type SUBSTRATE = sig
  type t

  val name : string
  val tick : t -> Time.t
  val owns : t -> int -> bool
  val escalated : t -> int -> bool
  val open_window : t -> class_id:int -> id:Txn.id -> Time.t
  val close_window : t -> class_id:int -> init:Time.t -> Time.t
  val a_i_old : t Hdd_core.Activity.i_old
  val read_remote : t -> seg:int -> key:int -> th:Time.t -> Time.t
  val wall : t -> TW.wall
  val read_walled : t -> seg:int -> key:int -> th:Time.t -> Time.t
  val install : t -> state -> class_id:int -> ts:Time.t -> unit
  val publish : t -> unit
  val between : t -> unit
end

(* --- zero-allocation commit path helpers ---
   Top-level recursion instead of local closures, int results instead
   of tuples/options, trace events constructed only under [Some tr]:
   the Protocol B commit path allocates nothing at steady state, gated
   by the Gc-delta test over [Engine.alloc_probe] (DESIGN.md §16). *)

let rec wb_find keys len key i =
  if i >= len then -1
  else if Array.unsafe_get keys i = key then i
  else wb_find keys len key (i + 1)

let wb_put x key v =
  let i = wb_find x.wb_keys x.wb_len key 0 in
  if i >= 0 then x.wb_vals.(i) <- v
  else begin
    if x.wb_len = Array.length x.wb_keys then begin
      let cap = Int.max 8 (2 * x.wb_len) in
      let ks = Array.make cap 0 and vs = Array.make cap 0 in
      Array.blit x.wb_keys 0 ks 0 x.wb_len;
      Array.blit x.wb_vals 0 vs 0 x.wb_len;
      x.wb_keys <- ks;
      x.wb_vals <- vs
    end;
    x.wb_keys.(x.wb_len) <- key;
    x.wb_vals.(x.wb_len) <- v;
    x.wb_len <- x.wb_len + 1
  end

let lat_push x v =
  if x.lat_n = Array.length x.lat then begin
    let bigger = Array.make (Int.max 64 (2 * x.lat_n)) 0. in
    Array.blit x.lat 0 bigger 0 x.lat_n;
    x.lat <- bigger
  end;
  x.lat.(x.lat_n) <- v;
  x.lat_n <- x.lat_n + 1

let finish x d ok =
  if x.keep_outcomes then x.outcomes <- (d.d_id, ok) :: x.outcomes

module Make (S : SUBSTRATE) = struct
  let rec update_ops s x d cls init esc ops =
    match ops with
    | [] -> ()
    | op :: rest ->
      (match op with
      | Write (g, v) ->
        if g.Granule.segment <> cls then
          invalid_arg
            (Printf.sprintf "%s: T%d writing outside root segment D%d" S.name
               cls g.Granule.segment);
        wb_put x g.Granule.key v;
        x.c.writes <- x.c.writes + 1;
        (* escalated classes stamp versions at commit, so their Write
           records are deferred to the commit path where the stamp is
           known; plain classes emit the init-stamped record in place *)
        (match x.trace with
        | Some tr when not esc ->
          T.emit tr ~at:(S.tick s)
            (T.Write
               { txn = d.d_id; segment = g.Granule.segment;
                 key = g.Granule.key; ts = init })
        | Some _ | None -> ())
      | Read g ->
        let seg = g.Granule.segment in
        if seg = cls then begin
          (* Protocol B, owner-local: the owner runs class [cls] one
             transaction at a time, so the committed versions below
             [init] are the whole MVTO story — no pending versions to
             block on, no younger readers to reject for.  Own writes of
             this transaction are in the write buffer, not the store, and
             carry ts = init, which a read at [init] excludes anyway. *)
          let vts =
            Pstore.latest_before x.stores.(seg) ~key:g.Granule.key ~ts:init
          in
          x.c.reads_b <- x.c.reads_b + 1;
          match x.trace with
          | Some tr ->
            T.emit tr ~at:(S.tick s)
              (T.Read
                 { txn = d.d_id; protocol = T.B; segment = seg;
                   key = g.Granule.key; threshold = init; version = vts })
          | None -> ()
        end
        else begin
          if not (P.may_read x.partition ~class_id:cls ~segment:seg) then
            invalid_arg
              (Printf.sprintf "%s: T%d may not read D%d" S.name cls seg);
          let th =
            Hdd_core.Activity.compose S.a_i_old s x.partition ~from_class:cls
              ~to_class:seg init
          in
          (* own segments are served from the live local store, always
             complete; remote ones through the substrate *)
          let vts =
            if S.owns s seg then
              Pstore.latest_before x.stores.(seg) ~key:g.Granule.key ~ts:th
            else S.read_remote s ~seg ~key:g.Granule.key ~th
          in
          x.c.reads_a <- x.c.reads_a + 1;
          match x.trace with
          | Some tr ->
            T.emit tr ~at:(S.tick s)
              (T.Read
                 { txn = d.d_id; protocol = T.A; segment = seg;
                   key = g.Granule.key; threshold = th; version = vts })
          | None -> ()
        end);
      update_ops s x d cls init esc rest

  let update s x d cls =
    (* one mode read per transaction: the engine swaps modes only
       between transactions *)
    let esc = S.escalated s cls in
    let t0 = if x.timed then Unix.gettimeofday () else 0. in
    let init = S.open_window s ~class_id:cls ~id:d.d_id in
    (match x.trace with
    | Some tr ->
      T.emit tr ~at:init (T.Begin { txn = d.d_id; kind = T.Update cls; init })
    | None -> ());
    x.wb_len <- 0;
    update_ops s x d cls init esc d.d_ops;
    if d.d_abort then begin
      let a = S.close_window s ~class_id:cls ~init in
      (match x.trace with
      | Some tr -> T.emit tr ~at:a (T.Abort { txn = d.d_id; at = a })
      | None -> ());
      x.c.aborted <- x.c.aborted + 1;
      finish x d false
    end
    else begin
      (* escalated classes serialize by commit order: versions carry a
         fresh commit stamp instead of the initiation.  The class is
         owner-sequential either way, so the next transaction's init
         still lands above this stamp and own Protocol B reads at init
         stay complete; cross readers are safe because any composed
         threshold is at most the init of an active escalated
         transaction, which is below its commit stamp (DESIGN.md §18). *)
      let ts = if esc then S.tick s else init in
      let store = x.stores.(cls) in
      for i = 0 to x.wb_len - 1 do
        Pstore.add_commit store ~key:(Array.unsafe_get x.wb_keys i) ~ts
          ~value:(Array.unsafe_get x.wb_vals i)
      done;
      (* the versions reach other readers before the window closes: any
         reader that can name them can also find them *)
      S.install s x ~class_id:cls ~ts;
      (* deferred Write records: the commit stamp is only known here *)
      (match x.trace with
      | Some tr when esc ->
        for i = 0 to x.wb_len - 1 do
          T.emit tr ~at:(S.tick s)
            (T.Write
               { txn = d.d_id; segment = cls;
                 key = Array.unsafe_get x.wb_keys i; ts })
        done
      | Some _ | None -> ());
      let e = S.close_window s ~class_id:cls ~init in
      (match x.trace with
      | Some tr -> T.emit tr ~at:e (T.Commit { txn = d.d_id; at = e })
      | None -> ());
      x.c.committed <- x.c.committed + 1;
      if x.timed then lat_push x (Unix.gettimeofday () -. t0);
      finish x d true
    end;
    (* batched publication: once per K finished transactions; in between,
       the substrate serves whatever its peers asked for *)
    x.since_pub <- x.since_pub + 1;
    if x.since_pub >= x.publish_every then S.publish s else S.between s

  let rec ro_ops s x d (wall : TW.wall) ops =
    match ops with
    | [] -> ()
    | op :: rest ->
      (match op with
      | Write _ -> invalid_arg (S.name ^ ": read-only transaction writes")
      | Read g ->
        let seg = g.Granule.segment in
        let th = TW.threshold wall ~class_id:seg in
        let vts = S.read_walled s ~seg ~key:g.Granule.key ~th in
        x.c.reads_c <- x.c.reads_c + 1;
        match x.trace with
        | Some tr ->
          T.emit tr ~at:(S.tick s)
            (T.Read
               { txn = d.d_id; protocol = T.C; segment = seg;
                 key = g.Granule.key; threshold = th; version = vts })
        | None -> ());
      ro_ops s x d wall rest

  let read_only s x d =
    (* wall first, initiation tick second: released_at < init, always *)
    let wall = S.wall s in
    let init = S.tick s in
    (match x.trace with
    | Some tr ->
      T.emit tr ~at:init (T.Begin { txn = d.d_id; kind = T.Read_only; init })
    | None -> ());
    ro_ops s x d wall d.d_ops;
    let e = S.tick s in
    (match x.trace with
    | Some tr -> T.emit tr ~at:e (T.Commit { txn = d.d_id; at = e })
    | None -> ());
    x.c.committed <- x.c.committed + 1;
    finish x d true

  let exec s x d =
    match d.d_kind with
    | `Update cls -> update s x d cls
    | `Read_only -> read_only s x d
end

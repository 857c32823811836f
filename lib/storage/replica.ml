module Store = Hdd_mvstore.Store
module Retry = Hdd_sim.Retry
module Prng = Hdd_util.Prng

type t = {
  replay : Replay.t;
  mutable wall : Time.t array;  (** received wall; [||] until a trailer *)
  mutable ships : int;
  mutable records : int;
  mutable stalled : bool;
}

let create ?trace ~segments ~init () =
  { replay = Replay.create ?trace ~segments ~init ();
    wall = [||]; ships = 0; records = 0; stalled = false }

let store t = t.replay.Replay.store
let records t = t.records
let stalled t = t.stalled
let last_time t = t.replay.Replay.last_time
let wall t = t.wall

(* Walls only move forward: a resent batch carries the wall of its first
   send, which may be older than what a later batch already delivered. *)
let merge_wall t components =
  if Array.length t.wall <> Array.length components then
    t.wall <- Array.copy components
  else
    Array.iteri
      (fun i v -> if v > t.wall.(i) then t.wall.(i) <- v)
      components

let receive ?faults t batch =
  t.ships <- t.ships + 1;
  (match faults with
  | Some p -> Fault.cross p (Fault.Ship_apply t.ships)
  | None -> ());
  (match t.replay.Replay.trace with
  | Some tr ->
    Hdd_obs.Trace.emit_here tr
      (Hdd_obs.Trace.Sim { label = "durable.ship"; txn = t.ships })
  | None -> ());
  let len = Bytes.length batch in
  let rec go pos =
    if pos >= len then true
    else
      match Codec.decode batch ~pos with
      | Ok (r, next) ->
        (match r with
        | Codec.Wall { components; _ } -> merge_wall t components
        | r -> Replay.apply t.replay r);
        t.records <- t.records + 1;
        go next
      | Error (`Truncated | `Corrupt) ->
        t.stalled <- true;
        false
  in
  go 0

(* The received wall promises that every commit below it is in the
   shipped prefix — modulo two windows this clamp closes.  A ship
   boundary can cut a transaction in half: it sits in the replay's
   pending table, so the smallest pending init bounds what reads may
   see.  And after a primary crash the clock regresses to the largest
   logged timestamp, so a wall shipped just before the crash can exceed
   every timestamp the log (and hence the replica) will ever justify;
   post-recovery commits then land below it.  Clamping to last_time + 1
   closes that: non-commit frames reach the log in clock order, so any
   commit at or below the replica's last_time is either shipped or has
   shipped Begin/Write frames — and then the pending clamp covers it. *)
let effective_wall t =
  let clamp =
    Stdlib.min
      (Replay.Inflight.min_init t.replay.Replay.pending)
      (t.replay.Replay.last_time + 1)
  in
  Array.map (fun w -> Stdlib.min w clamp) t.wall

let read t g ~ts =
  if Array.length t.wall = 0 then Error `No_wall
  else
    let w = effective_wall t in
    if g.Granule.segment < 0 || g.Granule.segment >= Array.length w then
      invalid_arg "Replica.read: granule segment out of range"
    else if ts > w.(g.Granule.segment) then Error `Too_new
    else
      match Store.committed_before (store t) g ~ts with
      | Some v -> Ok v.Hdd_mvstore.Chain.value
      | None -> Error `Too_new

let staleness t ~primary_wall =
  let w = effective_wall t in
  if Array.length w <> Array.length primary_wall then max_int
  else
    let lag = ref 0 in
    Array.iteri
      (fun i p -> if p - w.(i) > !lag then lag := p - w.(i))
      primary_wall;
    !lag

(* --- the shipping side --- *)

type shipper = {
  log : string;
  replica : t;
  faults : Fault.plan option;
  retry : Retry.policy;
  rng : Prng.t;
  rmon : Retry.monitor;
  mutable shipped : int;  (** absolute log bytes delivered and applied *)
  mutable sends : int;
}

let shipper ?faults ?(retry = Retry.default) ?(rng = Prng.create 0x5319)
    ?(from = 0) ~log replica =
  { log; replica; faults; retry; rng; rmon = Retry.monitor retry;
    shipped = from; sends = 0 }

let shipped s = s.shipped
let sends s = s.sends

let read_slice path ~from ~upto =
  if not (Sys.file_exists path) then Bytes.create 0
  else begin
    let ic = In_channel.open_bin path in
    let len = Int64.to_int (In_channel.length ic) in
    let upto = Stdlib.min upto len in
    let n = Stdlib.max 0 (upto - from) in
    let buf = Bytes.create n in
    if n > 0 then begin
      In_channel.seek ic (Int64.of_int from);
      ignore (In_channel.really_input ic buf 0 n)
    end;
    In_channel.close ic;
    buf
  end

exception Stalled

let ship s ~upto ~wall =
  let slice = read_slice s.log ~from:s.shipped ~upto in
  let upto = s.shipped + Bytes.length slice in
  let trailer =
    Codec.encode
      (Codec.Wall
         { released_at = Array.fold_left Stdlib.max Time.zero wall;
           components = Array.copy wall })
  in
  let batch = Bytes.cat slice trailer in
  let result =
    (* a stall is not transient: the corrupt bytes are on the primary's
       disk and every resend of this slice will stall again *)
    match
      Retry.run s.retry s.rng ~monitor:s.rmon
        ~transient:(function Fault.Io_error _ -> true | _ -> false)
        (fun () ->
          s.sends <- s.sends + 1;
          (match s.faults with
          | Some p -> Fault.cross p (Fault.Ship_send s.sends)
          | None -> ());
          if not (receive ?faults:s.faults s.replica batch) then raise Stalled)
    with
    | r -> r
    | exception Stalled -> Error Stalled
  in
  (match result with Ok () -> s.shipped <- upto | Error _ -> ());
  result

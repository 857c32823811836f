type protocol = A | B | C

type txn_kind =
  | Update of int
  | Read_only
  | Hosted of int
  | Adhoc of { wsegs : int list; rsegs : int list }

type reject_stage = Routing | Barrier | Rule

type event =
  | Begin of { txn : int; kind : txn_kind; init : int }
  | Read of {
      txn : int;
      protocol : protocol;
      segment : int;
      key : int;
      threshold : int;
      version : int;
    }
  | Block of {
      txn : int;
      protocol : protocol;
      segment : int;
      key : int;
      on : int list;
    }
  | Reject of {
      txn : int;
      protocol : protocol option;
      stage : reject_stage;
      segment : int;
      reason : string;
    }
  | Write of { txn : int; segment : int; key : int; ts : int }
  | Commit of { txn : int; at : int }
  | Abort of { txn : int; at : int }
  | Wall_release of { m : int; released_at : int; components : int array }
  | Wall_blocked of { on : int }
  | Gc of { watermark : int; vector : int array; dropped : int }
  | Seg_gc of { segment : int; dropped : int }
  | Registry_prune of {
      upto : int;
      records_dropped : int;
      windows_dropped : int;
    }
  | Sim of { label : string; txn : int }
  | Note of string
  | Durable_ack of { txn : int; at : int }
  | Durable_recovered of { txn : int; at : int }
  | Recovery_complete of { last_time : int }
  | Checkpoint_cut of { seq : int; components : int array }
  | Repartition of {
      epoch : int;
      kind : string;
      moved : int list;
      fresh_store : bool;
    }
  | Escalation of { seq : int; modes : int list }

type record = { seq : int; at : int; dom : int; ev : event }

(* The ring holds plain ints, not records: a boxed record retained in a
   big ring survives every minor collection and gets promoted, which at
   emission rates of millions/sec turns the flight recorder into a major
   heap churn (measured ~6x the whole emission cost).  Hot events (begin,
   read, write, commit, abort and the other fixed-arity ones) flatten
   into [width] int slots; the rare variable-payload events (ad-hoc
   begins, blocks, rejects, walls, collections, labels) keep their boxed
   form in a side array, written only when they occur. *)
let width = 8

let dummy_ev = Note ""

type t = {
  mutable on : bool;
  domain : int;  (** stamped into every decoded record *)
  capacity : int;
  data : int array;  (** capacity * width: tag, at, payload... *)
  boxed : event array;  (** only read when the slot's tag says so *)
  mutable head : int;  (** next slot *)
  mutable emitted : int;  (** total, evicted included *)
  mutable last_at : int;
  mutable subs : (record -> unit) array;  (** subscription order *)
}

let create ?(capacity = 65536) ?(domain = 0) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be > 0";
  { on = true;
    domain;
    capacity;
    data = Array.make (capacity * width) 0;
    boxed = Array.make capacity dummy_ev;
    head = 0;
    emitted = 0;
    last_at = 0;
    subs = [||] }

let enabled t = t.on
let enable t = t.on <- true
let disable t = t.on <- false
let domain t = t.domain

let proto_int = function A -> 0 | B -> 1 | C -> 2
let int_proto = function 0 -> A | 1 -> B | _ -> C

(* slot tags; [tag_boxed] defers to [boxed.(i)] *)
let tag_begin = 0
and tag_read = 1
and tag_write = 2
and tag_commit = 3
and tag_abort = 4
and tag_wall_blocked = 5
and tag_seg_gc = 6
and tag_prune = 7
and tag_boxed = 8

let emit t ~at ev =
  if t.on then begin
    let i = t.head in
    let b = i * width in
    let d = t.data in
    (* unsafe: [i < capacity] by construction, so [b + o < capacity *
       width] for every [o < width] — the bounds checks are dead weight
       on the hottest path in the library *)
    let set o v = Array.unsafe_set d (b + o) v in
    set 1 at;
    (match ev with
    | Read { txn; protocol; segment; key; threshold; version } ->
      set 0 tag_read;
      set 2 txn;
      set 3 (proto_int protocol);
      set 4 segment;
      set 5 key;
      set 6 threshold;
      set 7 version
    | Write { txn; segment; key; ts } ->
      set 0 tag_write;
      set 2 txn;
      set 3 segment;
      set 4 key;
      set 5 ts
    | Commit { txn; at = fin } ->
      set 0 tag_commit;
      set 2 txn;
      set 3 fin
    | Abort { txn; at = fin } ->
      set 0 tag_abort;
      set 2 txn;
      set 3 fin
    | Begin { txn; kind = Update c; init } ->
      set 0 tag_begin;
      set 2 txn;
      set 3 0;
      set 4 c;
      set 5 init
    | Begin { txn; kind = Read_only; init } ->
      set 0 tag_begin;
      set 2 txn;
      set 3 1;
      set 4 0;
      set 5 init
    | Begin { txn; kind = Hosted below; init } ->
      set 0 tag_begin;
      set 2 txn;
      set 3 2;
      set 4 below;
      set 5 init
    | Wall_blocked { on } ->
      set 0 tag_wall_blocked;
      set 2 on
    | Seg_gc { segment; dropped } ->
      set 0 tag_seg_gc;
      set 2 segment;
      set 3 dropped
    | Registry_prune { upto; records_dropped; windows_dropped } ->
      set 0 tag_prune;
      set 2 upto;
      set 3 records_dropped;
      set 4 windows_dropped
    | Begin _ | Block _ | Reject _ | Wall_release _ | Gc _ | Sim _ | Note _
    | Durable_ack _ | Durable_recovered _ | Recovery_complete _
    | Checkpoint_cut _ | Repartition _ | Escalation _ ->
      (* durability events are per-batch or per-recovery, not per-op:
         boxing them is off the hot path *)
      set 0 tag_boxed;
      Array.unsafe_set t.boxed i ev);
    t.head <- (if i + 1 = t.capacity then 0 else i + 1);
    t.emitted <- t.emitted + 1;
    t.last_at <- at;
    let subs = t.subs in
    if Array.length subs > 0 then begin
      let r = { seq = t.emitted - 1; at; dom = t.domain; ev } in
      Array.iter (fun f -> f r) subs
    end
  end

let emit_here t ev = emit t ~at:t.last_at ev

let subscribe t f = t.subs <- Array.append t.subs [| f |]

let decode t i ~seq =
  let b = i * width in
  let d = t.data in
  let at = d.(b + 1) in
  let ev =
    match d.(b) with
    | 0 (* tag_begin *) ->
      Begin
        { txn = d.(b + 2);
          kind =
            (match d.(b + 3) with
            | 0 -> Update d.(b + 4)
            | 1 -> Read_only
            | _ -> Hosted d.(b + 4));
          init = d.(b + 5) }
    | 1 (* tag_read *) ->
      Read
        { txn = d.(b + 2);
          protocol = int_proto d.(b + 3);
          segment = d.(b + 4);
          key = d.(b + 5);
          threshold = d.(b + 6);
          version = d.(b + 7) }
    | 2 (* tag_write *) ->
      Write
        { txn = d.(b + 2); segment = d.(b + 3); key = d.(b + 4);
          ts = d.(b + 5) }
    | 3 (* tag_commit *) -> Commit { txn = d.(b + 2); at = d.(b + 3) }
    | 4 (* tag_abort *) -> Abort { txn = d.(b + 2); at = d.(b + 3) }
    | 5 (* tag_wall_blocked *) -> Wall_blocked { on = d.(b + 2) }
    | 6 (* tag_seg_gc *) ->
      Seg_gc { segment = d.(b + 2); dropped = d.(b + 3) }
    | 7 (* tag_prune *) ->
      Registry_prune
        { upto = d.(b + 2);
          records_dropped = d.(b + 3);
          windows_dropped = d.(b + 4) }
    | _ -> t.boxed.(i)
  in
  { seq; at; dom = t.domain; ev }

let records t =
  let kept = Int.min t.emitted t.capacity in
  List.init kept (fun k ->
      let seq = t.emitted - kept + k in
      decode t (seq mod t.capacity) ~seq)

let merge rls =
  List.sort
    (fun a b ->
      match compare a.at b.at with
      | 0 -> ( match compare a.dom b.dom with 0 -> compare a.seq b.seq | c -> c)
      | c -> c)
    (List.concat rls)

let merged ts = merge (List.map records ts)

let emitted t = t.emitted
let dropped t = Int.max 0 (t.emitted - t.capacity)

let clear t =
  t.head <- 0;
  t.emitted <- 0;
  t.last_at <- 0;
  Array.fill t.data 0 (t.capacity * width) 0;
  Array.fill t.boxed 0 t.capacity dummy_ev

(* --- rendering --- *)

let protocol_name = function A -> "A" | B -> "B" | C -> "C"

let ints l = String.concat "," (List.map string_of_int l)

let kind_to_string = function
  | Update i -> Printf.sprintf "update(%d)" i
  | Read_only -> "read_only"
  | Hosted b -> Printf.sprintf "hosted(%d)" b
  | Adhoc { wsegs; rsegs } ->
    Printf.sprintf "adhoc(w=%s;r=%s)" (ints wsegs) (ints rsegs)

let stage_name = function
  | Routing -> "routing"
  | Barrier -> "barrier"
  | Rule -> "rule"

let event_to_string = function
  | Begin { txn; kind; init } ->
    Printf.sprintf "begin txn=%d kind=%s init=%d" txn (kind_to_string kind)
      init
  | Read { txn; protocol; segment; key; threshold; version } ->
    Printf.sprintf "read txn=%d proto=%s seg=%d key=%d th=%d ver=%d" txn
      (protocol_name protocol) segment key threshold version
  | Block { txn; protocol; segment; key; on } ->
    Printf.sprintf "block txn=%d proto=%s seg=%d key=%d on=%s" txn
      (protocol_name protocol) segment key (ints on)
  | Reject { txn; protocol; stage; segment; reason } ->
    Printf.sprintf "reject txn=%d proto=%s stage=%s seg=%d reason=%S" txn
      (match protocol with Some p -> protocol_name p | None -> "-")
      (stage_name stage) segment reason
  | Write { txn; segment; key; ts } ->
    Printf.sprintf "write txn=%d seg=%d key=%d ts=%d" txn segment key ts
  | Commit { txn; at } -> Printf.sprintf "commit txn=%d at=%d" txn at
  | Abort { txn; at } -> Printf.sprintf "abort txn=%d at=%d" txn at
  | Wall_release { m; released_at; components } ->
    Printf.sprintf "wall m=%d released=%d components=[%s]" m released_at
      (ints (Array.to_list components))
  | Wall_blocked { on } -> Printf.sprintf "wall_blocked on=%d" on
  | Gc { watermark; vector; dropped } ->
    Printf.sprintf "gc watermark=%d vector=[%s] dropped=%d" watermark
      (ints (Array.to_list vector))
      dropped
  | Seg_gc { segment; dropped } ->
    Printf.sprintf "seg_gc seg=%d dropped=%d" segment dropped
  | Registry_prune { upto; records_dropped; windows_dropped } ->
    Printf.sprintf "registry_prune upto=%d records=%d windows=%d" upto
      records_dropped windows_dropped
  | Sim { label; txn } -> Printf.sprintf "sim %s txn=%d" label txn
  | Note s -> Printf.sprintf "note %S" s
  | Durable_ack { txn; at } -> Printf.sprintf "durable_ack txn=%d at=%d" txn at
  | Durable_recovered { txn; at } ->
    Printf.sprintf "durable_recovered txn=%d at=%d" txn at
  | Recovery_complete { last_time } ->
    Printf.sprintf "recovery_complete last_time=%d" last_time
  | Checkpoint_cut { seq; components } ->
    Printf.sprintf "checkpoint_cut seq=%d wall=[%s]" seq
      (ints (Array.to_list components))
  | Repartition { epoch; kind; moved; fresh_store } ->
    Printf.sprintf "repartition epoch=%d kind=%s moved=[%s] fresh_store=%b"
      epoch kind (ints moved) fresh_store
  | Escalation { seq; modes } ->
    Printf.sprintf "escalation seq=%d modes=[%s]" seq (ints modes)

let pp_event ppf ev = Format.pp_print_string ppf (event_to_string ev)

let pp_record ppf r =
  Format.fprintf ppf "%d @%d %s" r.seq r.at (event_to_string r.ev)

let text_of_records rs =
  let b = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%d @%d %s\n" r.seq r.at (event_to_string r.ev)))
    rs;
  Buffer.contents b

let to_text t = text_of_records (records t)

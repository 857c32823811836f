module B = Hdd_util.Binc
module T = Hdd_obs.Trace
module TW = Hdd_core.Timewall
module E = Hdd_runtime.Engine

type activity = Live of Registry.t | Frozen of Registry.snapshot

type pub = {
  p_shard : int;
  p_seq : int;
  p_upto : Time.t;
  p_marks : int array;
  p_act : activity;
}

type delta = {
  dl_shard : int;
  dl_segment : int;
  dl_versions : (int * Time.t * int) list;
}

type counters = {
  k_committed : int;
  k_aborted : int;
  k_reads_a : int;
  k_reads_b : int;
  k_reads_c : int;
  k_writes : int;
  k_stale_waits : int;
  k_wall_releases : int;
  k_wall_lag_sum : int;
  k_wall_lag_max : int;
}

type msg =
  | Pub of pub
  | Delta of delta
  | Wall of TW.wall
  | Read_req of { req : int; segment : int; key : int; threshold : Time.t }
  | Read_reply of { req : int; slice : (Time.t * int) list }
  | Lock_req of { req : int; segment : int }
  | Lock_reply of { req : int; granted : bool }
  | Unlock of { segment : int }
  | Exec of E.desc
  | Drain
  | Outcome of {
      shard : int;
      outcomes : (Txn.id * bool) list;
      counters : counters;
    }
  | Trace_slice of { shard : int; records : T.record list }
  | Bye of { shard : int }

type packet = { src : int; dst : int; stamp : Time.t; msg : msg }

(* --- writing --- *)

let w_activity b = function
  | Live reg -> Registry.write b reg
  | Frozen snap -> Registry.write_snapshot b snap

let w_wall b (w : TW.wall) =
  B.w_int b w.TW.s;
  B.w_int b w.TW.m;
  B.w_array b B.w_int w.TW.components;
  B.w_int b w.TW.released_at

let w_op b = function
  | E.Read g ->
    B.w_int b 0;
    B.w_int b g.Granule.segment;
    B.w_int b g.Granule.key
  | E.Write (g, v) ->
    B.w_int b 1;
    B.w_int b g.Granule.segment;
    B.w_int b g.Granule.key;
    B.w_int b v

let w_desc b (d : E.desc) =
  B.w_int b d.E.d_id;
  (match d.E.d_kind with
  | `Update c ->
    B.w_int b 0;
    B.w_int b c
  | `Read_only -> B.w_int b 1);
  B.w_list b w_op d.E.d_ops;
  B.w_bool b d.E.d_abort

let proto_int = function T.A -> 0 | T.B -> 1 | T.C -> 2
let stage_int = function T.Routing -> 0 | T.Barrier -> 1 | T.Rule -> 2

let w_kind b = function
  | T.Update c ->
    B.w_int b 0;
    B.w_int b c
  | T.Read_only -> B.w_int b 1
  | T.Hosted below ->
    B.w_int b 2;
    B.w_int b below
  | T.Adhoc { wsegs; rsegs } ->
    B.w_int b 3;
    B.w_list b B.w_int wsegs;
    B.w_list b B.w_int rsegs

let w_event b = function
  | T.Begin { txn; kind; init } ->
    B.w_int b 0;
    B.w_int b txn;
    w_kind b kind;
    B.w_int b init
  | T.Read { txn; protocol; segment; key; threshold; version } ->
    B.w_int b 1;
    B.w_int b txn;
    B.w_int b (proto_int protocol);
    B.w_int b segment;
    B.w_int b key;
    B.w_int b threshold;
    B.w_int b version
  | T.Block { txn; protocol; segment; key; on } ->
    B.w_int b 2;
    B.w_int b txn;
    B.w_int b (proto_int protocol);
    B.w_int b segment;
    B.w_int b key;
    B.w_list b B.w_int on
  | T.Reject { txn; protocol; stage; segment; reason } ->
    B.w_int b 3;
    B.w_int b txn;
    B.w_option b (fun b p -> B.w_int b (proto_int p)) protocol;
    B.w_int b (stage_int stage);
    B.w_int b segment;
    B.w_string b reason
  | T.Write { txn; segment; key; ts } ->
    B.w_int b 4;
    B.w_int b txn;
    B.w_int b segment;
    B.w_int b key;
    B.w_int b ts
  | T.Commit { txn; at } ->
    B.w_int b 5;
    B.w_int b txn;
    B.w_int b at
  | T.Abort { txn; at } ->
    B.w_int b 6;
    B.w_int b txn;
    B.w_int b at
  | T.Wall_release { m; released_at; components } ->
    B.w_int b 7;
    B.w_int b m;
    B.w_int b released_at;
    B.w_array b B.w_int components
  | T.Wall_blocked { on } ->
    B.w_int b 8;
    B.w_int b on
  | T.Gc { watermark; vector; dropped } ->
    B.w_int b 9;
    B.w_int b watermark;
    B.w_array b B.w_int vector;
    B.w_int b dropped
  | T.Seg_gc { segment; dropped } ->
    B.w_int b 10;
    B.w_int b segment;
    B.w_int b dropped
  | T.Registry_prune { upto; records_dropped; windows_dropped } ->
    B.w_int b 11;
    B.w_int b upto;
    B.w_int b records_dropped;
    B.w_int b windows_dropped
  | T.Sim { label; txn } ->
    B.w_int b 12;
    B.w_string b label;
    B.w_int b txn
  | T.Note s ->
    B.w_int b 13;
    B.w_string b s
  | T.Durable_ack { txn; at } ->
    B.w_int b 14;
    B.w_int b txn;
    B.w_int b at
  | T.Durable_recovered { txn; at } ->
    B.w_int b 15;
    B.w_int b txn;
    B.w_int b at
  | T.Recovery_complete { last_time } ->
    B.w_int b 16;
    B.w_int b last_time
  | T.Checkpoint_cut { seq; components } ->
    B.w_int b 17;
    B.w_int b seq;
    B.w_array b B.w_int components
  | T.Repartition { epoch; kind; moved; fresh_store } ->
    B.w_int b 18;
    B.w_int b epoch;
    B.w_string b kind;
    B.w_list b B.w_int moved;
    B.w_int b (if fresh_store then 1 else 0)
  | T.Escalation { seq; modes } ->
    B.w_int b 19;
    B.w_int b seq;
    B.w_list b B.w_int modes

let w_record b (r : T.record) =
  B.w_int b r.T.seq;
  B.w_int b r.T.at;
  B.w_int b r.T.dom;
  w_event b r.T.ev

let w_counters b k =
  B.w_int b k.k_committed;
  B.w_int b k.k_aborted;
  B.w_int b k.k_reads_a;
  B.w_int b k.k_reads_b;
  B.w_int b k.k_reads_c;
  B.w_int b k.k_writes;
  B.w_int b k.k_stale_waits;
  B.w_int b k.k_wall_releases;
  B.w_int b k.k_wall_lag_sum;
  B.w_int b k.k_wall_lag_max

let w_msg b = function
  | Pub p ->
    B.w_int b 0;
    B.w_int b p.p_shard;
    B.w_int b p.p_seq;
    B.w_int b p.p_upto;
    B.w_array b B.w_int p.p_marks;
    w_activity b p.p_act
  | Delta d ->
    B.w_int b 1;
    B.w_int b d.dl_shard;
    B.w_int b d.dl_segment;
    B.w_list b
      (fun b (key, ts, v) ->
        B.w_int b key;
        B.w_int b ts;
        B.w_int b v)
      d.dl_versions
  | Wall w ->
    B.w_int b 2;
    w_wall b w
  | Read_req { req; segment; key; threshold } ->
    B.w_int b 3;
    B.w_int b req;
    B.w_int b segment;
    B.w_int b key;
    B.w_int b threshold
  | Read_reply { req; slice } ->
    B.w_int b 4;
    B.w_int b req;
    B.w_list b
      (fun b (ts, v) ->
        B.w_int b ts;
        B.w_int b v)
      slice
  | Lock_req { req; segment } ->
    B.w_int b 5;
    B.w_int b req;
    B.w_int b segment
  | Lock_reply { req; granted } ->
    B.w_int b 6;
    B.w_int b req;
    B.w_bool b granted
  | Unlock { segment } ->
    B.w_int b 7;
    B.w_int b segment
  | Exec d ->
    B.w_int b 8;
    w_desc b d
  | Drain -> B.w_int b 9
  | Outcome { shard; outcomes; counters } ->
    B.w_int b 10;
    B.w_int b shard;
    B.w_list b
      (fun b (id, c) ->
        B.w_int b id;
        B.w_bool b c)
      outcomes;
    w_counters b counters
  | Trace_slice { shard; records } ->
    B.w_int b 11;
    B.w_int b shard;
    B.w_list b w_record records
  | Bye { shard } ->
    B.w_int b 12;
    B.w_int b shard

let write_packet b pkt =
  B.w_int b pkt.src;
  B.w_int b pkt.dst;
  B.w_int b pkt.stamp;
  w_msg b pkt.msg

let encode pkt =
  let b = B.writer () in
  write_packet b pkt;
  B.frame b

let encode_into b pkt =
  B.reset b;
  write_packet b pkt;
  B.seal b

(* --- reading --- *)

let bad what n = raise (B.Error (Printf.sprintf "bad %s tag %d" what n))

let r_wall r =
  let s = B.r_int r in
  let m = B.r_int r in
  let components = B.r_array r B.r_int in
  let released_at = B.r_int r in
  TW.make ~s ~m ~components ~released_at

let r_op r =
  match B.r_int r with
  | 0 ->
    let segment = B.r_int r in
    let key = B.r_int r in
    E.Read (Granule.make ~segment ~key)
  | 1 ->
    let segment = B.r_int r in
    let key = B.r_int r in
    let v = B.r_int r in
    E.Write (Granule.make ~segment ~key, v)
  | n -> bad "op" n

let r_desc r =
  let d_id = B.r_int r in
  let d_kind =
    match B.r_int r with
    | 0 -> `Update (B.r_int r)
    | 1 -> `Read_only
    | n -> bad "kind" n
  in
  let d_ops = B.r_list r r_op in
  let d_abort = B.r_bool r in
  { E.d_id; d_kind; d_ops; d_abort }

let int_proto r =
  match B.r_int r with
  | 0 -> T.A
  | 1 -> T.B
  | 2 -> T.C
  | n -> bad "protocol" n

let int_stage r =
  match B.r_int r with
  | 0 -> T.Routing
  | 1 -> T.Barrier
  | 2 -> T.Rule
  | n -> bad "stage" n

let r_kind r =
  match B.r_int r with
  | 0 -> T.Update (B.r_int r)
  | 1 -> T.Read_only
  | 2 -> T.Hosted (B.r_int r)
  | 3 ->
    let wsegs = B.r_list r B.r_int in
    let rsegs = B.r_list r B.r_int in
    T.Adhoc { wsegs; rsegs }
  | n -> bad "txn kind" n

let r_event r =
  match B.r_int r with
  | 0 ->
    let txn = B.r_int r in
    let kind = r_kind r in
    let init = B.r_int r in
    T.Begin { txn; kind; init }
  | 1 ->
    let txn = B.r_int r in
    let protocol = int_proto r in
    let segment = B.r_int r in
    let key = B.r_int r in
    let threshold = B.r_int r in
    let version = B.r_int r in
    T.Read { txn; protocol; segment; key; threshold; version }
  | 2 ->
    let txn = B.r_int r in
    let protocol = int_proto r in
    let segment = B.r_int r in
    let key = B.r_int r in
    let on = B.r_list r B.r_int in
    T.Block { txn; protocol; segment; key; on }
  | 3 ->
    let txn = B.r_int r in
    let protocol = B.r_option r int_proto in
    let stage = int_stage r in
    let segment = B.r_int r in
    let reason = B.r_string r in
    T.Reject { txn; protocol; stage; segment; reason }
  | 4 ->
    let txn = B.r_int r in
    let segment = B.r_int r in
    let key = B.r_int r in
    let ts = B.r_int r in
    T.Write { txn; segment; key; ts }
  | 5 ->
    let txn = B.r_int r in
    let at = B.r_int r in
    T.Commit { txn; at }
  | 6 ->
    let txn = B.r_int r in
    let at = B.r_int r in
    T.Abort { txn; at }
  | 7 ->
    let m = B.r_int r in
    let released_at = B.r_int r in
    let components = B.r_array r B.r_int in
    T.Wall_release { m; released_at; components }
  | 8 -> T.Wall_blocked { on = B.r_int r }
  | 9 ->
    let watermark = B.r_int r in
    let vector = B.r_array r B.r_int in
    let dropped = B.r_int r in
    T.Gc { watermark; vector; dropped }
  | 10 ->
    let segment = B.r_int r in
    let dropped = B.r_int r in
    T.Seg_gc { segment; dropped }
  | 11 ->
    let upto = B.r_int r in
    let records_dropped = B.r_int r in
    let windows_dropped = B.r_int r in
    T.Registry_prune { upto; records_dropped; windows_dropped }
  | 12 ->
    let label = B.r_string r in
    let txn = B.r_int r in
    T.Sim { label; txn }
  | 13 -> T.Note (B.r_string r)
  | 14 ->
    let txn = B.r_int r in
    let at = B.r_int r in
    T.Durable_ack { txn; at }
  | 15 ->
    let txn = B.r_int r in
    let at = B.r_int r in
    T.Durable_recovered { txn; at }
  | 16 -> T.Recovery_complete { last_time = B.r_int r }
  | 17 ->
    let seq = B.r_int r in
    let components = B.r_array r B.r_int in
    T.Checkpoint_cut { seq; components }
  | 18 ->
    let epoch = B.r_int r in
    let kind = B.r_string r in
    let moved = B.r_list r B.r_int in
    let fresh_store = B.r_int r <> 0 in
    T.Repartition { epoch; kind; moved; fresh_store }
  | 19 ->
    let seq = B.r_int r in
    let modes = B.r_list r B.r_int in
    T.Escalation { seq; modes }
  | n -> bad "event" n

let r_record r =
  let seq = B.r_int r in
  let at = B.r_int r in
  let dom = B.r_int r in
  let ev = r_event r in
  { T.seq; at; dom; ev }

let r_counters r =
  let k_committed = B.r_int r in
  let k_aborted = B.r_int r in
  let k_reads_a = B.r_int r in
  let k_reads_b = B.r_int r in
  let k_reads_c = B.r_int r in
  let k_writes = B.r_int r in
  let k_stale_waits = B.r_int r in
  let k_wall_releases = B.r_int r in
  let k_wall_lag_sum = B.r_int r in
  let k_wall_lag_max = B.r_int r in
  { k_committed; k_aborted; k_reads_a; k_reads_b; k_reads_c; k_writes;
    k_stale_waits; k_wall_releases; k_wall_lag_sum; k_wall_lag_max }

let r_msg r =
  match B.r_int r with
  | 0 ->
    let p_shard = B.r_int r in
    let p_seq = B.r_int r in
    let p_upto = B.r_int r in
    let p_marks = B.r_array r B.r_int in
    let p_act = Frozen (Registry.read r) in
    Pub { p_shard; p_seq; p_upto; p_marks; p_act }
  | 1 ->
    let dl_shard = B.r_int r in
    let dl_segment = B.r_int r in
    let dl_versions =
      B.r_list r (fun r ->
          let key = B.r_int r in
          let ts = B.r_int r in
          let v = B.r_int r in
          (key, ts, v))
    in
    Delta { dl_shard; dl_segment; dl_versions }
  | 2 -> Wall (r_wall r)
  | 3 ->
    let req = B.r_int r in
    let segment = B.r_int r in
    let key = B.r_int r in
    let threshold = B.r_int r in
    Read_req { req; segment; key; threshold }
  | 4 ->
    let req = B.r_int r in
    let slice =
      B.r_list r (fun r ->
          let ts = B.r_int r in
          let v = B.r_int r in
          (ts, v))
    in
    Read_reply { req; slice }
  | 5 ->
    let req = B.r_int r in
    let segment = B.r_int r in
    Lock_req { req; segment }
  | 6 ->
    let req = B.r_int r in
    let granted = B.r_bool r in
    Lock_reply { req; granted }
  | 7 -> Unlock { segment = B.r_int r }
  | 8 -> Exec (r_desc r)
  | 9 -> Drain
  | 10 ->
    let shard = B.r_int r in
    let outcomes =
      B.r_list r (fun r ->
          let id = B.r_int r in
          let c = B.r_bool r in
          (id, c))
    in
    let counters = r_counters r in
    Outcome { shard; outcomes; counters }
  | 11 ->
    let shard = B.r_int r in
    let records = B.r_list r r_record in
    Trace_slice { shard; records }
  | 12 -> Bye { shard = B.r_int r }
  | n -> bad "msg" n

let read_packet r =
  let src = B.r_int r in
  let dst = B.r_int r in
  let stamp = B.r_int r in
  let msg = r_msg r in
  { src; dst; stamp; msg }

let decode buf ~pos = B.decode buf ~pos ~f:read_packet

(* [src] and [dst] open the payload *)
let read_dst r =
  ignore (B.r_int r);
  B.r_int r

let dst_of buf ~pos = Result.map fst (B.peek buf ~pos ~f:read_dst)

(* --- equality (tests) --- *)

let activity_bytes a =
  let b = B.writer () in
  w_activity b a;
  B.frame b

let equal_msg a b =
  match (a, b) with
  | Pub p, Pub q ->
    p.p_shard = q.p_shard && p.p_seq = q.p_seq && p.p_upto = q.p_upto
    && p.p_marks = q.p_marks
    && Bytes.equal (activity_bytes p.p_act) (activity_bytes q.p_act)
  | Wall v, Wall w ->
    v.TW.s = w.TW.s && v.TW.m = w.TW.m
    && TW.to_vector v = TW.to_vector w
    && v.TW.released_at = w.TW.released_at
  | a, b -> a = b

let equal a b =
  a.src = b.src && a.dst = b.dst && a.stamp = b.stamp
  && equal_msg a.msg b.msg

(* Shared test fixtures. *)

module Spec = Hdd_core.Spec
module Partition = Hdd_core.Partition

(* the paper's inventory decomposition: D0 reorders, D1 inventory, D2 events *)
let inventory_spec =
  Spec.make
    ~segments:[ "reorders"; "inventory"; "events" ]
    ~types:
      [ Spec.txn_type ~name:"type1" ~writes:[ 2 ] ~reads:[];
        Spec.txn_type ~name:"type2" ~writes:[ 1 ] ~reads:[ 1; 2 ];
        Spec.txn_type ~name:"type3" ~writes:[ 0 ] ~reads:[ 0; 1; 2 ] ]

let inventory = Partition.build_exn inventory_spec

(* --- seeded stress-suite knobs ---

   Every engine-level stress suite reads its seed count from an
   environment variable (in-tree default 30, the nightly raises it into
   the hundreds) and scales worker/shard counts and workload profiles
   off the seed the same way; one copy of that arithmetic lives here. *)

let seeds_from_env ?(default = 30) var =
  match Sys.getenv_opt var with
  | Some s -> ( try max 1 (int_of_string (String.trim s)) with _ -> default)
  | None -> default

let scaled_workers seed = [| 2; 4; 8 |].(seed mod 3)

let stress_profile seed =
  [| Hdd_runtime.Differential.Abort_heavy;
     Hdd_runtime.Differential.Adhoc_read;
     Hdd_runtime.Differential.Mixed |].(seed / 3 mod 3)

(* --- the shard cluster under the oracle ---

   The cluster's three modes run the same node code; a test picks one
   ([`Det] by default, where [seed] shapes the interleaving and a
   [fault] plan scripts the publication traffic) and asks the engine's
   adapter to the oracle about the merged run. *)

let cluster_run ?(mode = `Det) ?fault ~partition ~init ~shards ~seed script =
  let module C = Hdd_shard.Cluster in
  match mode with
  | `Det -> C.run_script_det ?fault ~partition ~init ~shards ~seed ~script ()
  | `Domains -> C.run_script_domains ~partition ~init ~shards ~script ()
  | `Processes -> C.run_script_processes ~partition ~init ~shards ~script ()

let shard_check ?mode ?fault ~partition ~init ~shards ~seed script =
  Hdd_runtime.Differential.check_run ~partition ~init ~script
    (cluster_run ?mode ?fault ~partition ~init ~shards ~seed script)

(* The sharded twin of [Differential.stress_one]: the same stress case,
   executed on [shards] nodes instead of worker domains. *)
let shard_stress ?mode ~seed ~shards ~txns ~profile () =
  let module D = Hdd_runtime.Differential in
  let partition, script = D.stress_case ~seed ~txns ~profile in
  shard_check ?mode ~partition ~init:D.default_init ~shards ~seed script

(* The explorer's Figure 1 / Figures 3-4 / wall scenarios as descriptor
   scripts, classes ordered so each class's root segment is its own
   index.  At two shards each scenario crosses the wire: Protocol A
   reads compose thresholds from remote snapshots and Protocol C reads
   wait out remote walls.  [records] (2 shards, seed 7) is what the
   golden files under [golden/shard_*.trace] freeze. *)
module Shard_golden = struct
  module E = Hdd_runtime.Engine

  type t = {
    g_name : string;
    g_partition : Partition.t;
    g_init : Granule.t -> int;
    g_script : E.desc array;
  }

  let g ~segment ~key = Granule.make ~segment ~key

  let u id cls ops =
    { E.d_id = id; d_kind = `Update cls; d_ops = ops; d_abort = false }

  let ro id ops =
    { E.d_id = id; d_kind = `Read_only; d_ops = ops; d_abort = false }

  (* Figure 1: two tellers read-modify-write one account; an auditor on
     the other shard reads it through the wall. *)
  let fig1 =
    let acct = g ~segment:0 ~key:0 in
    { g_name = "fig1";
      g_partition =
        Partition.build_exn
          (Spec.make ~segments:[ "accounts" ]
             ~types:
               [ Spec.txn_type ~name:"teller" ~writes:[ 0 ] ~reads:[ 0 ] ]);
      g_init = (fun _ -> 100);
      g_script =
        [| u 1 0 [ E.Read acct; E.Write (acct, 110) ];
           u 2 0 [ E.Read acct; E.Write (acct, 120) ];
           ro 3 [ E.Read acct ] |] }

  (* Figures 3/4 inventory pipeline: type "reorder" writes D0 reading
     the whole chain, "post" writes D1 reading D1-D2, "insert" writes
     D2.  At two shards the post class lands on shard 1 and its D2 read
     crosses the wire (Protocol A), while the audit walks all three
     segments off the walls (Protocol C). *)
  let fig34 =
    let reorder = g ~segment:0 ~key:0
    and level = g ~segment:1 ~key:0
    and event = g ~segment:2 ~key:0 in
    { g_name = "fig34";
      g_partition =
        Partition.build_exn
          (Spec.make
             ~segments:[ "reorders"; "inventory"; "events" ]
             ~types:
               [ Spec.txn_type ~name:"reorder" ~writes:[ 0 ]
                   ~reads:[ 0; 1; 2 ];
                 Spec.txn_type ~name:"post" ~writes:[ 1 ] ~reads:[ 1; 2 ];
                 Spec.txn_type ~name:"insert" ~writes:[ 2 ] ~reads:[ 2 ] ]);
      g_init = (fun _ -> 0);
      g_script =
        [| u 1 2 [ E.Write (event, 1) ];
           u 2 1 [ E.Read event; E.Read level; E.Write (level, 1) ];
           u 3 0 [ E.Read event; E.Read level; E.Write (reorder, 1) ];
           ro 4 [ E.Read reorder; E.Read level; E.Read event ] |] }

  (* The two-segment chain with a spanning read-only transaction.  Class
     1 lives on shard 1, so the low class's up-chain read and the
     audit's walled reads both compose thresholds from a remote
     snapshot. *)
  let wall =
    let a = g ~segment:1 ~key:0 and b = g ~segment:0 ~key:0 in
    { g_name = "wall";
      g_partition =
        Partition.build_exn
          (Spec.make ~segments:[ "lower"; "upper" ]
             ~types:
               [ Spec.txn_type ~name:"low" ~writes:[ 0 ] ~reads:[ 0; 1 ];
                 Spec.txn_type ~name:"high" ~writes:[ 1 ] ~reads:[ 1 ] ]);
      g_init = (fun _ -> 0);
      g_script =
        [| u 1 1 [ E.Write (a, 7) ];
           u 2 0 [ E.Read a; E.Write (b, 8) ];
           ro 3 [ E.Read a; E.Read b ] |] }

  let all = [ fig1; fig34; wall ]

  let records ?(shards = 2) ?(seed = 7) gl =
    (cluster_run ~partition:gl.g_partition ~init:gl.g_init ~shards ~seed
       gl.g_script)
      .E.records

  let check ?(shards = 2) ?(seed = 7) gl =
    shard_check ~partition:gl.g_partition ~init:gl.g_init ~shards ~seed
      gl.g_script
end

(* --- runs that must not hang --- *)

(* Run [f] in a domain of its own and wait at most [seconds] for it, so
   a run that hangs fails its test instead of stalling the suite.  A
   hung domain is left behind; the process exit ends it. *)
let within ~seconds f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result
          (Some (match f () with v -> Ok v | exception e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. seconds in
  let rec wait () =
    match Atomic.get result with
    | Some r -> (
      Domain.join d;
      match r with Ok v -> v | Error e -> raise e)
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "no result within %g s: the run hangs" seconds;
      Unix.sleepf 1e-3;
      wait ()
  in
  wait ()

(* A script whose first descriptor raises in its owner (class 0 reads
   key -1), followed by [writes] writes alternating classes 0 and 1, on
   [Differential.chain_partition 2]: class 0's queue never drains. *)
let raising_script ~writes =
  let module E = Hdd_runtime.Engine in
  Array.init (writes + 1) (fun i ->
      if i = 0 then
        { E.d_id = 1; d_kind = `Update 0;
          d_ops = [ E.Read (Granule.make ~segment:0 ~key:(-1)) ];
          d_abort = false }
      else
        let c = (i - 1) land 1 in
        { E.d_id = i + 1; d_kind = `Update c;
          d_ops = [ E.Write (Granule.make ~segment:c ~key:i, i) ];
          d_abort = false })

(* --- seeded registry histories ---

   Register/commit/abort, packed [register_active]/[finish_active] and
   [prune], interleaved at random over 1-4 classes.  Each [step] makes
   one move and marks in [touched] (which the caller clears) every
   class whose frozen view it changes: its actives or windows moved, or
   [prune] dropped windows.  [now] is the last tick taken. *)
type registry_history = {
  reg : Registry.t;
  classes : int;
  now : int ref;
  touched : bool array;
  step : unit -> unit;
}

let registry_history prng =
  let classes = 1 + Hdd_util.Prng.int prng 4 in
  let reg = Registry.create ~classes () in
  let now = ref 0 in
  let tick () = incr now; !now in
  let actives = ref [] in
  let packed = Array.make classes false in
  let touched = Array.make classes false in
  let next_id = ref 0 in
  let step () =
    let c = Hdd_util.Prng.int prng classes in
    match Hdd_util.Prng.int prng 6 with
    | (0 | 1) when not packed.(c) ->
      (* no registration behind a packed active: it stays the newest *)
      incr next_id;
      let t = Txn.make ~id:!next_id ~kind:(Txn.Update c) ~init:(tick ()) in
      Registry.register reg t;
      actives := t :: !actives;
      touched.(c) <- true
    | 2 when !actives <> [] ->
      let t = Hdd_util.Prng.pick prng (Array.of_list !actives) in
      actives := List.filter (fun u -> u != t) !actives;
      if Hdd_util.Prng.bool prng then Txn.commit t ~at:(tick ())
      else Txn.abort t ~at:(tick ());
      (match t.Txn.kind with
      | Txn.Update k -> touched.(k) <- true
      | Txn.Read_only -> ())
    | 3 when not packed.(c) ->
      incr next_id;
      Registry.register_active reg ~class_id:c ~id:!next_id ~init:(tick ());
      packed.(c) <- true;
      touched.(c) <- true
    | 4 when packed.(c) ->
      Registry.finish_active reg ~class_id:c ~endt:(tick ());
      packed.(c) <- false;
      touched.(c) <- true
    | _ ->
      let before =
        Array.init classes (fun k -> Registry.window_count reg ~class_id:k)
      in
      Registry.prune reg ~upto:(Hdd_util.Prng.int prng (!now + 1));
      Array.iteri
        (fun k n ->
          if Registry.window_count reg ~class_id:k < n then touched.(k) <- true)
        before
  in
  { reg; classes; now; touched; step }

(* --- forced collections --- *)

(* Minor collections (a stop-the-world pause over every domain in
   OCaml 5) that [f] runs from an empty minor heap. *)
let minor_collections f =
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  f ();
  (Gc.quick_stat ()).Gc.minor_collections - before

(* --- golden-trace helpers --- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* The directory to (re)write goldens into, when the run asks for an
   update instead of a comparison. *)
let golden_update_dir () =
  match Sys.getenv_opt "HDD_GOLDEN_UPDATE" with
  | Some dir when dir <> "" && dir <> "0" -> Some dir
  | _ -> None

let contains s affix =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

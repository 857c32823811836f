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

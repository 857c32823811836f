module Prng = Hdd_util.Prng
module Dist = Hdd_util.Dist
module Spec = Hdd_core.Spec
module Partition = Hdd_core.Partition

type op = Read of Granule.t | Write of Granule.t * int

type template = {
  tpl_name : string;
  kind : Controller.kind;
  weight : float;
  gen : Prng.t -> op list;
}

type t = {
  wl_name : string;
  partition : Partition.t;
  templates : template list;
  init : Granule.t -> int;
}

let pick_template t g =
  let total = List.fold_left (fun acc tpl -> acc +. tpl.weight) 0. t.templates in
  let x = Prng.float g total in
  let rec go acc = function
    | [] -> List.hd t.templates
    | tpl :: rest ->
      let acc = acc +. tpl.weight in
      if x < acc then tpl else go acc rest
  in
  go 0. t.templates

let segment_count t = Partition.segment_count t.partition

let granule segment key = Granule.make ~segment ~key

let zero_init _ = 0

(* --- the paper's retail inventory application (§1.2.1) --- *)

let inventory ?(base_keys = 256) ?(items = 64) ?(orders = 64)
    ?(events_per_txn = 2) ?(reads_per_recompute = 4) ?(ro_weight = 0.15)
    ?(adhoc_weight = 0.0) ?(zipf_alpha = 0.6) () =
  let spec =
    Spec.make
      ~segments:[ "reorders"; "inventory"; "events" ]
      ~types:
        [ Spec.txn_type ~name:"type1-log-event" ~writes:[ 2 ] ~reads:[];
          Spec.txn_type ~name:"type2-recompute" ~writes:[ 1 ] ~reads:[ 1; 2 ];
          Spec.txn_type ~name:"type3-reorder" ~writes:[ 0 ] ~reads:[ 0; 1; 2 ] ]
  in
  let partition = Partition.build_exn spec in
  let zipf_events = Dist.zipf ~n:base_keys ~alpha:zipf_alpha in
  let zipf_items = Dist.zipf ~n:items ~alpha:zipf_alpha in
  let type1 g =
    List.init events_per_txn (fun _ ->
        Write (granule 2 (Dist.zipf_draw zipf_events g), Prng.int g 1000))
  in
  let type2 g =
    let item = Dist.zipf_draw zipf_items g in
    let event_reads =
      List.init reads_per_recompute (fun _ ->
          Read (granule 2 (Dist.zipf_draw zipf_events g)))
    in
    event_reads
    @ [ Read (granule 1 item); Write (granule 1 item, Prng.int g 1000) ]
  in
  let type3 g =
    let item = Dist.zipf_draw zipf_items g in
    let order = Prng.int g orders in
    [ Read (granule 2 (Dist.zipf_draw zipf_events g));
      Read (granule 1 item);
      Read (granule 0 order);
      Write (granule 0 order, Prng.int g 1000) ]
  in
  let audit g =
    let item = Dist.zipf_draw zipf_items g in
    [ Read (granule 2 (Dist.zipf_draw zipf_events g));
      Read (granule 1 item);
      Read (granule 0 (Prng.int g orders)) ]
  in
  (* an ad-hoc correction: amend an event record AND the inventory level
     it fed — writes in two segments, outside every analysed class *)
  let correction g =
    let item = Dist.zipf_draw zipf_items g in
    let event = Dist.zipf_draw zipf_events g in
    [ Read (granule 2 event);
      Write (granule 2 event, Prng.int g 1000);
      Read (granule 1 item);
      Write (granule 1 item, Prng.int g 1000) ]
  in
  { wl_name = "inventory";
    partition;
    templates =
      [ { tpl_name = "type1"; kind = Controller.Update 2; weight = 0.4;
          gen = type1 };
        { tpl_name = "type2"; kind = Controller.Update 1; weight = 0.3;
          gen = type2 };
        { tpl_name = "type3"; kind = Controller.Update 0;
          weight = Float.max 0. (0.3 -. ro_weight -. adhoc_weight);
          gen = type3 };
        { tpl_name = "audit"; kind = Controller.Read_only; weight = ro_weight;
          gen = audit };
        { tpl_name = "correction";
          kind = Controller.Adhoc { writes = [ 1; 2 ]; reads = [ 1; 2 ] };
          weight = adhoc_weight;
          gen = correction } ];
    init = zero_init }

(* --- parametric chain for the sweeps --- *)

(* Reads per transaction, before an update's one write. *)
let reads_up = 4

let chain ~depth ?(keys_per_segment = 128) ?(cross_read_fraction = 0.75)
    ?(ro_weight = 0.1) ?(zipf_alpha = 0.6) () =
  if depth < 1 then invalid_arg "Workload.chain: depth must be >= 1";
  let segments = List.init depth (fun i -> Printf.sprintf "level%d" i) in
  (* class i writes D_i and reads everything above (D_{i+1} .. D_{depth-1}) *)
  let types =
    List.init depth (fun i ->
        Spec.txn_type
          ~name:(Printf.sprintf "class%d" i)
          ~writes:[ i ]
          ~reads:(List.init (depth - i) (fun k -> i + k)))
  in
  let spec = Spec.make ~segments ~types in
  let partition = Partition.build_exn spec in
  let zipf = Dist.zipf ~n:keys_per_segment ~alpha:zipf_alpha in
  let gen_for_class i g =
    let reads =
      List.init reads_up (fun _ ->
          let cross =
            i < depth - 1 && Dist.bernoulli g ~p:cross_read_fraction
          in
          let seg =
            if cross then Dist.uniform_int g ~lo:(i + 1) ~hi:(depth - 1)
            else i
          in
          Read (granule seg (Dist.zipf_draw zipf g)))
    in
    reads @ [ Write (granule i (Dist.zipf_draw zipf g), Prng.int g 1000) ]
  in
  let ro g =
    List.init reads_up (fun _ ->
        Read
          (granule (Dist.uniform_int g ~lo:0 ~hi:(depth - 1))
             (Dist.zipf_draw zipf g)))
  in
  let update_weight = (1. -. ro_weight) /. float_of_int depth in
  { wl_name = Printf.sprintf "chain-%d" depth;
    partition;
    templates =
      List.init depth (fun i ->
          { tpl_name = Printf.sprintf "class%d" i;
            kind = Controller.Update i;
            weight = update_weight;
            gen = gen_for_class i })
      @ [ { tpl_name = "ro"; kind = Controller.Read_only; weight = ro_weight;
            gen = ro } ];
    init = zero_init }

(* --- branching tree: read-only transactions span branches --- *)

let tree ?(branches = 3) ?(keys_per_segment = 128) ?(ro_weight = 0.2) () =
  if branches < 2 then invalid_arg "Workload.tree: branches must be >= 2";
  let segments =
    "base" :: List.init branches (fun i -> Printf.sprintf "branch%d" i)
  in
  let types =
    Spec.txn_type ~name:"feeder" ~writes:[ 0 ] ~reads:[]
    :: List.init branches (fun i ->
           Spec.txn_type
             ~name:(Printf.sprintf "derive%d" i)
             ~writes:[ i + 1 ]
             ~reads:[ 0; i + 1 ])
  in
  let spec = Spec.make ~segments ~types in
  let partition = Partition.build_exn spec in
  let key g = Prng.int g keys_per_segment in
  let feeder g = [ Write (granule 0 (key g), Prng.int g 1000) ] in
  let derive i g =
    [ Read (granule 0 (key g));
      Read (granule (i + 1) (key g));
      Write (granule (i + 1) (key g), Prng.int g 1000) ]
  in
  let ro g =
    (* reads two distinct branches plus the base: on no critical path *)
    let a = Prng.int g branches in
    let b = (a + 1 + Prng.int g (branches - 1)) mod branches in
    [ Read (granule 0 (key g));
      Read (granule (a + 1) (key g));
      Read (granule (b + 1) (key g)) ]
  in
  let update_weight = (1. -. ro_weight) /. float_of_int (branches + 1) in
  { wl_name = Printf.sprintf "tree-%d" branches;
    partition;
    templates =
      ({ tpl_name = "feeder"; kind = Controller.Update 0;
         weight = update_weight; gen = feeder }
      :: List.init branches (fun i ->
             { tpl_name = Printf.sprintf "derive%d" i;
               kind = Controller.Update (i + 1);
               weight = update_weight;
               gen = derive i }))
      @ [ { tpl_name = "ro-span"; kind = Controller.Read_only;
            weight = ro_weight; gen = ro } ];
    init = zero_init }

(* --- random TST hierarchies for the certification sweeps --- *)

let random_hierarchy ~seed ?(segments = 6) ?(keys_per_segment = 32)
    ?(ro_weight = 0.15) () =
  if segments < 2 then
    invalid_arg "Workload.random_hierarchy: need at least 2 segments";
  let rng = Prng.create seed in
  (* a random tree: node 0 is the root (highest); each later node picks a
     parent among the earlier ones *)
  let parent = Array.make segments 0 in
  for i = 1 to segments - 1 do
    parent.(i) <- Prng.int rng i
  done;
  let rec ancestors i = if i = 0 then [] else parent.(i) :: ancestors parent.(i) in
  (* Every class reads its parent; deeper ancestors join at random.  The
     mandatory parent read keeps the partition TST-hierarchical: with the
     whole parent chain present as arcs, any class-to-ancestor arc is
     transitively induced.  (Skipping intermediate ancestors while some
     class on the path skips its parent joins two branches by a second
     undirected path — the generator's first version did exactly that and
     produced invalid partitions.) *)
  let read_set i =
    match ancestors i with
    | [] -> []
    | p :: deeper -> p :: List.filter (fun _ -> Prng.bool rng) deeper
  in
  let types =
    List.init segments (fun i ->
        Spec.txn_type
          ~name:(Printf.sprintf "class%d" i)
          ~writes:[ i ]
          ~reads:(i :: read_set i))
  in
  let spec =
    Spec.make
      ~segments:(List.init segments (fun i -> Printf.sprintf "n%d" i))
      ~types
  in
  let partition = Partition.build_exn spec in
  let key g = Prng.int g keys_per_segment in
  let declared_reads = Array.init segments read_set in
  let gen_for i g =
    let ups =
      List.filter (fun _ -> Prng.bool g) declared_reads.(i)
    in
    List.map (fun s -> Read (granule s (key g))) ups
    @ [ Read (granule i (key g));
        Write (granule i (key g), Prng.int g 1000) ]
  in
  let ro g =
    List.init
      (1 + Prng.int g 3)
      (fun _ -> Read (granule (Prng.int g segments) (key g)))
  in
  let update_weight = (1. -. ro_weight) /. float_of_int segments in
  { wl_name = Printf.sprintf "random-%d" seed;
    partition;
    templates =
      List.init segments (fun i ->
          { tpl_name = Printf.sprintf "class%d" i;
            kind = Controller.Update i;
            weight = update_weight;
            gen = gen_for i })
      @ [ { tpl_name = "ro"; kind = Controller.Read_only; weight = ro_weight;
            gen = ro } ];
    init = zero_init }

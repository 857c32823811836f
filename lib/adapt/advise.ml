module Spec = Hdd_core.Spec
module P = Hdd_core.Partition
module L = Hdd_core.Legalize

type move =
  | Migrate of { class_id : int; to_worker : int }
  | Split of { segment : int; pivot : int }
  | Merge of { a : int; b : int }

let pp_move ppf = function
  | Migrate { class_id; to_worker } ->
    Format.fprintf ppf "migrate class %d -> worker %d" class_id to_worker
  | Split { segment; pivot } ->
    Format.fprintf ppf "split segment %d at key %d" segment pivot
  | Merge { a; b } -> Format.fprintf ppf "merge segment %d into %d" b a

type repair = {
  move : move;
  spec : Spec.t option;
  cost : float;
  benefit : float;
  why : string;
}

let score r = r.benefit -. r.cost

(* --- spec transforms --- *)

let split_spec (spec : Spec.t) ~segment =
  let n = Spec.segment_count spec in
  if segment < 0 || segment >= n then
    invalid_arg (Printf.sprintf "Advise.split_spec: segment %d of %d" segment n);
  (* re-splitting a segment must not collide with its earlier child *)
  let taken name = Array.exists (String.equal name) spec.Spec.segment_names in
  let child_name =
    let rec fresh name = if taken name then fresh (name ^ "+") else name in
    fresh (spec.Spec.segment_names.(segment) ^ "+")
  in
  let child = n in
  Spec.make
    ~segments:(Array.to_list spec.Spec.segment_names @ [ child_name ])
    ~types:
      (Array.to_list spec.Spec.types
      @ [ Spec.txn_type ~name:("t" ^ child_name) ~writes:[ child ]
            ~reads:[ child; segment ] ])

let merge_spec (spec : Spec.t) ~a ~b =
  let n = Spec.segment_count spec in
  if a = b || a < 0 || b < 0 || a >= n || b >= n then
    invalid_arg (Printf.sprintf "Advise.merge_spec: (%d, %d) of %d" a b n);
  (* old id -> new id: [b] folds into [a], ids above [b] shift down *)
  let map =
    Array.init n (fun i ->
        let i = if i = b then a else i in
        if i > b then i - 1 else i)
  in
  let remap l = List.sort_uniq compare (List.map (fun i -> map.(i)) l) in
  let segments =
    Array.to_list spec.Spec.segment_names
    |> List.filteri (fun i _ -> i <> b)
  in
  let types =
    Array.to_list spec.Spec.types
    |> List.map (fun (ty : Spec.txn_type) ->
           Spec.txn_type ~name:ty.Spec.type_name ~writes:(remap ty.Spec.writes)
             ~reads:(remap ty.Spec.reads))
  in
  (Spec.make ~segments ~types, map)

let merge_candidates spec =
  let n = Spec.segment_count spec in
  let ok = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      let merged, _ = merge_spec spec ~a ~b in
      match P.build merged with
      | Ok _ -> ok := (a, b) :: !ok
      | Error _ -> ()
    done
  done;
  List.rev !ok

(* --- the advisor --- *)

let least_loaded ~owner_map ~workers ~excluding =
  let load = Array.make workers 0 in
  Array.iter (fun o -> if o >= 0 && o < workers then load.(o) <- load.(o) + 1)
    owner_map;
  let best = ref (-1) in
  for w = workers - 1 downto 0 do
    if w <> excluding && (!best < 0 || load.(w) <= load.(!best)) then best := w
  done;
  !best

let target_map ~owner_map = function
  | Migrate { class_id; to_worker } ->
    if class_id < 0 || class_id >= Array.length owner_map then None
    else begin
      let m = Array.copy owner_map in
      m.(class_id) <- to_worker;
      Some m
    end
  | Split _ | Merge _ -> None

let propose ?(workers = 2) ?owner_map ?(keys_per_segment = 16) drift =
  let spec = Drift.observed_spec drift in
  let nseg = Spec.segment_count spec in
  let owner_map =
    match owner_map with
    | Some m -> m
    | None -> Hdd_runtime.Engine.default_owner_map ~segments:nseg ~workers
  in
  let of_signal = function
    | Drift.Hotspot { class_id; share; _ } ->
      let migrate =
        if workers <= 1 then []
        else begin
          let from = owner_map.(class_id) in
          let dst = least_loaded ~owner_map ~workers ~excluding:from in
          if dst < 0 then []
          else
            [ { move = Migrate { class_id; to_worker = dst };
                spec = None;
                cost = 0.1;
                benefit = share;
                why =
                  Printf.sprintf
                    "spread the hot class off worker %d (%.0f%% of commits)"
                    from (100. *. share) } ]
        end
      in
      let split =
        let candidate = split_spec spec ~segment:class_id in
        match P.build candidate with
        | Error _ -> []
        | Ok _ ->
          [ { move =
                Split { segment = class_id; pivot = keys_per_segment / 2 };
              spec = Some candidate;
              cost = 1.0;
              benefit = share /. 2.;
              why = "halve the hot segment's key range" } ]
      in
      migrate @ split
    | Drift.Tst_break { edge; error; _ } ->
      let legal = L.legalize spec in
      (match legal.L.merges with
      | [] -> []
      | (a, b) :: _ ->
        [ { move = Merge { a; b };
            spec = Some legal.L.spec;
            cost = float_of_int (List.length legal.L.merges);
            benefit = 1.5;
            why =
              Printf.sprintf
                "restore TST-ness broken at edge (%d, %d): %s" (fst edge)
                (snd edge)
                (P.error_to_string error) } ])
  in
  Drift.signals drift
  |> List.concat_map of_signal
  |> List.sort (fun x y -> compare (score y) (score x))

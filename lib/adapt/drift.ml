module Spec = Hdd_core.Spec
module P = Hdd_core.Partition
module T = Hdd_obs.Trace

type config = {
  window : int;
  hot_share : float;
  min_commits : int;
  adhoc_promote : int;
}

let default_config =
  { window = 256; hot_share = 0.5; min_commits = 32; adhoc_promote = 3 }

type signal =
  | Hotspot of { class_id : int; share : float; commits : int }
  | Tst_break of {
      edge : int * int;
      wsegs : int list;
      rsegs : int list;
      error : P.error;
    }

type t = {
  cfg : config;
  spec : Spec.t;
  (* active transactions: id -> class (update members only) *)
  active : (int, int) Hashtbl.t;
  (* active ad-hoc transactions: id -> footprint *)
  active_adhoc : (int, int list * int list) Hashtbl.t;
  (* sliding window of committed classes, oldest first *)
  window : int Queue.t;
  counts : int array;  (* commits per class currently in the window *)
  (* recurring ad-hoc footprints: (wsegs, rsegs) -> sightings *)
  footprints : (int list * int list, int) Hashtbl.t;
}

let create ?(config = default_config) ~spec () =
  { cfg = config;
    spec;
    active = Hashtbl.create 64;
    active_adhoc = Hashtbl.create 8;
    window = Queue.create ();
    counts = Array.make (Spec.segment_count spec) 0;
    footprints = Hashtbl.create 8 }

let slide t class_id =
  Queue.push class_id t.window;
  t.counts.(class_id) <- t.counts.(class_id) + 1;
  if Queue.length t.window > t.cfg.window then begin
    let old = Queue.pop t.window in
    t.counts.(old) <- t.counts.(old) - 1
  end

let feed t (r : T.record) =
  match r.T.ev with
  | T.Begin { txn; kind = T.Update c; _ } -> Hashtbl.replace t.active txn c
  | T.Begin { txn; kind = T.Adhoc { wsegs; rsegs }; _ } ->
    Hashtbl.replace t.active_adhoc txn (wsegs, rsegs)
  | T.Begin _ -> ()
  | T.Commit { txn; _ } ->
    (match Hashtbl.find_opt t.active txn with
    | Some c ->
      Hashtbl.remove t.active txn;
      slide t c
    | None ->
      (match Hashtbl.find_opt t.active_adhoc txn with
      | Some fp ->
        Hashtbl.remove t.active_adhoc txn;
        let n = Option.value ~default:0 (Hashtbl.find_opt t.footprints fp) in
        Hashtbl.replace t.footprints fp (n + 1)
      | None -> ()))
  | T.Abort { txn; _ } ->
    Hashtbl.remove t.active txn;
    Hashtbl.remove t.active_adhoc txn
  | _ -> ()

let observe t records = List.iter (feed t) records

let commits_by_class t =
  Array.to_list (Array.mapi (fun c n -> (c, n)) t.counts)
  |> List.filter (fun (_, n) -> n > 0)
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let promoted t =
  Hashtbl.fold
    (fun fp n acc -> if n >= t.cfg.adhoc_promote then fp :: acc else acc)
    t.footprints []
  |> List.sort compare

let observed_spec t =
  let extra =
    List.mapi
      (fun i (wsegs, rsegs) ->
        Spec.txn_type
          ~name:(Printf.sprintf "adhoc%d" i)
          ~writes:wsegs ~reads:rsegs)
      (promoted t)
  in
  Spec.make
    ~segments:(Array.to_list t.spec.Spec.segment_names)
    ~types:(Array.to_list t.spec.Spec.types @ extra)

let dhg t = P.dhg_of_spec (observed_spec t)

(* The witness edge of a build failure, for the shrinker and the
   advisor: Not_semi_tree carries it directly; a cycle's first two
   nodes are an arc on the cycle; a multi-write type's first two write
   segments are the arc that cannot exist in any semi-tree. *)
let witness_edge = function
  | P.Not_semi_tree (a, b) -> (a, b)
  | P.Cyclic (a :: b :: _) -> (a, b)
  | P.Cyclic _ -> (-1, -1)
  | P.Multiple_write_segments (_, a :: b :: _) -> (a, b)
  | P.Multiple_write_segments _ -> (-1, -1)

let signals t =
  let hot =
    let total = Queue.length t.window in
    if total < t.cfg.min_commits then []
    else begin
      match commits_by_class t with
      | (c, n) :: _
        when float_of_int n /. float_of_int total >= t.cfg.hot_share ->
        [ Hotspot
            { class_id = c;
              share = float_of_int n /. float_of_int total;
              commits = total } ]
      | _ -> []
    end
  in
  let breaks =
    List.filter_map
      (fun (wsegs, rsegs) ->
        let candidate =
          Spec.make
            ~segments:(Array.to_list t.spec.Spec.segment_names)
            ~types:
              (Array.to_list t.spec.Spec.types
              @ [ Spec.txn_type ~name:"adhoc?" ~writes:wsegs ~reads:rsegs ])
        in
        match P.build candidate with
        | Ok _ -> None
        | Error e ->
          Some (Tst_break { edge = witness_edge e; wsegs; rsegs; error = e }))
      (promoted t)
  in
  hot @ breaks

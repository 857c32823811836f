module P = Hdd_core.Partition
module Spec = Hdd_core.Spec
module Oracle = Hdd_core.Oracle
module Prng = Hdd_util.Prng

type script = Engine.desc array

let default_init (g : Granule.t) = (g.segment * 1000) + g.key

(* --- script generation --- *)

(* An update has up to three operations after its first write, half of
   them reads of another segment its class may read; a read-only
   descriptor has one to four reads. *)
let cross_frac = 0.5
let ops_per_txn = 4

let gen_script ~partition ~seed ~txns ?(keys_per_segment = 6)
    ?(ro_frac = 0.25) ?(abort_frac = 0.15) () =
  let prng = Prng.create seed in
  let nseg = P.segment_count partition in
  let readable =
    Array.init nseg (fun c ->
        List.init nseg Fun.id
        |> List.filter (fun s ->
               s <> c && P.may_read partition ~class_id:c ~segment:s)
        |> Array.of_list)
  in
  let key () = Prng.int prng keys_per_segment in
  Array.init txns (fun n ->
      let id = n + 1 in
      if Prng.float prng 1. < ro_frac then begin
        let ops =
          List.init
            (1 + Prng.int prng ops_per_txn)
            (fun _ ->
              Engine.Read
                (Granule.make ~segment:(Prng.int prng nseg) ~key:(key ())))
        in
        { Engine.d_id = id; d_kind = `Read_only; d_ops = ops;
          d_abort = false }
      end
      else begin
        let cls = Prng.int prng nseg in
        let own_g () = Granule.make ~segment:cls ~key:(key ()) in
        let first = Engine.Write (own_g (), Prng.int prng 1_000_000) in
        let rest =
          List.init (Prng.int prng ops_per_txn) (fun _ ->
              let r = Prng.float prng 1. in
              if r < cross_frac && Array.length readable.(cls) > 0 then
                Engine.Read
                  (Granule.make
                     ~segment:(Prng.pick prng readable.(cls))
                     ~key:(key ()))
              else if r < cross_frac +. 0.2 then
                Engine.Write (own_g (), Prng.int prng 1_000_000)
              else Engine.Read (own_g ()))
        in
        { Engine.d_id = id;
          d_kind = `Update cls;
          d_ops = first :: rest;
          d_abort = Prng.float prng 1. < abort_frac }
      end)

(* --- report --- *)

type report = { r_oracle : Oracle.report; r_stats : Engine.stats }

let failures r = Oracle.failures r.r_oracle
let ok r = Oracle.ok r.r_oracle

let pp_report ppf r =
  let o = r.r_oracle in
  (match failures r with
  | [] -> ()
  | names ->
    Format.fprintf ppf "FAILED checks: %s@." (String.concat ", " names));
  let held f =
    match Oracle.verdict o f with
    | Oracle.Passed -> "true"
    | Failed _ -> "false"
    | Skipped -> "skipped"
  in
  Format.fprintf ppf
    "serializable=%s monitor=%d verdicts=%s b_reads=%s committed=%d \
     aborted=%d walls=%d repartitions=%d escalations=%d events=%d"
    (held Oracle.Mvsg_certification)
    (List.length (Oracle.witnesses o Oracle.Monitor_replay))
    (held Oracle.Serial_oracle_agreement) (held Oracle.Read_from_equality)
    r.r_stats.committed r.r_stats.aborted r.r_stats.wall_releases
    r.r_stats.repartitions r.r_stats.escalations o.events;
  List.iter
    (fun (f, _) ->
      List.iter
        (fun w -> Format.fprintf ppf "@.  %s: %s" (Oracle.name f) w)
        (Oracle.witnesses o f))
    o.verdicts

(* --- the engine's adapter --- *)

(* A merged parallel trace: a reader loads the published wall before it
   ticks its initiation, so it may hold any wall released before it. *)
let check_run ~partition ~init ~script (run : Engine.run) =
  { r_oracle =
      Oracle.check
        ~replay:{ Oracle.partition; init; script }
        (Oracle.create ~raise_on_violation:false ~wall_rule:`Any_released ())
        ~records:run.records ~outcomes:run.outcomes;
    r_stats = run.stats }

let check ?(plan = []) ?(mode_plan = []) ~partition ~init ~config script =
  check_run ~partition ~init ~script
    (Engine.run_script ~partition ~init ~plan ~mode_plan config ~script)

(* --- stress profiles --- *)

type profile = Abort_heavy | Adhoc_read | Mixed

let chain_partition depth =
  let segments = List.init depth (fun i -> Printf.sprintf "D%d" i) in
  let types =
    List.init depth (fun i ->
        Spec.txn_type
          ~name:(Printf.sprintf "t%d" i)
          ~writes:[ i ]
          ~reads:(if i < depth - 1 then [ i; i + 1 ] else [ i ]))
  in
  P.build_exn (Spec.make ~segments ~types)

let tree_partition branches =
  let segments = List.init (branches + 1) (fun i -> Printf.sprintf "D%d" i) in
  let types =
    Spec.txn_type ~name:"t0" ~writes:[ 0 ] ~reads:[ 0 ]
    :: List.init branches (fun b ->
           Spec.txn_type
             ~name:(Printf.sprintf "t%d" (b + 1))
             ~writes:[ b + 1 ]
             ~reads:[ b + 1; 0 ])
  in
  P.build_exn (Spec.make ~segments ~types)

let rotation_plan ~segments ~workers n =
  let rec go acc map i =
    if i = 0 then List.rev acc
    else
      let next = Engine.rotated_map map workers in
      go ((next, "migrate") :: acc) next (i - 1)
  in
  go [] (Engine.default_owner_map ~segments ~workers) n

(* n forced mode flips: step i escalates the classes of one parity and
   de-escalates the other, so every class changes stamping discipline
   at every step — the adversarial schedule for the escalation-
   equivalence property.  The last step restores all-plain so a run
   always ends comparable to a never-escalated one. *)
let escalation_plan ~segments n =
  List.init n (fun i ->
      if i = n - 1 then Array.make segments 0
      else Array.init segments (fun c -> (c + i) land 1))

let stress_case ~seed ~txns ~profile =
  let prng = Prng.create (seed * 2 + 1) in
  let partition =
    if seed land 1 = 0 then chain_partition (4 + Prng.int prng 5)
    else tree_partition (3 + Prng.int prng 3)
  in
  let ro_frac, abort_frac =
    match profile with
    | Abort_heavy -> (0.1, 0.4)
    | Adhoc_read -> (0.5, 0.05)
    | Mixed -> (0.25, 0.15)
  in
  (partition, gen_script ~partition ~seed ~txns ~ro_frac ~abort_frac ())

let stress_one ?(publish_every = 8) ?(repartitions = 0) ?(escalations = 0)
    ~seed ~workers ~txns ~profile () =
  let partition, script = stress_case ~seed ~txns ~profile in
  let config = { (Engine.default_config ~workers) with publish_every } in
  let plan =
    rotation_plan ~segments:(P.segment_count partition) ~workers repartitions
  in
  let mode_plan =
    escalation_plan ~segments:(P.segment_count partition) escalations
  in
  check ~plan ~mode_plan ~partition ~init:default_init ~config script

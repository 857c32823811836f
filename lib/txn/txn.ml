type id = int

type kind = Update of int | Read_only

type status = Active | Committed of Time.t | Aborted of Time.t

type t = {
  id : id;
  kind : kind;
  init : Time.t;
  mutable status : status;
}

let bootstrap =
  { id = 0; kind = Update (-1); init = Time.zero; status = Committed Time.zero }

let make ~id ~kind ~init = { id; kind; init; status = Active }

let is_update t = match t.kind with Update _ -> true | Read_only -> false

let class_of t = match t.kind with Update i -> Some i | Read_only -> None

let is_active t = t.status = Active

let is_committed t =
  match t.status with Committed _ -> true | Active | Aborted _ -> false

let end_time t =
  match t.status with
  | Active -> None
  | Committed c | Aborted c -> Some c

let active_at t m =
  t.init < m
  && (match end_time t with None -> true | Some e -> e > m)

let transition t ~at ~name mk =
  (match t.status with
  | Active -> ()
  | Committed _ | Aborted _ ->
    invalid_arg (Printf.sprintf "Txn.%s: transaction %d not active" name t.id));
  if at <= t.init then
    invalid_arg
      (Printf.sprintf "Txn.%s: end time %d not after initiation %d" name at
         t.init);
  t.status <- mk at

let commit t ~at = transition t ~at ~name:"commit" (fun c -> Committed c)
let abort t ~at = transition t ~at ~name:"abort" (fun c -> Aborted c)

let pp ppf t =
  let status =
    match t.status with
    | Active -> "active"
    | Committed c -> Printf.sprintf "committed@%d" c
    | Aborted c -> Printf.sprintf "aborted@%d" c
  in
  let kind =
    match t.kind with
    | Update i -> Printf.sprintf "T%d" i
    | Read_only -> "RO"
  in
  Format.fprintf ppf "t%d[%s,I=%a,%s]" t.id kind Time.pp t.init status

type kind =
  | Update of int
  | Read_only
  | Adhoc of { writes : int list; reads : int list }

type t = {
  name : string;
  begin_txn : kind -> Txn.t;
  read : Txn.t -> Granule.t -> int Hdd_core.Outcome.t;
  write : Txn.t -> Granule.t -> int -> unit Hdd_core.Outcome.t;
  commit : Txn.t -> unit;
  abort : Txn.t -> unit;
  try_commit : (Txn.t -> unit Hdd_core.Outcome.t) option;
  snapshot : unit -> Hdd_obs.Counters.t;
}

let pp_kind ppf = function
  | Update c -> Format.fprintf ppf "update(T%d)" c
  | Read_only -> Format.fprintf ppf "read-only"
  | Adhoc { writes; reads } ->
    Format.fprintf ppf "adhoc(w:{%s} r:{%s})"
      (String.concat "," (List.map string_of_int writes))
      (String.concat "," (List.map string_of_int reads))

let with_hooks ?on_begin ?on_read ?on_write ?on_finish c =
  { c with
    begin_txn =
      (fun k ->
        let t = c.begin_txn k in
        (match on_begin with Some f -> f k t | None -> ());
        t);
    read =
      (fun t g ->
        let o = c.read t g in
        (match on_read with Some f -> f t g o | None -> ());
        o);
    write =
      (fun t g v ->
        let o = c.write t g v in
        (match on_write with Some f -> f t g o | None -> ());
        o);
    commit =
      (fun t ->
        (match on_finish with Some f -> f t ~commit:true | None -> ());
        c.commit t);
    abort =
      (fun t ->
        (match on_finish with Some f -> f t ~commit:false | None -> ());
        c.abort t) }

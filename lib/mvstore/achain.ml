type 'a t = {
  mutable versions : 'a Chain.version array;  (* ascending by ts *)
  mutable len : int;
}

let mk_version ~ts ~writer ~value ~state : 'a Chain.version =
  { Chain.ts; writer; value; state; rts = Time.zero }

let create ~initial =
  let v0 =
    mk_version ~ts:Time.zero ~writer:Txn.bootstrap.Txn.id ~value:initial
      ~state:Chain.Committed
  in
  { versions = Array.make 4 v0; len = 1 }

(* Index of the last version with ts < bound, or -1. *)
let last_below t ~bound =
  let lo = ref 0 and hi = ref (t.len - 1) and found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if t.versions.(mid).Chain.ts < bound then begin
      found := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !found

let find_exact t ~ts =
  let i = last_below t ~bound:(ts + 1) in
  if i >= 0 && t.versions.(i).Chain.ts = ts then Some i else None

let install t ~ts ~writer ~value =
  if ts <= Time.zero then invalid_arg "Achain.install: ts must be positive";
  if find_exact t ~ts <> None then
    invalid_arg "Achain.install: duplicate version timestamp";
  let v = mk_version ~ts ~writer ~value ~state:Chain.Pending in
  if t.len = Array.length t.versions then
    (* doubled by copying: an [Array.make] filled with the young [v]
       would force a minor collection past 256 slots (DESIGN.md §16) *)
    t.versions <- Array.append t.versions t.versions;
  (* insert keeping ascending order *)
  let pos = last_below t ~bound:ts + 1 in
  Array.blit t.versions pos t.versions (pos + 1) (t.len - pos);
  t.versions.(pos) <- v;
  t.len <- t.len + 1;
  v

let commit t ~ts =
  match find_exact t ~ts with
  | Some i -> t.versions.(i).Chain.state <- Chain.Committed
  | None -> raise Not_found

let remove_at t i =
  Array.blit t.versions (i + 1) t.versions i (t.len - i - 1);
  t.len <- t.len - 1

let discard t ~ts =
  match find_exact t ~ts with
  | None -> raise Not_found
  | Some i ->
    if t.versions.(i).Chain.state = Chain.Committed then
      invalid_arg "Achain.discard: version is committed";
    remove_at t i

let commit_version = Chain.commit_version

let discard_version t (v : 'a Chain.version) =
  if v.Chain.state = Chain.Committed then
    invalid_arg "Achain.discard: version is committed";
  match find_exact t ~ts:v.Chain.ts with
  | Some i when t.versions.(i) == v -> remove_at t i
  | _ -> raise Not_found

let committed_before t ~ts =
  let rec scan i =
    if i < 0 then None
    else if t.versions.(i).Chain.state = Chain.Committed then
      Some t.versions.(i)
    else scan (i - 1)
  in
  scan (last_below t ~bound:ts)

let candidate_before t ~ts =
  let i = last_below t ~bound:ts in
  if i < 0 then None
  else
    let v = t.versions.(i) in
    Some
      (match v.Chain.state with
      | Chain.Committed -> Chain.Version v
      | Chain.Pending -> Chain.Wait_for v.Chain.writer)

let predecessor_rts t ~ts =
  let i = last_below t ~bound:ts in
  if i < 0 then None else Some t.versions.(i).Chain.rts

let latest_committed t =
  let rec scan i =
    if i < 0 then None
    else if t.versions.(i).Chain.state = Chain.Committed then
      Some t.versions.(i)
    else scan (i - 1)
  in
  scan (t.len - 1)

let versions t = List.rev (List.init t.len (fun i -> t.versions.(i)))

let length t = t.len

let gc t ~before =
  match committed_before t ~ts:before with
  | None -> 0
  | Some keep ->
    (* in-place compaction: versions are ascending, so survivors keep
       their relative order as they slide down *)
    let w = ref 0 in
    for i = 0 to t.len - 1 do
      let v = t.versions.(i) in
      if v.Chain.ts >= keep.Chain.ts || v.Chain.state = Chain.Pending then begin
        if !w < i then t.versions.(!w) <- v;
        incr w
      end
    done;
    let dropped = t.len - !w in
    t.len <- !w;
    dropped

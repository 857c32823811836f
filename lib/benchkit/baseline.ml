let metrics paths doc =
  List.filter_map
    (fun keys ->
      Option.map
        (fun v -> (String.concat "." keys, v))
        (Option.bind (Jsonlite.path keys doc) Jsonlite.number))
    paths

let regressions ~tracked ~budget ~baseline report =
  let was = tracked baseline in
  List.filter_map
    (fun (metric, now) ->
      match List.assoc_opt metric was with
      | Some was when was > 0. && now < was *. (1. -. budget) ->
        Some (metric, was, now)
      | _ -> None)
    (tracked report)

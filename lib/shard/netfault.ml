type event =
  | Drop of int
  | Dup of int
  | Delay of { pub : int; by : int }
  | Reorder of int

let kind = function
  | Drop _ -> "net_drop"
  | Dup _ -> "net_dup"
  | Delay _ -> "net_delay"
  | Reorder _ -> "net_reorder"

let kinds = [ "net_drop"; "net_dup"; "net_delay"; "net_reorder" ]

let ordinal = function
  | Drop n | Dup n | Reorder n -> n
  | Delay { pub; _ } -> pub

type plan = {
  events : event list;
  mutable next : int;
  mutable fired : event list;  (** newest first *)
}

let plan events = { events; next = 0; fired = [] }

type action = Deliver | Skip | Twice | Hold of int

let on_pub p =
  let ord = p.next in
  p.next <- ord + 1;
  match List.find_opt (fun e -> ordinal e = ord) p.events with
  | None -> Deliver
  | Some e ->
    p.fired <- e :: p.fired;
    (match e with
    | Drop _ -> Skip
    | Dup _ -> Twice
    | Reorder _ -> Hold 1
    | Delay { by; _ } -> Hold (Int.max 1 by))

let fired p = List.rev p.fired
let sends p = p.next

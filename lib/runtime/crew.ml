exception Peer_failed

type t = {
  gone : bool Atomic.t array;
  halt : bool Atomic.t;
  failed : exn option Atomic.t;
  settled : int Atomic.t;
}

let create n =
  { gone = Array.init n (fun _ -> Atomic.make false);
    halt = Atomic.make false;
    failed = Atomic.make None;
    settled = Atomic.make 0 }

let failed t = Option.is_some (Atomic.get t.failed)
let leave_if_failed t = if failed t then raise Peer_failed
let halt t = Atomic.set t.halt true
let halted t = Atomic.get t.halt
let gone t i = Atomic.get t.gone.(i)

(* The first exception wins; [halt] stops every member's loop too. *)
let fail t e =
  ignore (Atomic.compare_and_set t.failed None (Some e));
  halt t

let linger t serve =
  if Atomic.fetch_and_add t.settled 1 = Array.length t.gone - 1 then halt t;
  while not (halted t) do
    serve ();
    Wait.nap ()
  done

(* However a member leaves, [gone] goes up; a raise also fails the run,
   so every other party leaves its waits.  The caller's wait for the
   members is for the end of the run, so it naps without a bound. *)
let run t ?(poll = ignore) ~feed member =
  let spawn i =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set t.gone.(i) true)
          (fun () -> try member i with e -> fail t e; raise e))
  in
  let domains = Array.init (Array.length t.gone) spawn in
  (try feed () with e -> fail t e);
  let rec wait_gone () =
    (try poll () with e -> fail t e);
    if not (Array.for_all Atomic.get t.gone) then begin
      Wait.nap ();
      wait_gone ()
    end
  in
  wait_gone ();
  let joined =
    Array.map
      (fun d -> match Domain.join d with r -> Some r | exception _ -> None)
      domains
  in
  match Atomic.get t.failed with
  | Some e -> raise e
  | None -> Array.map Option.get joined

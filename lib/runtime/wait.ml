exception Stalled of { waiter : string; awaited : string; waited_s : float }

let budget_s = 10.0
let nap () = Unix.sleepf 1e-6
let backoff n = if n < 64 then Domain.cpu_relax () else nap ()

(* The start time stays an unboxed local and the clock is read once per
   256 turns, so a wait allocates nothing and a spinning one stays
   tight. *)
let until ~waiter ~awaited ~step cond =
  if not (cond ()) then begin
    let t0 = Unix.gettimeofday () in
    let n = ref 0 in
    while
      step !n;
      incr n;
      not (cond ())
    do
      if !n land 255 = 0 then begin
        let waited_s = Unix.gettimeofday () -. t0 in
        if waited_s >= budget_s then
          raise (Stalled { waiter; awaited = awaited (); waited_s })
      end
    done
  end

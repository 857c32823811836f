type 'a t = {
  lock : Mutex.t;
  buf : 'a option array;
  mutable head : int;  (* next pop *)
  mutable len : int;
  mutable closed : bool;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Mailbox.create: capacity must be > 0";
  { lock = Mutex.create ();
    buf = Array.make capacity None;
    head = 0;
    len = 0;
    closed = false }

let capacity t = Array.length t.buf

let push t x =
  Mutex.lock t.lock;
  let ok = (not t.closed) && t.len < capacity t in
  if ok then begin
    t.buf.((t.head + t.len) mod capacity t) <- Some x;
    t.len <- t.len + 1
  end;
  Mutex.unlock t.lock;
  ok

let try_pop t =
  Mutex.lock t.lock;
  let r =
    if t.len = 0 then None
    else begin
      let x = t.buf.(t.head) in
      t.buf.(t.head) <- None;
      t.head <- (t.head + 1) mod capacity t;
      t.len <- t.len - 1;
      x
    end
  in
  Mutex.unlock t.lock;
  r

let pop_into t out ~max =
  Mutex.lock t.lock;
  let n = Int.min max (Int.min t.len (Array.length out)) in
  for i = 0 to n - 1 do
    (match t.buf.(t.head) with
    | Some x -> out.(i) <- x
    | None -> assert false);
    t.buf.(t.head) <- None;
    t.head <- (t.head + 1) mod capacity t;
    t.len <- t.len - 1
  done;
  Mutex.unlock t.lock;
  n

let close t =
  Mutex.lock t.lock;
  t.closed <- true;
  Mutex.unlock t.lock

let is_drained t =
  Mutex.lock t.lock;
  let r = t.closed && t.len = 0 in
  Mutex.unlock t.lock;
  r

let length t =
  Mutex.lock t.lock;
  let r = t.len in
  Mutex.unlock t.lock;
  r

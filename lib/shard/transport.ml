type t = {
  me : int;
  nodes : int;
  send : Wire.packet -> unit;
  poll : unit -> Wire.packet option;
}

let send_to t ~dst ~stamp msg =
  t.send { Wire.src = t.me; dst; stamp; msg }

let broadcast t ~stamp msg =
  for dst = 0 to t.nodes - 1 do
    if dst <> t.me then send_to t ~dst ~stamp msg
  done

module Binc = Hdd_util.Binc

(* A frame the codec refuses, raised as the codec's own error. *)
let corrupt carrier e = raise (Binc.Error (carrier ^ ": corrupt frame: " ^ e))

module Framebuf = struct
  (* The unread bytes are [off, len) of [buf]. *)
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let create () = { buf = Bytes.create 4096; off = 0; len = 0 }

  (* Room for [n] more bytes after [len]: the unread bytes move to the
     front, into a larger buffer if the room is still short. *)
  let make_room t n =
    let live = t.len - t.off in
    if live + n <= Bytes.length t.buf then
      Bytes.blit t.buf t.off t.buf 0 live
    else begin
      let cap = ref (Bytes.length t.buf * 2) in
      while live + n > !cap do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf t.off b 0 live;
      t.buf <- b
    end;
    t.off <- 0;
    t.len <- live

  let feed t bytes ~len =
    if t.len + len > Bytes.length t.buf then make_room t len;
    Bytes.blit bytes 0 t.buf t.len len;
    t.len <- t.len + len

  (* The length of the complete frame at the offset, header included,
     or -1 while its bytes are still arriving.  A length header beyond
     what {!Binc.decode} accepts is refused at once, not waited on. *)
  let complete t =
    let avail = t.len - t.off in
    if avail < 8 then -1
    else
      let plen = Int32.to_int (Bytes.get_int32_le t.buf t.off) in
      if plen < 0 || plen > Binc.max_payload then
        raise
          (Binc.Error
             (Printf.sprintf "Framebuf: implausible length header %d" plen))
      else if avail < 8 + plen then -1
      else 8 + plen

  (* past [n] bytes; a drained buffer starts again at the front *)
  let advance t n =
    if t.len - t.off = n then begin
      t.off <- 0;
      t.len <- 0
    end
    else t.off <- t.off + n

  let next t =
    match complete t with
    | -1 -> None
    | n -> (
      (* decoded where it lies; the packet shares no bytes with [buf] *)
      let decoded = Wire.decode t.buf ~pos:t.off in
      advance t n;
      match decoded with
      | Ok (pkt, _) -> Some pkt
      | Error e -> corrupt "Framebuf" e)

  let rec route t ~from ~nodes ~forward =
    match complete t with
    | -1 -> None
    | n -> (
      let pos = t.off in
      match Wire.dst_of t.buf ~pos with
      | Error e -> corrupt (Printf.sprintf "Framebuf: shard %d" from) e
      | Ok dst ->
        if dst = nodes then next t
        else if dst >= 0 && dst < nodes then begin
          forward dst t.buf pos n;
          advance t n;
          route t ~from ~nodes ~forward
        end
        else
          raise
            (Binc.Error
               (Printf.sprintf "Framebuf: shard %d sent a frame to address %d"
                  from dst)))
end

module Loopback = struct
  (* A destination's inbox: the sealed frames sent to it, one byte
     stream, under its own lock. *)
  type inbox = { mu : Mutex.t; fb : Framebuf.t }

  let create ?fault ~nodes () =
    let inboxes =
      Array.init nodes (fun _ -> { mu = Mutex.create (); fb = Framebuf.create () })
    in
    (* [Mutex.protect] would allocate a closure per frame *)
    let append dst bytes len =
      let ib = inboxes.(dst) in
      Mutex.lock ib.mu;
      Framebuf.feed ib.fb bytes ~len;
      Mutex.unlock ib.mu
    in
    (* held publication frames per destination, oldest first: (pubs
       still to pass, a copy of the frame), under the plan's lock *)
    let held = Array.make nodes [] in
    let fault_mu = Mutex.create () in
    (* a publication passing dst ages every held frame for dst; the ones
       that reach zero follow it out, oldest first *)
    let pass_pub dst w =
      append dst (Binc.buffer w) (Binc.length w);
      held.(dst) <-
        List.filter_map
          (fun (n, f) ->
            if n <= 1 then begin
              append dst f (Bytes.length f);
              None
            end
            else Some (n - 1, f))
          held.(dst)
    in
    let fault_pub plan dst w =
      Mutex.protect fault_mu @@ fun () ->
      match Netfault.on_pub plan with
      | Netfault.Deliver -> pass_pub dst w
      | Netfault.Skip -> ()
      | Netfault.Twice ->
        pass_pub dst w;
        pass_pub dst w
      | Netfault.Hold n ->
        let frame = Bytes.sub (Binc.buffer w) 0 (Binc.length w) in
        held.(dst) <- held.(dst) @ [ (n, frame) ]
    in
    let send w (pkt : Wire.packet) =
      if pkt.dst < 0 || pkt.dst >= nodes then
        invalid_arg "Loopback: destination out of range";
      Wire.encode_into w pkt;
      match (pkt.msg, fault) with
      | Wire.Pub _, Some plan -> fault_pub plan pkt.dst w
      | _ -> append pkt.dst (Binc.buffer w) (Binc.length w)
    in
    let poll me () =
      let ib = inboxes.(me) in
      Mutex.lock ib.mu;
      match Framebuf.next ib.fb with
      | pkt ->
        Mutex.unlock ib.mu;
        pkt
      | exception e ->
        Mutex.unlock ib.mu;
        raise e
    in
    Array.init nodes (fun me ->
        { me; nodes; send = send (Binc.writer ()); poll = poll me })
end

module Pipe = struct
  let parent_addr ~nodes = nodes

  let write_frame fd buf ~pos ~len =
    let off = ref pos and stop = pos + len in
    while !off < stop do
      off := !off + Unix.write fd buf !off (stop - !off)
    done

  let write_packet w fd pkt =
    Wire.encode_into w pkt;
    write_frame fd (Binc.buffer w) ~pos:0 ~len:(Binc.length w)

  let endpoint ~me ~nodes ~read_fd ~write_fd =
    Unix.set_nonblock read_fd;
    let fb = Framebuf.create () in
    let chunk = Bytes.create 65536 in
    let w = Binc.writer () in
    let send pkt = write_packet w write_fd pkt in
    let rec poll () =
      match Framebuf.next fb with
      | Some pkt -> Some pkt
      | None -> (
        match Unix.read read_fd chunk 0 (Bytes.length chunk) with
        | 0 -> None (* peer gone *)
        | n ->
          Framebuf.feed fb chunk ~len:n;
          poll ()
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
          None)
    in
    { me; nodes; send; poll }
end

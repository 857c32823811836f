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

module Loopback = struct
  let create ?fault ~nodes () =
    let qs = Array.init nodes (fun _ -> Queue.create ()) in
    (* held publication frames per destination: (pubs still to pass, frame) *)
    let held = Array.make nodes [] in
    let mu = Mutex.create () in
    let deliver dst frame = Queue.add frame qs.(dst) in
    (* a publication passing dst ages every held frame for dst; the ones
       that reach zero follow it out, oldest first *)
    let pass_pub dst frame =
      deliver dst frame;
      held.(dst) <-
        List.filter_map
          (fun (n, f) ->
            if n <= 1 then begin
              deliver dst f;
              None
            end
            else Some (n - 1, f))
          held.(dst)
    in
    let send (pkt : Wire.packet) =
      if pkt.dst < 0 || pkt.dst >= nodes then
        invalid_arg "Loopback: destination out of range";
      let frame = Wire.encode pkt in
      Mutex.protect mu @@ fun () ->
      match (pkt.msg, fault) with
      | Wire.Pub _, Some plan -> (
        match Netfault.on_pub plan with
        | Netfault.Deliver -> pass_pub pkt.dst frame
        | Netfault.Skip -> ()
        | Netfault.Twice ->
          pass_pub pkt.dst frame;
          pass_pub pkt.dst frame
        | Netfault.Hold n -> held.(pkt.dst) <- held.(pkt.dst) @ [ (n, frame) ])
      | _ -> deliver pkt.dst frame
    in
    let poll me () =
      match Mutex.protect mu (fun () -> Queue.take_opt qs.(me)) with
      | None -> None
      | Some frame -> (
        match Wire.decode frame ~pos:0 with
        | Ok (pkt, _) -> Some pkt
        | Error e -> corrupt "Loopback" e)
    in
    Array.init nodes (fun me -> { me; nodes; send; poll = poll me })
end

module Framebuf = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 4096; len = 0 }

  let feed t bytes ~len =
    let need = t.len + len in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf * 2) in
      while need > !cap do
        cap := !cap * 2
      done;
      let b = Bytes.create !cap in
      Bytes.blit t.buf 0 b 0 t.len;
      t.buf <- b
    end;
    Bytes.blit bytes 0 t.buf t.len len;
    t.len <- t.len + len

  let next t =
    if t.len < 8 then None
    else
      let plen = Int32.to_int (Bytes.get_int32_le t.buf 0) in
      if plen < 0 then raise (Binc.Error "Framebuf: negative frame length")
      else if t.len < 8 + plen then None
      else begin
        (* decoded where it lies; the packet shares no bytes with [buf] *)
        let decoded = Wire.decode t.buf ~pos:0 in
        Bytes.blit t.buf (8 + plen) t.buf 0 (t.len - 8 - plen);
        t.len <- t.len - 8 - plen;
        match decoded with
        | Ok (pkt, _) -> Some pkt
        | Error e -> corrupt "Framebuf" e
      end
end

module Pipe = struct
  let parent_addr ~nodes = nodes

  let write_all fd bytes =
    let n = Bytes.length bytes in
    let off = ref 0 in
    while !off < n do
      off := !off + Unix.write fd bytes !off (n - !off)
    done

  let endpoint ~me ~nodes ~read_fd ~write_fd =
    Unix.set_nonblock read_fd;
    let fb = Framebuf.create () in
    let chunk = Bytes.create 65536 in
    let send (pkt : Wire.packet) = write_all write_fd (Wire.encode pkt) in
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

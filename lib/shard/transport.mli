(** Shard interconnect: who carries the {!Wire} frames.

    A transport value is one shard's endpoint — a [send] that ships an
    encoded packet toward its [dst] and a non-blocking [poll] that
    yields the next arrived packet, FIFO per channel.  An endpoint is
    used by one domain at a time: it encodes every send into its own
    reused {!Hdd_util.Binc} writer ({!Wire.encode_into}), so a send
    allocates nothing.

    A packet may name its sender's live state: a node's [Pub] carries
    its live registry ({!Wire.Live}) and its live delta marks, not a
    frozen copy.  That is sound because every carrier encodes the
    packet inside [send], before [send] returns, and keeps only the
    bytes: the frame is a snapshot of that state at send time.  A
    carrier (or a wrapper around [send]) must never hold on to a packet
    value to encode it later.  Two carriers:

    - {!Loopback}: an in-memory pipe per destination.  A send appends
      its sealed frame to the destination's {!Framebuf} under that
      destination's own lock, and [poll] decodes the frames there in
      place, so the bytes exercised are the bytes a socket would
      carry and no frame becomes a value of its own.  Delivery is FIFO
      per sender and destination, and a {!Netfault.plan} can
      drop/duplicate/delay/reorder {e publication} frames only — the
      fault suite's contract; its held frames are copies, kept under a
      lock of the plan's own.  Safe from a single thread (the
      deterministic cluster) and across domains, one endpoint per
      domain.
    - {!Pipe}: a real [Unix] pipe endpoint for the forked process mode,
      star topology: every child speaks to the parent router, which
      forwards frames by [dst].  {!Framebuf} reassembles frames from
      the byte stream. *)

type t = {
  me : int;
  nodes : int;
  send : Wire.packet -> unit;
  poll : unit -> Wire.packet option;
}

val send_to : t -> dst:int -> stamp:Time.t -> Wire.msg -> unit

val broadcast : t -> stamp:Time.t -> Wire.msg -> unit
(** [send_to] every other node, ascending ids. *)

module Framebuf : sig
  (** A byte stream of frames, decoded where they lie.  Frames are
      read from an offset; the unread tail moves to the front only
      when a feed needs the room, and the buffer doubles only when
      moving is not enough.  A drained buffer starts again at the
      front. *)

  type t

  val create : unit -> t

  val feed : t -> bytes -> len:int -> unit
  (** Append the first [len] bytes. *)

  val next : t -> Wire.packet option
  (** The next complete frame, if any.
      @raise Hdd_util.Binc.Error on a length header outside
      [\[0, Binc.max_payload\]] (refused at once, not waited on) or a
      frame the codec refuses (pipes do not corrupt; anything else is
      a bug). *)

  val route :
    t ->
    from:int ->
    nodes:int ->
    forward:(int -> bytes -> int -> int -> unit) ->
    Wire.packet option
  (** The process router's read of child [from]'s stream.  Each
      complete frame's header and CRC are checked and its [dst] read
      from the first payload bytes ({!Wire.dst_of}); a frame for a
      shard ([0 <= dst < nodes]) goes to [forward dst buf pos len] as
      the bytes it lies in, undecoded, and the next frame follows.
      The first frame for the router itself (address [nodes]) is
      decoded and returned; [None] once no complete frame is left.
      [forward] must copy or write the bytes before it returns.
      @raise Hdd_util.Binc.Error naming shard [from] on a frame that
      fails its checks or addresses neither a shard nor the router, and
      as {!next} does. *)
end

module Loopback : sig
  val create : ?fault:Netfault.plan -> nodes:int -> unit -> t array
  (** One endpoint per node.  With [fault], every [Wire.Pub] send
      consumes one {!Netfault.on_pub} ordinal; held frames that never
      age out are dropped at the end of the run (a delay is allowed to
      degenerate into a drop — both are mere staleness).  [poll] raises
      [Hdd_util.Binc.Error] on a frame the codec refuses. *)
end

module Pipe : sig
  val endpoint :
    me:int ->
    nodes:int ->
    read_fd:Unix.file_descr ->
    write_fd:Unix.file_descr ->
    t
  (** An endpoint over two fds.  [poll] reads whatever is available
      without blocking; [send] writes the whole frame.  [dst] rides in
      the packet, so a router on the peer end can forward.  In the star
      topology the parent is address [nodes] (see {!parent_addr}). *)

  val parent_addr : nodes:int -> int
  (** The router's own address: control messages ([Outcome],
      [Trace_slice], [Bye]) are sent to it rather than to a shard. *)

  val write_packet : Hdd_util.Binc.writer -> Unix.file_descr -> Wire.packet -> unit
  (** Encode the packet into the reused writer and write the whole
      frame (the endpoint's and the router's send). *)

  val write_frame : Unix.file_descr -> bytes -> pos:int -> len:int -> unit
  (** Write [len] bytes of a frame from [pos], all of them: what the
      router forwards. *)
end

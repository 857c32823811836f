(** Binary encoding of write-ahead-log records.

    Fixed little-endian framing: a 4-byte payload length, a 4-byte CRC-32
    of the payload ({!Hdd_util.Binc.crc32_sub}), then the payload: a
    1-byte tag and 8-byte signed fields.  Torn tails (a crash mid-append)
    decode as [`Truncated]; flipped bits as [`Corrupt]; both stop
    recovery at the last intact prefix, which is exactly the contract
    {!Wal} needs. *)

type record =
  | Begin of { txn : Txn.id; class_id : int; init : Time.t }
  | Write of { txn : Txn.id; granule : Granule.t; ts : Time.t; value : int }
  | Commit of { txn : Txn.id; at : Time.t }
  | Abort of { txn : Txn.id; at : Time.t }
  | Wall of { released_at : Time.t; components : Time.t array }
      (** a released time-wall vector.  Never written to the WAL itself:
          it is the trailer of a log-shipping batch ({!Replica}), placed
          last so a partially applied batch never advances the replica's
          wall past the records it actually holds. *)

val equal_record : record -> record -> bool
val pp_record : Format.formatter -> record -> unit

val encode : record -> Bytes.t
(** Full frame: header plus payload, built in one buffer of exact size. *)

val decode : Bytes.t -> pos:int -> (record * int, [ `Truncated | `Corrupt ]) result
(** [decode buf ~pos] reads one frame starting at [pos]; on success
    returns the record and the position just past the frame. *)

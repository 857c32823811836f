(** The domain run loop of {!Engine.run_script}, {!Engine.run_timed},
    [Hdd_shard.Cluster.run_script_domains] and [Hdd_shard.Shardbench]:
    one domain per member, one failure cell.  A raise in a member, in
    the caller's [feed] or in its [poll] fails the run: the first
    exception is kept, the crew halts, waits that check
    {!leave_if_failed} leave, and once every member has exited the
    exception is re-raised to the caller instead of the run hanging.

    A member's {!Wait.until} that outlasts its budget raises
    {!Wait.Stalled}, which fails the run like any raise: the run ends
    with that [Stalled] instead of hanging. *)

exception Peer_failed
(** Raised by {!leave_if_failed}; the run re-raises the failing
    party's exception, never this one. *)

type t

val create : int -> t
(** A crew of [n] members, numbered [0 .. n-1]. *)

val run :
  t -> ?poll:(unit -> unit) -> feed:(unit -> unit) -> (int -> 'a) ->
  'a array
(** Spawn a domain per member [i] running [member i], run [feed] here,
    then [poll] one {!Wait.nap} apart until every member has exited;
    join them and return their results in order, or re-raise. *)

val failed : t -> bool

val leave_if_failed : t -> unit
(** @raise Peer_failed once the run has failed. *)

val halt : t -> unit

val halted : t -> bool
(** Asked to stop, or failed. *)

val gone : t -> int -> bool
(** Member [i] has exited, returned or raised. *)

val linger : t -> (unit -> unit) -> unit
(** For a member done with its own work: call [serve], one {!Wait.nap}
    apart, until the crew halts; the last member to get here halts
    it. *)

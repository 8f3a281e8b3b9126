(** Agents: the sending ends of streams.

    "We use agents to identify activities; agents define the sending
    ends of streams. An agent has a unique name and belongs to a single
    entity" (§2). All calls an agent makes to ports in one group travel
    on one stream and are therefore sequenced; calls by different
    agents — even to the same group — use different streams and can be
    processed concurrently at the receiver.

    An agent lazily opens one {!Cstream.Stream_end.t} per (destination,
    group) and reuses it for every call. *)

type t

val create : Cstream.Chanhub.hub -> name:string -> ?config:Cstream.Chanhub.config -> unit -> t
(** [config] sets the buffering/retransmission parameters of every
    stream this agent opens. *)

val name : t -> string

val sched : t -> Sched.Scheduler.t

val hub : t -> Cstream.Chanhub.hub

val stream_to : t -> dst:Net.address -> gid:string -> Cstream.Stream_end.t
(** The agent's stream to that port group (opened on first use). If the
    previous incarnation broke it is {e not} restarted automatically
    here; restart it with {!Cstream.Stream_end.restart} (§2's
    restart). *)

val flush_all : t -> unit
(** Flush every stream this agent has open. *)

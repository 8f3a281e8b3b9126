(** Standard simulated deployments used by experiments and examples. *)

(** A client node facing a single server guardian that provides the
    [work] handler ([int -> int], configurable service time). *)
type pair = {
  sched : Sched.Scheduler.t;
  net : Cstream.Chanhub.frame Net.t;
  client_node : Net.node;
  server_node : Net.node;
  client_hub : Cstream.Chanhub.hub;
  server : Argus.Guardian.t;
}

(** How an experiment's client issues its calls: one RPC at a time,
    stream calls or sends batched [b] to a packet, or stream calls
    under Nagle-style adaptive flushing. *)
type mode = Rpc | Stream of int | Send_mode of int | Adaptive

val mode_name : mode -> string
(** The mode's row label in the E-tables. *)

val chan_config : mode -> Cstream.Chanhub.config
(** The mode's stream config: {!Cstream.Chanhub.rpc_config}; a flush at
    [b] items or after 1 ms; or {!Cstream.Chanhub.adaptive_config}.
    [chan_config (Stream 16)] is the batching config every experiment's
    stream calls use unless it measures batching itself. *)

val work_sig : (int, int, Core.Sigs.nothing) Core.Sigs.hsig
(** [work: port (int) returns (int)] — replies with its argument. *)

val make_pair :
  ?cfg:Net.config ->
  ?seed:int ->
  ?service:float ->
  ?group_config:Cstream.Group_config.t ->
  ?ack_delay:float ->
  unit ->
  pair
(** Build the two-node world; [service] is the handler's per-call
    compute time, [group_config] the server group's whole
    {!Cstream.Group_config.t} (reply buffering, ordering, dedup,
    shards), [ack_delay] (default 0: the end of the scheduler turn) is
    how long both hubs hold an ack for a reverse-direction Data packet —
    see {!Cstream.Chanhub.create_hub}. *)

val work_handle :
  pair -> ?config:Cstream.Chanhub.config -> agent:string -> unit ->
  (int, int, Core.Sigs.nothing) Core.Remote.h
(** A fresh agent on the client bound to the server's [work] port. *)

(** The grades deployment of the paper's running example: a client, a
    grades database guardian and a printer guardian on three nodes. *)
type grades_world = {
  g_sched : Sched.Scheduler.t;
  g_net : Cstream.Chanhub.frame Net.t;
  g_client_node : Net.node;
  g_db_node : Net.node;
  g_printer_node : Net.node;
  g_client_hub : Cstream.Chanhub.hub;
  g_db : Argus.Guardian.t;
  g_printer : Argus.Guardian.t;
  g_printed : string list ref;  (** lines, newest first *)
  g_db_busy : (float * float) list ref;
      (** busy intervals of the database handler (for timelines) *)
  g_print_busy : (float * float) list ref;
}

val make_grades_world :
  ?cfg:Net.config ->
  ?seed:int ->
  ?db_service:float ->
  ?print_service:float ->
  ?group_config:Cstream.Group_config.t ->
  unit ->
  grades_world

val students : int -> (string * int) list
(** [n] (name, grade) pairs in alphabetical name order, grades
    deterministic. *)

val db_handle :
  grades_world -> ?config:Cstream.Chanhub.config -> agent:string -> unit ->
  (string * int, float, Core.Sigs.nothing) Core.Remote.h

val print_handle :
  grades_world -> ?config:Cstream.Chanhub.config -> agent:string -> unit ->
  (string, unit, Core.Sigs.nothing) Core.Remote.h

(** {1 Timing helper} *)

val timed_run : Sched.Scheduler.t -> (unit -> unit) -> float
(** Spawn the body as the main fiber, run to quiescence, and return the
    virtual time at which the body finished (which may be earlier than
    the final event — e.g. dangling retransmit timers). Raises
    [Failure] on deadlock or if the body raised. *)

exception Deadlock of string list
(** Raised by {!timed_run} when the run deadlocks; carries the names of
    the stuck fibers. *)

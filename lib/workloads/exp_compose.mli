(** Experiments E3 and E4: stream composition (§4 of the paper). *)

val e3 : ?svc:float -> ?produce_cost:float -> unit -> Table.t

(** A client and three servers (reader / computer / writer) for the
    three-level cascade of §4. *)
type cascade_world = {
  cw_sched : Sched.Scheduler.t;
  cw_read : (int, int, Core.Sigs.nothing) Core.Remote.h;
  cw_compute : (int, int, Core.Sigs.nothing) Core.Remote.h;
  cw_write : (int, unit, Core.Sigs.nothing) Core.Remote.h;
  cw_cpu : Cpu.t;
  cw_written : int ref;
}

val make_cascade :
  ?group_config:Cstream.Group_config.t -> svc:float -> cores:int -> unit -> cascade_world
(** [group_config] configures all three server port groups (reply
    buffering, dedup, …; default {!Cstream.Group_config.default}). *)

val cascade_staged : cascade_world -> n:int -> filter_cost:float -> unit
(** Staged loops: all reads, then all computes, then all writes. *)

val cascade_per_stream : cascade_world -> n:int -> filter_cost:float -> unit
(** One process per stream, joined by queues (the paper's choice). *)

val cascade_per_item :
  cascade_world -> n:int -> filter_cost:float -> proc_overhead:float -> unit
(** One process per data item, sequenced per stream (§4.3). *)

val e4 : ?n:int -> ?svc:float -> ?proc_overhead:float -> unit -> Table.t

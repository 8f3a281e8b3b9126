(** Experiments E1, E2, E9: the call-stream performance claims of §2
    (see DESIGN.md §4 and EXPERIMENTS.md). *)

val e1 : ?n:int -> ?service:float -> unit -> Table.t
(** Throughput of N calls: RPC vs stream calls across batch sizes and
    latencies. *)

val e2 : ?n:int -> unit -> Table.t
(** Messages and bytes on the wire per mechanism. *)

val e9 : unit -> Table.t
(** Reply latency: passive buffering vs flush vs synch. *)

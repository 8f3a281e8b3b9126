(** E17: the simulator as predictor — the E12/E13 workloads over the
    simulated net and over real loopback TCP, side by side
    (docs/TRANSPORT.md). *)

type row = {
  r_workload : string;
  r_backend : string;  (** ["sim"] or ["tcp"] *)
  r_calls : int;
  r_ok : bool;  (** [false]: TCP unavailable (sandbox), row is a skip *)
  r_time : float;  (** completion, seconds: sim = predicted, tcp = measured *)
  r_data_frames : int;  (** Data packets sent by both hubs: sim and tcp agree *)
  r_items : int;  (** items those Data packets carried: sim and tcp agree *)
  r_ack_frames : int;  (** standalone Ack packets: tcp sends no more than sim *)
  r_msgs : int;  (** every frame that crossed the substrate *)
  r_bytes : int;
}

val e17_rows : ?n:int -> ?depth:int -> unit -> row list
(** Four rows: stream batch (sim, tcp), pipelined chain (sim, tcp).
    [n] stream calls (default 400), chain depth [depth] (default 4). *)

val e17 : ?n:int -> ?depth:int -> unit -> Table.t

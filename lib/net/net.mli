(** Simulated network of nodes.

    The paper's evaluation substrate was a physical network; here it is
    a deterministic discrete-event model with the cost knobs the
    paper's claims depend on:

    - a fixed {e kernel overhead} per message at each end — the cost
      that call-streams amortise by buffering several calls per
      message (§2);
    - a {e per-byte} transmission cost and a {e propagation latency};
    - optional loss and duplication (exercised by the reliable channel
      layer), partitions and node crashes (the sources of stream
      breaks).

    Payloads are polymorphic: a network instance carries one message
    type chosen by its user (the call-stream layer). *)

type 'msg t
(** A network carrying messages of type ['msg]. *)

type node
(** A node (one machine); entities/guardians live on nodes. *)

type address = int
(** Stable node identifier, assigned at {!add_node}. *)

type config = {
  kernel_overhead : float;
      (** seconds of overhead charged per message at the sending side
          and again at the receiving side *)
  wire_latency : float;  (** propagation delay, seconds *)
  per_byte : float;  (** transmission seconds per payload byte *)
  loss_rate : float;  (** probability a message is silently dropped *)
  duplicate_rate : float;  (** probability a message is delivered twice *)
  jitter : float;  (** uniform extra delay in [0, jitter) seconds *)
}

val default_config : config
(** LAN-ish defaults: 50 us kernel overhead, 1 ms latency, 1 us/byte,
    no loss, no duplication, no jitter. *)

val lossy : ?loss:float -> ?dup:float -> config -> config
(** Convenience for deriving a faulty variant of a config. *)

val create : Sched.Scheduler.t -> config -> 'msg t
(** Make a network driven by the given scheduler's clock. Loss,
    duplication and jitter draw from an RNG split off the scheduler's. *)

val sched : 'msg t -> Sched.Scheduler.t

val stats : 'msg t -> Sim.Stats.t
(** Counters maintained per network: [msgs_sent], [msgs_delivered],
    [msgs_lost], [msgs_duplicated], [msgs_dropped_crash],
    [msgs_dropped_partition], [bytes_sent], [bytes_delivered]. *)

val config : 'msg t -> config
(** The network's current cost/fault knobs. The config is {e live}: the
    fault layer mutates it mid-run (loss and jitter bursts), and every
    send reads the values in force at send time. *)

val update_config : 'msg t -> (config -> config) -> unit
(** [update_config t f] replaces the config with [f (config t)] —
    used by {!Fault} for loss/jitter bursts that later restore the
    baseline. *)

(** {1 Nodes} *)

val add_node : 'msg t -> name:string -> node

val address : node -> address

val node_name : node -> string

val set_receiver : 'msg t -> node -> (src:address -> 'msg -> unit) -> unit
(** Install the upcall invoked (in scheduler context) when a message is
    delivered to this node. Installing again replaces the previous
    receiver. *)

val find_node : 'msg t -> address -> node option

(** {1 Sending} *)

val send : 'msg t -> src:node -> dst:address -> bytes_:int -> 'msg -> unit
(** Fire-and-forget transmission. The message is delivered to the
    destination's receiver after [2 * kernel_overhead + wire_latency +
    per_byte * bytes_ (+ jitter)], unless it is lost, a crash or
    partition intervenes, or either node is crashed now. [send] never
    blocks; CPU costs are charged by the caller if desired. *)

(** {1 Failures} *)

val crash : 'msg t -> node -> unit
(** Stop the node: messages from or to it are dropped from now on;
    in-flight messages to it are dropped at delivery time. *)

val recover : 'msg t -> node -> unit

val crashed : node -> bool

val partition : 'msg t -> address -> address -> unit
(** Block traffic in both directions between two nodes. *)

val heal : 'msg t -> address -> address -> unit

(** The transport seam (docs/TRANSPORT.md).

    `Chanhub` builds reliable ordered channels out of unreliable frame
    delivery; this interface is everything it needs from below — send
    an encoded frame to a node address, get frames delivered upward,
    hear about peers going away, and know the per-frame receive
    overhead to charge. Two backends implement it:

    - {!Transport_sim} wraps the simulated {!Net} byte-identically —
      every existing experiment and test runs through it unchanged;
    - {!Transport_tcp} runs the same frames, length-prefixed, over real
      Unix/TCP sockets and drives the scheduler in real time.

    A transport endpoint is a plain record of closures rather than a
    functor or first-class module: the stream layer stores one per hub
    and calls through it on the hot path, and a flat record keeps that
    call a single indirect jump. *)

type address = int
(** Node address. The sim backend uses {!Net.address} values; the TCP
    backend maps addresses to socket addresses through its address
    book. One address space per world, whichever backend carries it. *)

type frame = string
(** An encoded packet, opaque to the transport. The stream layer's
    codec ({!Chanhub}) produces it; byte counts for accounting and cost
    models are its [String.length]. *)

type t = {
  addr : address;  (** this endpoint's own address *)
  node_name : string;  (** human name for traces and errors *)
  backend : string;  (** ["sim"] or ["tcp"]; shown in E17 tables *)
  sched : Sched.Scheduler.t;  (** the scheduler delivering upcalls *)
  stats : Sim.Stats.t;
      (** byte/frame accounting: the sim backend exposes the network's
          registry ([msgs_sent], [bytes_sent], ...); the TCP backend
          maintains [transport_frames_sent], [transport_bytes_sent],
          [transport_frames_received], [transport_bytes_received]. *)
  send : dst:address -> frame -> unit;
      (** Fire-and-forget, never blocks, may silently drop (unreachable
          peer, mid-dial failure); the stream layer's retransmission
          recovers. Delivery order per (src, dst) pair is FIFO while
          the connection (or simulated link) lives. *)
  set_receiver : (src:address -> frame -> unit) -> unit;
      (** Install the upcall for frames addressed here. Always invoked
          in scheduler context; installing again replaces. *)
  set_peer_watch : (peer:address -> reason:string -> unit) -> unit;
      (** Install the connection-down upcall. The sim backend never
          fires it (the simulated net has no connections — loss and
          partitions surface as silence, crashes via {!Fault}); the TCP
          backend fires it in scheduler context when a connection to
          [peer] drops, so stream breaks map onto the existing
          break → supervision → resubmit path. *)
  recv_overhead : unit -> float;
      (** Seconds of kernel overhead the receive path should charge per
          frame. The sim backend reads the live {!Net.config} at call
          time (the fault layer mutates it mid-run); the TCP backend
          returns [0.0] — real costs are already real. *)
  realtime : bool;
      (** Whether this endpoint's scheduler runs on the wall clock
          ({!Sched.Scheduler.set_realtime_driver}). *)
}

(** Reliable, ordered, batching message channels over the lossy {!Net}.

    Call-streams promise "exactly-once, ordered delivery" (§2 of the
    paper) on top of a network that can lose, duplicate and delay
    messages. This module supplies that guarantee as unidirectional
    {e channels}: sequence numbers, cumulative acknowledgements,
    go-back-n retransmission and duplicate suppression. The stream
    layer composes two channels (calls one way, replies the other) into
    one call-stream.

    Buffering also lives here: a channel accumulates items and sends
    them as one network message when any of (a) [max_batch] items or
    [max_batch_bytes] encoded bytes are waiting, (b) [flush_interval]
    has elapsed since the first waiting item, (c) [flush_on_idle] is
    set and nothing is in flight (Nagle-style: an idle channel sends
    what it holds at the end of the current scheduler turn, and later
    items coalesce while the wire is busy), or (d) the user flushes
    explicitly — "stream calls and their replies are buffered and sent
    when convenient".

    Packets travel as {!frame}s — compact binary strings produced by
    {!Xdr.Bin} (see docs/WIRE.md) — so every byte count the simulator
    charges is the actual encoded size. Cumulative acks park per peer
    and piggyback on the next reverse-direction Data packet; a
    standalone Ack carrying every parked entry is the fallback, sent
    once the hub's [ack_delay] expires — at the default 0, at the end
    of the current scheduler turn, after the turn's idle-channel
    flushes to that peer have taken what they could. A sender-
    side sliding window ([max_inflight_bytes]) lets a slow receiver
    back-pressure callers through {!offer}. Each item is encoded once,
    when it is sent, into its channel's open packet (a pooled encoder
    whose intern table the packet shares); the window and
    [max_batch_bytes] are charged the bytes it added there, and a flush
    writes the packet head in front of them.

    Each node owns a {e hub} that multiplexes all channel endpoints on
    that node. A channel is named by (source address, index), the index
    being unique per sending hub; on the wire Data and acks spell only
    the index (the source is the frame's transport sender). The
    channel's [label] and [meta] ride once, on a Data packet starting
    at seq 0 (the {e opening} packet, re-sent whenever go-back-n
    retransmits from seq 0). The label is the rendezvous name — a hub
    registers a factory per label and inbound channels with that label
    are accepted by it. The [meta] string rides along for the stream
    layer (it carries the reply-channel label). *)

type hub
(** Per-node endpoint multiplexer. *)

type out_chan
(** Sending end of a channel (lives on the source node). *)

type in_chan
(** Receiving end of a channel (lives on the destination node). *)

type key = { src : Net.address; label : string; idx : int; meta : string }
(** A channel's full identity, as both ends know it ({!in_key},
    {!out_key}). *)

type ack_entry = {
  a_idx : int;
      (** index of the acked channel on the hub receiving the ack (its
          sender) *)
  a_upto : int;  (** cumulative: every seq [<= a_upto] is acknowledged *)
  a_pressure : int;
      (** receiver queue-depth signal riding on the ack: [0] relaxed,
          [1] approaching the shed high-water mark, [2] at or over it.
          Senders with an adaptive window treat [2] as congestion
          (multiplicative decrease) and [1] as "hold growth"; a peer's
          [3] (the wire clamps to [0..3]) reads as congestion too. *)
}

type opening = { open_label : string; open_meta : string }
(** The fields a receiver needs once, to accept a channel: its
    {!key.label} and {!key.meta}. *)

(** One packet grammar, parameterised by its item: {!Xdr.value} trees
    for the public codec below, {!Xdr.View.t} slices on a hub's
    receive path (see {!set_deliver}). *)
type 'item packet =
  | Data of {
      idx : int;  (** at most [max_int lsr 2], or decoding refuses it *)
      first_seq : int;
      opening : opening option;
          (** [Some] exactly when [first_seq = 0]; {!encode_packet}
              raises [Invalid_argument] otherwise *)
      acks : ack_entry list;
          (** cumulative acks for reverse-direction channels,
              piggybacked on this data packet *)
      items : 'item list;
    }
  | Ack of { acks : ack_entry list }
  | Reset of { src : Net.address; idx : int; reason : string }
      (** [(src, idx)] names the channel by its sender, whichever end
          sends the Reset *)

type frame = string
(** A packet encoded for the wire: what actually travels through
    {!Net}. *)

val encode_packet : Xdr.value packet -> frame
(** A version-3 frame (docs/WIRE.md §2). It decodes on its own: no
    state carries over from earlier frames to the same peer. Raises
    [Invalid_argument] on an ack [a_idx] outside [0 .. max_int lsr 2]. *)

val decode_packet : frame -> (Xdr.value packet, string) result
(** Decode a version-3 packet frame. Total: malformed frames, other
    versions and kind bytes outside the grammar yield [Error], never
    an exception. *)

val decode_packet_view : frame -> (Xdr.View.t packet, string) result
(** {!decode_packet} with every Data item left an encoded slice, as a
    hub's receive path reads it before {!set_deliver}. *)

type config = {
  max_batch : int;  (** flush after this many buffered items *)
  max_batch_bytes : int;  (** … or this many bytes of buffered items *)
  flush_interval : float;
      (** flush this long after the first buffered item (seconds);
          [infinity] disables timed flushing *)
  flush_on_idle : bool;
      (** Nagle-style: when nothing is awaiting an ack, flush at the
          end of the current scheduler turn — never on a clock, and
          whatever the hub's [ack_delay] — with the acks parked for the
          peer riding along; while data is in flight, buffer up to the
          other limits and flush when the ack drains the wire *)
  retransmit_timeout : float;
  max_retries : int;  (** consecutive unanswered retransmits before break *)
  max_inflight_bytes : int;
      (** sliding-window budget: {!offer} refuses an item while this
          many encoded bytes are buffered or unacked. With
          [adaptive_window] this is the window {e ceiling}. *)
  adaptive_window : bool;
      (** AIMD flow control (docs/OVERLOAD.md): the live window starts
          at [window_min_bytes], grows by [window_increase] bytes per
          clean ack round, and is cut multiplicatively on retransmit,
          ack-RTT inflation, or receiver pressure — at most once per
          outstanding flight. The cut factor and the inflation ratio
          are constants (see {!aimd_config}). *)
  window_min_bytes : int;  (** adaptive window floor (and start value) *)
  window_increase : int;  (** additive increase per clean ack, bytes *)
}

val default_config : config
(** [max_batch = 8], [max_batch_bytes = 4096], [flush_interval = 2 ms],
    [flush_on_idle = false], [retransmit_timeout = 50 ms],
    [max_retries = 10], [max_inflight_bytes = max_int] (window
    disabled). *)

val rpc_config : config
(** No buffering: every item is sent immediately ([max_batch = 1]) —
    "RPCs and their replies are sent over the network immediately". *)

val adaptive_config : config
(** Nagle-style adaptive batching: [flush_on_idle = true] with
    [max_batch = 64], [max_batch_bytes = 1024] and an 8 KiB in-flight
    window — low latency when idle, aggressive coalescing under load.
    An idle channel sends at the end of the turn, so a turn's calls
    (or replies) leave as one packet and carry the acks parked for
    that peer: a pipelined chain whose server replies in the turn the
    calls arrive costs one packet each way and no standalone Ack. A
    hub [ack_delay] lets acks wait longer for a ride. The window is
    still static; see {!aimd_config} for the adaptive variant. *)

val aimd_config : config
(** {!adaptive_config} plus AIMD flow control: [adaptive_window = true]
    with a 64 KiB ceiling, 512 B floor and +256 B additive increase
    (docs/OVERLOAD.md). Every adaptive window uses two fixed constants:
    a cut multiplies the window by [window_cut_factor = 0.5], and an
    ack whose RTT sample exceeds [rtt_congestion_ratio = 2.0] times the
    RTT average counts as congestion. *)

(** {1 Hubs} *)

val create_hub :
  ?ack_delay:float ->
  ?transport:Transport.t ->
  ?net:frame Net.t * Net.node ->
  unit ->
  hub
(** Create a hub on an endpoint and install it as the endpoint's
    receiver and peer watch. Pass {e exactly one} of [~transport] (any
    {!Transport.t} — docs/TRANSPORT.md) or [~net] (a simulated node:
    shorthand for [~transport:(Transport_sim.endpoint net node)]);
    anything else raises [Invalid_argument].

    [ack_delay] (default [0.]) is how long an ack may wait for a ride:
    every ack parks per destination, merged with that peer's other
    pending entries, and leaves on the next Data packet to the peer;
    whatever is still pending when the [ack_delay] timer fires goes out
    as one standalone Ack packet. At [0.] the timer fires at the end of
    the current scheduler turn (due timers run only once the run queue
    is empty, before time advances or the transport blocks), so an ack
    rides a reply sent in the same turn and otherwise adds no latency.
    Keep a positive delay well under the senders' [retransmit_timeout].
    A transport peer-down breaks every channel to or from that peer,
    drops the acks parked for it and clears that peer's tombstones: the
    peer broke every channel it sent on when it lost the same
    connection, so nothing of the old incarnation can arrive later, and
    a restarted peer that numbers its channels from 0 again opens them
    afresh instead of meeting its predecessor's [Reset]s. *)

val hub_addr : hub -> Net.address
(** This hub's transport address (the node address in sim mode). *)

val hub_sched : hub -> Sched.Scheduler.t
(** The hub's scheduler. Channel-layer counters are recorded in this
    scheduler's {!Sim.Stats} registry — [chan_retransmits],
    [chan_dup_items_suppressed], [chan_out_breaks], [chan_in_breaks],
    [chan_data_packets], [chan_ack_packets], [chan_reset_packets],
    [chan_wire_bytes], [chan_items_sent], [chan_piggybacked_acks],
    [chan_standalone_acks], [chan_decode_errors],
    [chan_unopened_drops] (compact Data for a channel never opened
    here, dropped without a Reset), [chan_spoofed_drops] (a Reset not
    sent by the named channel's peer, dropped), [chan_window_cuts].

    A hub accepts a channel's traffic only from that channel's peer,
    the transport sender of the frame: an ack only from the acked
    channel's receiver, a Reset only from the other end of the channel
    it names — the destination of one of our sending channels, the
    source of one of our receiving ones. A Data packet feeds the
    channel [(transport sender, idx)]: a node can name only its own. *)

val outcomes : hub -> Wire.routcome Pipeline.Registry.t
(** The node's promise-pipelining outcome registry (docs/PIPELINE.md),
    built with the hub at the default bounds. Every port group
    ({!Target}) on the node records its Call outcomes into it and parks
    pipelined calls on it, so a reference to any call on the node
    resolves whichever group runs the dependent call; outcome pushes
    (docs/HANDOFF.md) are recorded in it as they arrive. *)

val on_connect : hub -> label:string -> (in_chan -> unit) -> unit
(** Register the acceptor for inbound channels labelled [label]. It
    runs once per new inbound channel, when its opening packet arrives,
    and must install the channel's consumer with {!set_deliver} before
    returning: the items of that first packet are delivered right after
    it returns, and a channel without a consumer drops what it
    receives. An opening packet for an unregistered label is answered
    with a [Reset]. *)

val remove_acceptor : hub -> label:string -> unit

(** {1 Sending end} *)

val connect : hub -> dst:Net.address -> label:string -> meta:string -> config -> out_chan
(** Open a channel to the hub at [dst]. No handshake message is sent;
    the first data packet establishes the channel at the receiver. *)

val send : out_chan -> Xdr.value -> (unit, string) result
(** Buffer one item for ordered delivery, whatever the window, and run
    the flush rules ({!commit}). [Error reason] means the channel is
    (already) broken — a break racing a buffered send is a normal
    condition under churn, not a programming error, so it is reported
    as a value rather than an exception. Never blocks. *)

val offer : out_chan -> Xdr.value -> (bool, string) result
(** The window-checked send, minus the flush rules: encode the item and
    buffer it if inflight + item [<=] the live window, always when
    nothing is in flight and always outside fiber context (timer
    callbacks never wait) — [Ok true]; the caller then claims the
    item's sequence number and calls {!commit}, with nothing that can
    yield in between. Otherwise rewind the encoder, park the calling
    fiber until an ack frees bytes and return [Ok false]: the caller
    builds its item again (its position and port form may have changed)
    and offers that. [Error reason] when the channel is broken, or
    breaks while the fiber is parked. *)

val commit : out_chan -> unit
(** Run the flush rules for the item {!offer} just admitted: it leaves
    now, at the end of the turn or on the flush timer. *)

val inflight_bytes : out_chan -> int
(** Encoded bytes currently buffered plus sent-but-unacked. *)

val window_bytes : out_chan -> int
(** The live sender window. Equal to [max_inflight_bytes] for a static
    config; moved between [window_min_bytes] and [max_inflight_bytes]
    by the AIMD controller for an adaptive one. *)

val rtt_ewma : out_chan -> float
(** Exponentially weighted moving average of observed ack RTTs
    (alpha 0.125, Karn-filtered: retransmitted items contribute no
    sample). [0.] until the first clean sample. *)

val on_ack : out_chan -> (int -> int -> unit) -> unit
(** Install a hook fired once per cumulative ack that frees items, with
    the first and last seq it freed. The pipelining outcome registry
    uses this to learn when a reply can no longer be retransmitted — its
    outcome becomes safely evictable (docs/PIPELINE.md). At most one
    hook. *)

val flush_out : out_chan -> unit
(** Transmit everything buffered now. *)

val out_key : out_chan -> key

val out_broken : out_chan -> string option
(** Reason the channel broke, if it did. *)

val on_out_break : out_chan -> (string -> unit) -> unit
(** Register a break callback (fires at most once, in scheduler
    context). Several callbacks may be registered. *)

val break_out : out_chan -> reason:string -> unit
(** Break locally (e.g. stream restart): pending items are dropped and
    a [Reset] is pushed to the receiver so it discards state. *)

val unacked_count : out_chan -> int
(** Items sent but not yet acknowledged plus items still buffered. *)

type table_sizes = { outs : int; ins : int; dead : int }
(** Entries in a hub's tables of sending ends (a broken one leaves at
    once), receiving ends and receiving-end tombstones. *)

val table_sizes : hub -> table_sizes

(** {1 Receiving end} *)

val set_deliver : in_chan -> (int -> Xdr.View.t list -> unit) -> unit
(** Install the in-order delivery callback (see {!on_connect} for when).
    Each invocation [f seq items] passes the items of one arriving
    network message (so the receiver can charge per-message costs);
    concatenated across calls the items appear exactly once, in send
    order, the [k]-th at channel position [seq + k]: the stream layer's
    sequence number, which items do not carry. Items arrive as
    validated {!Xdr.View.t} slices of the frame buffer — nothing is
    decoded until the consumer asks for it (docs/WIRE.md §Lazy views);
    a consumer that wants trees calls {!Xdr.View.materialize}. The
    views borrow frame state and are not domain-safe: materialise
    before offloading. The last call wins. *)

val in_key : in_chan -> key

val in_src : in_chan -> Net.address

val set_pressure : in_chan -> (unit -> int) -> unit
(** Install the receiver queue-depth probe sampled when this channel
    acks: the probe returns [0] (relaxed), [1] (approaching the shed
    mark) or [2] (at/over it), and the value rides on the ack as
    {!ack_entry.a_pressure}. Without a probe every ack reports [0]. *)

val break_in : in_chan -> reason:string -> unit
(** Receiver-initiated break: discard further data and tell the sender
    (it observes the reason via {!on_out_break}). *)

val on_in_break : in_chan -> (string -> unit) -> unit
(** Register a callback fired when this receiving end is broken — by
    {!break_in} locally or by a [Reset] from the sender (e.g. a stream
    restart). Fires immediately if already broken. *)

(** {1 Third-party handoff (docs/HANDOFF.md)}

    When a call is forwarded to the node that will consume a pipelined
    result, the result's producer pushes the outcome {e directly} to
    that node on a dedicated ["~handoff"]-labelled channel (one per
    destination peer, opened lazily over the transport's usual dial
    path). The receiving hub records each push in its {!outcomes}
    registry, whether or not a call waits for it yet, and marks it
    spare ({!Pipeline.Registry.mark_spare}), so under cap pressure a
    push is evicted after every acked local outcome and before any
    outcome a local caller has not acked. A push naming a stream sent
    to this node itself is dropped: only this node's groups produce
    those outcomes. A push whose outcome is
    already recorded joins it instead of re-resolving, so a push
    replayed after a crash is absorbed. Counters: [handoff_forwards]
    (outcomes pushed), [handoff_streams_opened] (push channels
    dialled), [handoff_dedup_joins] (pushes whose outcome was already
    recorded), [handoff_malformed_pushes] (pushed items that do not
    parse as an outcome push, or that name a stream sent to this node,
    dropped). *)

val handoff_epoch : hub -> int
(** This hub's handoff protocol epoch, stamped into every handoff
    annotation it forwards. A producer refuses an annotation whose
    epoch differs from its own ({!set_handoff_epoch} simulates an
    upgraded/downgraded peer in tests), and the forwarder falls back
    to proxying the value itself. *)

val set_handoff_epoch : hub -> int -> unit

val handoff_listen : hub -> unit
(** Accept outcome pushes on this hub (idempotent). {!Guardian.create}
    calls this, so any node that hosts handlers can be the target of a
    forwarded call. *)

val handoff_push :
  hub -> dst:Net.address -> stream:string -> call:int -> Wire.routcome -> unit
(** Push the outcome of [(stream, call)] to the hub at [dst], dialling
    the push channel if needed; it travels as {!Wire.outcome_value}. A
    push to this hub's own address is recorded locally. *)

(** {1 Transport access} *)

val hub_recv_overhead : hub -> float
(** Seconds of kernel overhead to charge per received message — the
    receiver layer bills it as processing time. Reads the transport's
    live cost model at call time: the simulated backend reports the
    current {!Net.config}'s [kernel_overhead] (the fault layer mutates
    it mid-run), a real backend reports [0.] because its costs are
    already wall-clock. *)

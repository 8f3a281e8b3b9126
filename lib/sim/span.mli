(** Structured causal-trace events (spans) for call lifecycles.

    A span store keeps {e typed} events — each tagged with a per-call
    trace id, the node that emitted it, and optionally the sending
    stream's stable id and stable call-id — so the full journey of one promise (issue →
    transmit → deliver → dispatch → execute → reply → ack → claim,
    docs/TRACING.md) can be reconstructed and rendered after a run.

    Recording is off by default; when disabled the store allocates no
    event buffer and {!record} costs one branch. Trace-id allocation
    ({!next_trace}) works even while disabled so ids stay stable when
    tracing is toggled mid-run.

    Domain-safe (docs/DOMAINS.md): each recording domain gets its own
    lock-free ring buffer, created on first use; {!events} merges the
    rings on a shared atomic ticket order. On a single domain that
    order {e is} insertion order, so deterministic runs render
    identically to the pre-domain store. *)

(** One lifecycle edge of a traced call. [Dispatch] notes the shard
    lane; [Park]/[Substitute] are the pipelining edges; [Break],
    [Resubmit], [Dedup_join] and [Dedup_replay] tell the
    exactly-once-across-incarnations story (docs/FAULTS.md). *)
type kind =
  | Issue  (** trace id allocated; call accepted by the sending stream *)
  | Enqueue  (** call item buffered into the out channel *)
  | Transmit  (** item left the sending node in a Data packet *)
  | Retransmit  (** item re-sent by the go-back-n timer *)
  | Deliver  (** item arrived (fresh, in order) at the receiving hub *)
  | Dispatch  (** call routed to an execution lane (note = lane) *)
  | Park  (** pipelined call waiting on a not-yet-produced outcome *)
  | Substitute  (** promise references replaced by produced values *)
  | Exec_begin  (** handler dispatch started *)
  | Exec_end  (** handler produced its outcome *)
  | Reply  (** reply item sent toward the caller *)
  | Ack  (** item acknowledged back to its sender *)
  | Claim  (** a claimant obtained the promise's outcome *)
  | Break  (** the call's stream broke while it was outstanding *)
  | Resubmit  (** call replayed on a new incarnation (same trace id) *)
  | Dedup_join  (** duplicate joined a still-running first execution *)
  | Dedup_replay  (** duplicate answered from the outcome cache *)
  | Shed  (** receiver rejected the call with [unavailable] under load
              (docs/OVERLOAD.md) *)
  | Handoff
      (** third-party handoff edge: the call (or its outcome) was
          forwarded toward the node that owns the pipelined result
          (docs/HANDOFF.md) *)

type event = {
  ev_time : float;
  ev_kind : kind;
  ev_trace : int;
  ev_node : int;  (** emitting node's address, [-1] if not node-bound *)
  ev_stream : string;  (** stable stream id ({!Wire.stable_stream_id}-shaped), [""] unknown *)
  ev_call : int;  (** stable call-id, [-1] unknown *)
  ev_note : string;
}

type t

val create : ?capacity:int -> unit -> t
(** [create ~capacity ()] keeps the last [capacity] events {e per
    recording domain} (default 16384). No buffer is allocated until a
    domain first records. *)

val enable : t -> bool -> unit

val enabled : t -> bool

val next_trace : t -> int
(** Allocate a fresh per-call trace id. Monotonic and never reset, so a
    resubmitted call keeps a globally unique id for its whole life. *)

val set_sampling : t -> int -> unit
(** [set_sampling t n] records only traces whose id satisfies
    [trace mod n = 0] — deterministic 1-in-N sampling so tracing stays
    affordable at fan-in scale (docs/TRACING.md). Sampled-out calls
    record nothing anywhere: the sending stream also omits the wire
    trace field for them, so the receiver stays silent too. [n = 1]
    (the default) records everything. Raises [Invalid_argument] on
    [n <= 0]. *)

val sampling : t -> int
(** The current 1-in-N sampling divisor. *)

val sampled : t -> int -> bool
(** [sampled t trace]: the store is enabled and [trace] passes the
    sampling filter. Events with no trace id ([trace < 0]) pass —
    they only arise on paths already gated by a sampled call. *)

val record :
  t ->
  time:float ->
  kind:kind ->
  trace:int ->
  ?node:int ->
  ?stream:string ->
  ?call:int ->
  ?note:string ->
  unit ->
  unit
(** Append an event when enabled and the trace is sampled; otherwise do
    nothing. *)

val events : t -> event list
(** All retained events, oldest first. *)

val events_of : t -> trace:int -> event list

val trace_ids : t -> int list
(** Distinct trace ids, in order of first retained event. *)

val has : t -> trace:int -> kind -> bool
(** Whether the trace has at least one event of this kind. *)

val clear : t -> unit

val kind_label : kind -> string

val kind_letter : kind -> char
(** The one-character Gantt mark for this kind. *)

val pp_event : Format.formatter -> event -> unit

val timeline : t -> trace:int -> string
(** The per-promise causal story: every event of one trace, oldest
    first, with inter-event deltas. *)

val gantt : ?width:int -> t -> string
(** Gantt-style text: one row per trace, grouped by sending stream, on
    a shared time axis (default 64 columns). *)

val dump : Format.formatter -> t -> unit
(** Every trace's {!timeline}, in first-appearance order. *)

(** {1 Two-run diff}

    Which edges did one run take that the other did not
    (docs/TRACING.md)? Because trace ids are allocated
    deterministically in issue order, two runs of the same workload
    line up trace-for-trace, and the diff of their span stores is the
    causal delta — e.g. the [break]/[resubmit]/[dedup-replay] edges
    only the chaos run took. *)

type side = [ `Left | `Right ]

val diff : t -> t -> (side * event) list
(** [diff a b] compares the two stores as multisets keyed on
    (kind, trace, node, stream, call) — timestamps and notes are
    ignored, multiplicity counts (three retransmits against one leaves
    two). Returns [a]'s unmatched events tagged [`Left] in [a]'s order,
    then [b]'s tagged [`Right]; empty iff the runs took identical
    edges. *)

val pp_diff : Format.formatter -> (side * event) list -> unit

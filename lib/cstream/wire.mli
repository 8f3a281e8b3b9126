(** Wire encoding of call and reply items carried on channels.

    A call-stream moves two kinds of items: call requests (sender to
    receiver) and replies (receiver back to sender). Both are encoded
    as {!Xdr.value}s so the channel layer stays payload-agnostic —
    mirroring the paper's split between the language-independent
    call-stream system and the typed language layer above it. *)

(** How a call wants its reply treated. [Send]s are the paper's third
    call kind: the caller only cares about abnormal termination, so a
    normal reply carries no result value (only a fixed-size completion
    marker, preserving reply ordering and [synch] while saving the
    result's bytes). *)
type kind = Call | Send

(** Outcome of a remote call as it travels on the wire. Signals carry
    the exception name and its (already encoded) arguments. *)
type routcome =
  | W_normal of Xdr.value
  | W_signal of string * Xdr.value
  | W_unavailable of string
  | W_failure of string

val pp_routcome : Format.formatter -> routcome -> unit

val stable_stream_id : src:Net.address -> reply_label:string -> string
(** The incarnation-independent identity of a sending stream, derived
    from the sender's address and the reply-channel label (with its
    trailing incarnation number stripped). Computed identically by the
    sender ({!Stream_end.stable_id}) and the receiver ({!Target}), it
    keys the receiver's dedup cache and the promise-pipelining outcome
    registry (docs/PIPELINE.md). *)

val stream_id_group : string -> string option
(** The port-group name embedded in a stable stream id — the group the
    identified stream sends its calls to. [None] if the id does not
    have the generated shape. The receiver uses this to reject a
    promise reference naming a stream that feeds a different guardian
    (whose registry is disjoint; docs/PIPELINE.md). *)

(** {1 Third-party handoff (docs/HANDOFF.md)} *)

(** An annotation riding on a call whose arguments contain a [Pref]
    produced on {e another} node: [ho_owner] is the address of the
    node that will produce the referenced outcome, [ho_stream] /
    [ho_call] identify it (stable stream id + stable call id), and
    [ho_epoch] is the forwarder's handoff protocol epoch — a receiver
    refuses a mismatched epoch and the sender falls back to proxying. *)
type handoff = { ho_owner : int; ho_stream : string; ho_call : int; ho_epoch : int }

val handoff_value : handoff -> Xdr.value

val parse_handoff : Xdr.value -> (handoff, string) result

val handoff_push_item : stream:string -> call:int -> Xdr.value -> Xdr.value
(** The outcome push the producing node sends directly to the node a
    call was forwarded to: the encoded outcome ({!outcome_value}) of
    [(stream, call)]. Carried on the reserved ["~handoff"] label. *)

val parse_handoff_push : Xdr.value -> (string * int * Xdr.value, string) result

val handoff_notice_port : string
(** ["~handoff"] — reserved port on every pipelining-enabled port
    group: a [Send] of a {!handoff_value} asking the group to push the
    identified outcome to [ho_owner]. A normal reply means accepted; an
    [unavailable] reply is a refusal and the sender proxies instead. *)

val handoff_redeem_port : string
(** ["~redeem"] — reserved port replying with the identified outcome
    itself: the claim-by-reference fallback for a refused handoff whose
    producer's reply was elided. *)

(** {1 Call items} *)

val call_item :
  ?resubmit:bool ->
  ?handoff:handoff list ->
  ?elide:bool ->
  ?cid:int ->
  trace:int option -> port:string -> kind:kind -> args:Xdr.value ->
  unit -> Xdr.value
(** The positional call envelope
    [[Int head; Str port; args; cid?; handoff?; trace?]]
    (docs/WIRE.md §1.2). The call's seq is its channel position, not a
    field. [cid] is the {e stable call-id}, monotonic over the whole
    life of the sending stream end — it never resets, so the receiver
    can deduplicate calls re-submitted after a reincarnation (see
    [docs/FAULTS.md]); pass it only when it differs from the position.
    [trace] is the call's causal trace id (docs/TRACING.md), the last
    element when present; with [trace:None] the item carries no trace
    bytes at all. [resubmit] (default [false]) marks a crash-recovery
    resubmission; a load-shedding receiver never sheds such a call
    (docs/OVERLOAD.md). [handoff] (default [[]]) lists the handoff
    annotations for foreign [Pref]s in [args]; [elide] (default
    [false]) asks the receiver to reply to a normal outcome with a
    value-free completion marker because the value travels by handoff
    push instead (docs/HANDOFF.md). The kind and the flags are bits of
    [head]; each optional element is present exactly when its head bit
    is set. *)

(** {1 Reply items} *)

val outcome_value : routcome -> Xdr.value
(** The encodable form of one bare outcome, outside any reply envelope.
    Exposed so byte budgets can size a stored outcome
    ([Xdr.Bin.size (outcome_value o)]); handoff pushes carry it. *)

val outcome_of_value : Xdr.value -> (routcome, string) result
(** Inverse of {!outcome_value} — a handoff push carries a bare
    outcome payload outside any reply item, so the receiving hub
    decodes it with this. *)

val reply_item : trace:int option -> routcome -> Xdr.value
(** Encodes the outcome; a [W_normal] reply to a [Send] should be
    constructed with {!send_ok_item} instead. A reply's channel position
    is its call's seq. The untraced normal reply is [[value]]; every
    other reply is [[Int head; payload...; trace?]] (two or more
    elements) with the outcome code in [head] (docs/WIRE.md §1.2). *)

val send_ok_item : trace:int option -> Xdr.value
(** Minimal "completed normally" reply for a [Send]: untraced, the
    empty list. *)

val item_trace : Xdr.value -> int option
(** The trace id carried by a call or reply item, if any. Total over
    arbitrary values — the channel layer applies it to every item it
    transmits, delivers or acknowledges (docs/TRACING.md). *)

(** {1 Lazy (view-based) parsing}

    The receive path (docs/WIRE.md §Lazy views): envelopes are parsed
    over {!Xdr.View.t} slices so the argument or outcome payload is
    never decoded unless a consumer asks for it. Every malformed
    envelope — a short list, a mistyped element, unknown head bits, a
    head bit naming a missing element, trailing elements, an unknown
    outcome code — is an [Error], never an exception. *)

(** A parsed call envelope whose argument is still an encoded slice;
    [cv_cid = None] means the cid is the channel position. *)
type call_view = {
  cv_cid : int option;
  cv_port : string;
  cv_kind : kind;
  cv_args : Xdr.View.t;
  cv_trace : int option;
  cv_resubmit : bool;
  cv_handoff : handoff list;
  cv_elide : bool;
}

val parse_call_view : Xdr.View.t -> (call_view, string) result
(** Inverse of {!call_item}: materialises only the small envelope
    elements; [cv_args] stays lazy. *)

type reply_body
(** A validated reply envelope whose outcome payload is still encoded. *)

val parse_reply_view : Xdr.View.t -> (reply_body, string) result
(** Inverse of {!reply_item} and {!send_ok_item}, up to the outcome.
    The payload is left encoded so a stale reply costs no decode; pass
    it to {!outcome_of_view} when the call is actually pending. A
    [send_ok_item] yields [W_normal Unit]. *)

val outcome_of_view : reply_body -> (routcome, string) result
(** Materialise the outcome of a body returned by {!parse_reply_view}. *)

val item_trace_view : Xdr.View.t -> int option
(** View counterpart of {!item_trace}; equally total. *)

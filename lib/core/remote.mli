(** Typed remote calls: the paper's three call forms, returning typed
    promises.

    A handle [('a, 'r, 'e) h] binds a typed signature to an agent's
    stream. The three call forms are:

    - {!stream_call} — [x: pt := stream h(3)]: buffered, asynchronous,
      returns a blocked promise (§3);
    - {!send} — fire-and-forget except for abnormal replies, no promise
      (§2, §3: "sends do not show up explicitly in Argus; a stream call
      to a handler with no normal results is made as a send" — here the
      choice is explicit);
    - {!rpc} — ordinary remote procedure call: transmitted immediately,
      caller waits for the outcome.

    All three are one-line forms of the {!Call} builder, which also
    carries retry, pipelining and handoff.

    Immediate failures follow the paper's semantics exactly: if
    argument encoding fails or the stream is already broken, the call
    raises ({!Promise.Failure_exn} / {!Promise.Unavailable_exn}) and
    {e no promise is created}. A wounded fiber may not start remote
    calls (§4.2): the call raises {!Sched.Scheduler.Terminated}. *)

type ('a, 'r, 'e) h
(** A handler of signature [('a, 'r, 'e)] reachable over one agent's
    stream. *)

val bind :
  Agent.t -> dst:Net.address -> gid:string -> ('a, 'r, 'e) Sigs.hsig -> ('a, 'r, 'e) h
(** Bind a signature to the agent's stream to group [gid] at [dst]. *)

val bind_ref : Agent.t -> Sigs.port_ref -> ('a, 'r, 'e) Sigs.hsig -> ('a, 'r, 'e) h
(** Bind to a transmitted port reference; the signature's own port name
    is replaced by the reference's. *)

val hsig : ('a, 'r, 'e) h -> ('a, 'r, 'e) Sigs.hsig

val stream : ('a, 'r, 'e) h -> Cstream.Stream_end.t

(** {1 Call forms} *)

val stream_call : ('a, 'r, 'e) h -> 'a -> ('r, 'e) Promise.t
(** [Call.(submit (make h v))]: make a stream call; the promise becomes
    ready when the reply arrives (or the stream breaks). Promises for
    earlier calls on the same stream become ready first. *)

val send : ('a, 'r, 'e) h -> 'a -> unit
(** [Call.(detach (as_send (make h v)))]: a send. The result value is
    discarded at the receiver; abnormal termination is observable
    through {!synch}. *)

val rpc : ('a, 'r, 'e) h -> 'a -> ('r, 'e) Promise.outcome
(** [Call.(sync (make h v))]: flush and wait for this call's outcome
    (fiber context only). *)

(** {1 Retry on [unavailable] (docs/OVERLOAD.md)} *)

type retry_policy = {
  retry_attempts : int;  (** total attempts, including the first *)
  retry_base : float;  (** first backoff delay, seconds *)
  retry_factor : float;  (** exponential growth per attempt *)
  retry_max_delay : float;  (** backoff cap, seconds *)
  retry_jitter : float;  (** +- fractional spread on each delay *)
}

val default_retry_policy : retry_policy
(** 4 attempts, 5 ms base, doubling, 500 ms cap, 20% jitter. Used by
    {!Call.with_retry}. *)

(** {1 Promise pipelining}

    Calling on a not-yet-ready result (docs/PIPELINE.md): {!pipe}
    converts a promise born from a stream call into an argument that is
    transmitted {e by reference} — an {!Xdr.promise_ref} naming the
    producing call — so a dependent call leaves immediately, without
    waiting (or paying a round trip) for the producer's reply. The
    receiver substitutes the produced value before executing; if the
    producer terminates abnormally, the dependent call completes with
    the same abnormal outcome and never executes. Submit the dependent
    call with [Call.(submit (piped h a))].

    On the same node, the destination port groups must belong to the
    same guardian (they share the outcome registry). A reference to a
    call on a different node is handed off (see {!Call}): the
    dependent call goes straight to the consuming node and the
    producer pushes the outcome there. *)

type 'a arg
(** An argument for a handler taking ['a]: either a value, or a
    reference to a promised result of type ['a]. *)

val arg : 'a -> 'a arg
(** An ordinary by-value argument. *)

val pipe : ('a, _) Promise.t -> 'a arg
(** Use a promised result as an argument. Already-ready promises pass
    their value (or abnormal outcome) directly; blocked ones become a
    {!Xdr.promise_ref}. Raises [Invalid_argument] if the promise was
    not born from a stream call ({!Promise.origin} is [None]). *)

val pipe_field : (_, _) Promise.t -> field:string -> 'a arg
(** Use one field of a promised record result as an argument — the
    untyped escape hatch for calls that consume part of a result. The
    caller asserts the field's encoding matches the consuming handler's
    argument type; a wrong assertion surfaces as a decode [failure] at
    the receiver, and a missing field or non-record result as a
    [failure] reply to the dependent call. *)

(** {1 Stream control (per handle)} *)

val flush : ('a, 'r, 'e) h -> unit
(** §2's [flush h]: transmit buffered calls on [h]'s stream now. *)

val synch : ('a, 'r, 'e) h -> (unit, [ `Exception_reply | `Broken of string ]) result
(** §2's [synch h]: flush, wait for all earlier calls on the stream to
    complete, and report whether any of them (since the last synch)
    terminated with an exception. *)

(** {1 The call builder}

    The one way to issue a typed call: build a plan, refine it, submit
    it. The call forms above are its shortest uses.

    The builder is also where {b third-party handoff}
    (docs/HANDOFF.md) lives: submitting a plan whose {!pipe}d argument
    references a call on a {e different} node forwards the dependent
    call to that node with its reference annotated, the producer is
    told to push the outcome there directly, and one full proxy hop of
    latency and bytes disappears. If the producer's node refuses (epoch
    mismatch, no registry, table full) or its stream breaks, this node
    falls back to relaying the outcome itself — the exactly-once and
    abnormal-propagation semantics are those of the proxy it replaces.
    Counted in {!Sim.Stats} as [handoff_calls] (forwarded plans) and
    [handoff_fallbacks] (refusals that fell back); producer/owner-side
    events appear as [handoff_forwards], [handoff_streams_opened],
    [handoff_dedup_joins] and [handoff_refusals]. *)

module Call : sig
  type ('a, 'r, 'e) plan
  (** An unsent call: handle + argument + delivery refinements. Plans
      are immutable values — refining one returns a new plan, so a
      partially-applied plan can be reused. *)

  val make : ('a, 'r, 'e) h -> 'a -> ('a, 'r, 'e) plan
  (** A plan for an ordinary by-value call. *)

  val piped : ('a, 'r, 'e) h -> 'a arg -> ('a, 'r, 'e) plan
  (** A plan whose argument may be a {!pipe}d promise reference. A
      reference to a producer that already terminated with
      [unavailable]/[failure] yields an already-ready promise with that
      same outcome — nothing is transmitted. Pipelined transmissions
      are counted in {!Sim.Stats} as [pipelined_calls] (sender side);
      receiver-side events appear as [parked_calls],
      [ref_substitutions] and [ref_failures]. *)

  val as_send : ('a, 'r, 'e) plan -> ('a, 'r, 'e) plan
  (** Deliver as a send: no result, abnormal termination observable
      through {!synch}. Submit with {!detach}. *)

  val with_retry :
    ?policy:retry_policy -> ?deadline:float -> ('a, 'r, 'e) plan -> ('a, 'r, 'e) plan
  (** Retry [unavailable] outcomes — load sheds, broken streams — with
      jittered exponential backoff ([policy], default
      {!default_retry_policy}), up to [retry_attempts] total attempts.
      Each attempt is a {e fresh} call (fresh stable call-id): a shed
      call never executed, so this is retry, not crash-driven
      resubmission, and receiver-side at-most-once holds per attempt.
      A retry whose earliest landing time would pass [deadline]
      (absolute, for use with {!Promise.claim_deadline}) is not sent;
      the promise resolves [Unavailable] immediately. The promise
      carries the first attempt's trace id but {e no} origin — piping
      it would reference a possibly-never-executed call. {!submit}
      never raises {!Promise.Unavailable_exn} for such a plan;
      issue-time refusals feed the same retry loop. Counted as
      [remote_unavailable_retries], [remote_retry_successes] and
      [remote_retry_exhausted].

      Applies only to plain by-value call plans: each attempt is a
      fresh call, so a piped, deferred or send plan cannot be retried.
      {!submit} raises [Invalid_argument] for those, and {!detach} for
      any retried plan (it needs a promise). A non-positive
      [retry_attempts] makes {!submit} raise [Invalid_argument]. *)

  val defer_result : ('a, 'r, 'e) plan -> ('a, 'r, 'e) plan
  (** Ask the receiver to strip the normal result from the reply
      (docs/HANDOFF.md): the promise can be {!pipe}d — and handed off
      without this node ever carrying the value — but {e not} claimed
      for it; claiming yields a [Failure] marker. Abnormal outcomes
      still arrive in full. *)

  val submit : ('a, 'r, 'e) plan -> ('r, 'e) Promise.t
  (** Issue the call; the promise resolves as the plan dictates. Raises
      [Invalid_argument] for a send plan (no promise — use {!detach}). *)

  val detach : ('a, 'r, 'e) plan -> unit
  (** Issue without a promise: the statement form for calls — "the
      program need not create a promise" (§3); the reply is still
      decoded and then discarded — and the only form for sends. Raises
      [Invalid_argument] for a retried plan and for a send with a
      {!pipe}d reference argument. *)

  val sync : ('a, 'r, 'e) plan -> ('r, 'e) Promise.outcome
  (** {!submit}, {!flush}, {!Promise.claim} — the RPC form (fiber
      context only). *)
end

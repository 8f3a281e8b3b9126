(** The receiving end of call-streams: a port group.

    A target accepts every stream addressed to its group name and, per
    stream, executes arriving calls strictly in call order — "the Argus
    system will delay its execution until all earlier calls on its
    stream have completed" (§2.1). Calls on {e different} streams run
    concurrently (each connection has its own driver fiber).

    The per-message kernel overhead of the cost model is charged here
    as processing time: the driver sleeps [kernel_overhead] once per
    arriving network message before executing its calls, which is what
    makes batching amortise overhead in the experiments.

    Replies are sent back on a dedicated reply channel per stream,
    buffered according to [reply_config]. Normal replies to [Send]
    calls carry no result value.

    With [~dedup:true] the group additionally keeps a bounded cache of
    completed call outcomes keyed by the sender's {e stable call-id}
    (see {!Wire.call_item} and [docs/FAULTS.md]): a call the group has
    already executed — typically resubmitted by a supervisor after a
    stream break — is answered from the cache instead of being run
    again, giving exactly-once {e execution} across stream
    incarnations.

    {b Third-party handoff} (docs/HANDOFF.md): a group with pipelining
    enabled also serves two reserved ports. ["~handoff"] (a [Send])
    asks it to push the outcome of one of its recorded calls to a
    foreign owner node; ["~redeem"] (a [Call]) replies with that
    outcome directly — the claim-by-reference fallback. Both run in the
    stream's normal work order and {e ahead} of the dedup cache, so a
    resubmitted notice re-forwards to the same owner. On the owner
    side, an arriving call whose [Pref] arguments carry handoff
    annotations registers those foreign outcomes with the group's
    registry (bypassing the single-guardian scope check) and parks
    until the pushes arrive. *)

type t

type conn
(** One incoming stream (one sender agent). *)

type dispatch =
  conn ->
  seq:int ->
  port:string ->
  kind:Wire.kind ->
  args:Xdr.value ->
  reply:(Wire.routcome -> unit) ->
  unit
(** Invoked in scheduler context for each call, once the previous call
    on the same stream has replied. The implementation must not block;
    it should start the real work (typically spawning a fiber) and
    arrange for [reply] to be called exactly once. The next call on the
    stream is dispatched only after [reply] fires. *)

val create : Chanhub.hub -> gid:string -> ?config:Group_config.t -> dispatch -> t
(** Register the port group [gid] on this hub, configured by [config]
    (default {!Group_config.default} — the paper's semantics). The
    config's fields:

    [ordered = true] is the paper's semantics: the next call on a
    stream starts only when the previous one has replied. [false] is
    the "explicit override" hinted at in §2.1: calls on one stream
    execute concurrently, while replies are still released in call
    order so the stream's reply-ordering guarantee (and
    promise-readiness order) is preserved. Used by the
    receiver-ordering ablation.

    [shards] (default 1) partitions each stream's execution across that
    many concurrent lanes, keyed by the hash of each call's first
    argument ({!default_shard_key}). The paper's in-order guarantee is
    relaxed to {e per-key} order: two calls whose keys map to the same
    shard still execute strictly in call order, while calls on
    different shards overlap (docs/SHARDING.md). Replies are
    nevertheless released in call order, so the stream's reply-order
    guarantee (and promise-readiness order) is unchanged. The key is a
    pure function of the arguments: a resubmitted call re-hashes to the
    same shard, which is what keeps dedup joins and per-key order
    stable across stream incarnations. Sharded dispatch is counted in
    {!Sim.Stats} as [shard_dispatches], with high-water marks
    [shard_queue_hwm] (lane queue depth) and [shard_imbalance] (spread
    between the most- and least-loaded lane's cumulative dispatches).

    [dedup] (default [false]) enables the cross-incarnation outcome
    cache; [dedup_cache] (default 1024) bounds the number of retained
    outcomes, evicted oldest-first. Choose it larger than the maximum
    number of calls a supervisor can have in flight across a restart.
    Dedup hits are counted in {!Sim.Stats} as [target_dedup_replays]
    (outcome replayed from cache) and [target_dedup_joins] (duplicate
    arrived while the first execution was still running).

    [pipeline] enables promise pipelining (docs/PIPELINE.md): every
    [Call] outcome is recorded in the given registry keyed by the
    sender's (stable stream id, stable call-id), and arguments
    containing {!Xdr.Pref} references are resolved against it before
    dispatch — parking the call until every referenced outcome has
    landed, propagating the first abnormal producer outcome without
    executing the handler. Pass the {e same} registry to every group of
    one guardian so calls can reference results produced through other
    groups on the same node. Events are counted in {!Sim.Stats} as
    [parked_calls], [ref_substitutions] and [ref_failures].

    While the scheduler's {!Sim.Span} store is enabled, the target also
    records the receiver half of each traced call's causal timeline —
    dispatch (with its lane), park/substitute, execution begin/end,
    dedup join/replay, and the reply (docs/TRACING.md). *)

val gid : t -> string

val dedup : t -> bool
(** Whether this group deduplicates on stable call-ids. The guardian
    layer must not destroy orphaned handler executions when it does —
    the recorded outcome is the dedup protocol's whole point. *)

val shards : t -> int
(** Number of execution lanes per connection (1 = unsharded). *)

val default_shard_key : Xdr.value -> int
(** The partition function: [Hashtbl.hash] of the first argument
    ([Pair (a, _)] shards on [a]; any other shape on the whole value).
    Non-negative and deterministic across incarnations; a call with
    arguments [v] runs on lane [default_shard_key v mod shards]. *)

val conn_src : conn -> Net.address
(** Node address of the sending agent. *)

val break_conn : conn -> reason:string -> unit
(** Receiver-initiated stream break (§2): pending replies are flushed
    first (so a reply already produced — e.g. the [failure] reply for a
    call whose arguments would not decode — still reaches the sender),
    then the sender is told the stream is broken and further calls are
    discarded. This is the paper's {e synchronous} break: calls already
    replied to are unaffected. *)

val on_conn_close : conn -> (unit -> unit) -> unit
(** Run a hook when this connection goes away for any reason (break
    from either side, group close). The guardian layer uses this to
    destroy orphaned handler executions. Fires immediately if the
    connection is already gone. *)

val close : t -> unit
(** Unregister the group and break every live connection. *)

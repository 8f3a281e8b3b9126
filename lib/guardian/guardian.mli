(** Guardians: the receiving entities of Argus (§2.1).

    A guardian lives on one node and provides {e handlers}, each
    reachable through a typed port. Ports are grouped; calls arriving
    on one stream (one sending agent, one group) run strictly in call
    order — the next call starts only when the previous one has
    completed — while calls on different streams run concurrently, each
    in its own process.

    Failure semantics follow §3 of the paper:
    - arguments that fail to decode terminate the call with
      [failure "could not decode: …"] {e and break the stream};
    - results or signals that fail to encode do the same;
    - a call to an unknown port terminates with
      [failure "handler does not exist"];
    - an OCaml exception escaping a handler body terminates the call
      with [failure].

    When a stream goes away while a handler call is still running, the
    orphaned execution is destroyed (killed at its next termination
    point) — the Argus orphan-destruction guarantee in miniature.
    Groups registered with [~dedup:true] invert this: orphans run to
    completion so their outcome reaches the group's cross-incarnation
    outcome cache, where a supervisor's resubmission of the same call
    finds it (exactly-once execution; see [docs/FAULTS.md]). *)

type t

(** Per-call context passed to handler implementations. *)
type ctx = {
  caller : Net.address;  (** node the calling agent lives on *)
  sched : Sched.Scheduler.t;
  guardian : t;
}

val create :
  ?pipeline_cache:int -> ?pipeline_bytes:int -> Cstream.Chanhub.hub -> name:string -> t
(** Create a guardian on the node owning [hub]. Several guardians can
    share one node (and hub) as long as their group names differ.

    Every guardian owns one promise-pipelining outcome registry
    (docs/PIPELINE.md), shared by all its port groups: a pipelined call
    arriving at any group can reference a result produced through any
    other group of the {e same} guardian. [pipeline_cache] (default
    1024) bounds the retained outcomes, evicted oldest-first — size it
    above the maximum pipelining window (calls between a producer and
    its last dependent). [pipeline_bytes] (default unbounded) is a byte
    budget on the same store, measured in encoded wire bytes
    ({!Xdr.Bin}) of the retained outcomes: the FIFO eviction also runs
    while the byte total exceeds it, so a few bulky results cannot pin
    memory that the count cap alone would allow. Evicted bytes are
    counted in {!Sim.Stats} as [registry_bytes_evicted]. *)

val name : t -> string

val address : t -> Net.address

val sched : t -> Sched.Scheduler.t

val hub : t -> Cstream.Chanhub.hub

val pipeline_registry : t -> Cstream.Wire.routcome Pipeline.Registry.t
(** The guardian's promise-pipelining outcome registry (observability:
    {!Pipeline.Registry.known}/{!Pipeline.Registry.waiting}). *)

val register :
  t ->
  group:string ->
  ('a, 'r, 'e) Core.Sigs.hsig ->
  (ctx -> 'a -> ('r, 'e) result) ->
  unit
(** Install a handler. The group's receiving machinery is created on
    first registration of that group name. The implementation runs in
    its own fiber per call; it may sleep, make remote calls, and so on.
    Registering the same port name in the same group twice replaces the
    handler (used by tests; real guardians create ports once). *)

val register_group :
  t -> group:string -> ?config:Cstream.Group_config.t -> unit -> unit
(** Pre-create a group with the given {!Cstream.Group_config.t}
    (default {!Cstream.Group_config.default}): reply-channel buffering,
    execution discipline ([ordered = false] is the §2.1 override: calls
    on one stream run concurrently; replies stay in call order), the
    cross-incarnation dedup cache (required on the receiving side for
    {!Core.Supervisor} exactly-once semantics), and sharding
    (docs/SHARDING.md — per-key call order and per-stream reply order
    are preserved; independent keys execute in parallel). The config's
    [pipeline] field is ignored: the guardian always installs its own
    per-guardian registry so pipelined calls can reference outcomes
    produced through any of its groups (docs/PIPELINE.md).

    If the group already exists (created by an earlier [register_group]
    or first [register]), a [config] passed here must equal the one the
    group was registered with ({!Cstream.Group_config.equal} — whole
    configs are compared; sharding always hashes the first argument, so
    the lane count is the only sharding field): a conflicting config raises
    [Invalid_argument] naming the differing fields instead of being
    silently ignored. Omitting [config] always passes. *)

val port_ref : t -> group:string -> port:string -> Core.Sigs.port_ref
(** The transmissible reference to one of this guardian's ports. *)

val group_names : t -> string list

val destroy : t -> unit
(** Take the guardian down: every group closes and live streams to it
    break ("the handler's guardian does not exist"). *)

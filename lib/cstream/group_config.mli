(** The configuration of a receiving port group, in one value.

    Everything that used to travel as a sprawl of optional arguments
    through {!Target.create} and [Guardian.register_group] —
    reply-channel buffering, execution discipline, cross-incarnation
    dedup, sharding, promise pipelining — lives in this record. Build
    one by deriving from {!default} with the [with_*] functions:

    {[
      Group_config.(default |> with_dedup ~cache:2048 |> with_shards 4)
    ]}

    Both entry points take the whole config ([?config]); the guardian
    layer stores it per group and compares {e whole configs} with
    {!equal} when a group is re-registered, so a conflicting
    re-registration fails loudly, field-by-field ({!diff}). *)

type t = {
  reply_config : Chanhub.config;  (** buffering of the per-stream reply channel *)
  ordered : bool;
      (** [true] (the paper's §2.1 semantics): the next call on a stream
          starts only when the previous one has replied. [false] is the
          explicit override: calls run concurrently, replies still
          leave in call order. *)
  dedup : bool;
      (** cross-incarnation outcome cache keyed by stable call-id —
          required receiver-side for supervisor exactly-once
          (docs/FAULTS.md) *)
  dedup_cache : int;  (** retained outcomes (oldest evicted first) *)
  shards : int;
      (** execution lanes per connection; >1 relaxes in-order execution
          to per-key order (docs/SHARDING.md). A call's lane is always
          the hash of its first argument ({!Target.default_shard_key}). *)
  pipeline : Wire.routcome Pipeline.Registry.t option;
      (** promise-pipelining outcome registry (docs/PIPELINE.md). The
          guardian layer always substitutes its own per-guardian
          registry; set this only when driving {!Target} directly. *)
  shed_hwm : int option;
      (** load-shedding high-water mark (docs/OVERLOAD.md): when a
          lane's queue reaches this depth, new non-resubmit calls are
          rejected with the paper's [unavailable] exception instead of
          queued, and acks carry a pressure signal so adaptive senders
          cut their window first. [None] (default) never sheds. *)
  offload : Sched.Pool.t option;
      (** domain pool for handler bodies (docs/DOMAINS.md): when set,
          the group's handler implementations execute on real worker
          domains via {!Sched.Pool.run} while dispatch, per-key call
          order, per-stream reply order, dedup and pipelining stay on
          the simulator domain. Offloaded handlers must follow the pool
          rules (pure computation — no scheduler calls, no remote
          calls). [None] (default) keeps everything on one domain and
          the run fully deterministic. *)
}

val default : t
(** Paper semantics: ordered, unsharded, no dedup, no pipelining,
    {!Chanhub.default_config} replies. *)

val with_reply_config : Chanhub.config -> t -> t

val with_ordered : bool -> t -> t

val with_dedup : ?cache:int -> t -> t
(** Enable the cross-incarnation outcome cache ([cache] defaults to
    1024 retained outcomes). *)

val without_dedup : t -> t

val with_shards : int -> t -> t
(** Set the lane count (raises [Invalid_argument] on [<= 0]). Calls are
    partitioned by the hash of their first argument. *)

val with_shed : int -> t -> t
(** Enable load-shedding at the given per-lane queue depth (raises
    [Invalid_argument] on [<= 0]). Pick it relative to the lane's
    [shard_queue_hwm] observations: sheds begin exactly at the mark,
    and the ack pressure signal starts at half of it. *)

val with_offload : Sched.Pool.t -> t -> t
(** Execute this group's handler bodies on the pool's worker domains
    (docs/DOMAINS.md). Combine with {!with_shards}: each lane offloads
    its current call and lanes overlap on real cores. *)

val equal : t -> t -> bool
(** Structural on the plain fields; {e physical} on [pipeline] and
    [offload] (registries and pools have no structural equality) — so
    re-passing the very same config value is always compatible. *)

val diff : t -> t -> string list
(** Names of the fields on which the two configs disagree (empty iff
    {!equal}). *)

val pp : Format.formatter -> t -> unit

(** Promise pipelining: the value-plumbing half of [docs/PIPELINE.md].

    A pipelined call carries {!Xdr.Pref} placeholders among its
    arguments — references to results of earlier calls that may not
    have completed yet. This module provides the receiver-side
    machinery that is independent of the stream layer:

    - {!refs}/{!has_refs} scan an argument tree for unresolved
      references;
    - {!substitute} replaces every reference with its produced value
      (projecting a named [Record] field when the reference asks for
      one);
    - {!Registry} is the bounded outcome store, keyed by (stable
      stream id, stable call-id), that produced outcomes land in and
      that parked dependent calls wait on.

    The registry is polymorphic in the outcome type so this library
    sits below the stream layer: [Cstream.Target] instantiates it at
    [Wire.routcome]. *)

val refs : Xdr.value -> Xdr.promise_ref list
(** All promise references in the tree, first-occurrence order,
    duplicates removed. [[]] for ordinary argument values. *)

val has_refs : Xdr.value -> bool

val project : field:string option -> Xdr.value -> (Xdr.value, string) result
(** Apply a reference's field selector to a produced value: [None]
    returns the value itself; [Some f] requires a [Record] with a
    field [f] and returns that field's value. *)

val substitute :
  lookup:(Xdr.promise_ref -> (Xdr.value, string) result) ->
  Xdr.value ->
  (Xdr.value, string) result
(** Replace every {!Xdr.Pref} leaf using [lookup] (which receives the
    reference {e including} its field selector and must perform the
    projection, typically via {!project}). The first lookup error
    aborts the substitution. *)

(** Bounded outcome registry with parked waiters.

    [record] is called for every completed call; [await] is how a
    dependent call parks until the outcome it references lands. Both
    sides are bounded: completed outcomes are evicted beyond [cap] —
    preferring outcomes whose reply was acknowledged back to the
    producer stream ({!mark_releasable}: no live stream can still
    reference them), then FIFO age — and at most [max_waiters]
    callbacks may be parked at once
    (beyond that {!await} refuses, and the caller fails the dependent
    call instead of queueing without limit). A parked waiter holds its
    slot until it fires or is {!cancel}led — callers that abandon a
    parked call (a dead connection, a partially registered dependency
    set) must cancel, or abandoned entries leak slots until the table
    refuses all comers. *)
module Registry : sig
  type 'o t

  type waiter
  (** Handle on one parked callback, for {!cancel}. *)

  val create :
    ?cap:int ->
    ?max_waiters:int ->
    ?max_bytes:int ->
    ?bytes_of:('o -> int) ->
    ?on_evict:(bytes:int -> unit) ->
    unit ->
    'o t
  (** [cap] (default 1024) bounds remembered outcomes; [max_waiters]
      (default 4096) bounds parked callbacks.

      [max_bytes] (default unbounded) is a byte budget alongside the
      count cap: outcomes are sized by [bytes_of] (default [fun _ -> 0],
      i.e. budget off) when recorded, and the same FIFO eviction runs
      while the remembered total exceeds the budget. The stream layer
      passes the encoded wire size ({!Xdr.Bin}) so a few bulky results
      cannot pin the registry's memory the way the count cap alone
      would allow. [on_evict] fires once per evicted outcome with its
      recorded size (used to feed the [registry_bytes_evicted]
      counter). *)

  val record : 'o t -> stream:string -> call:int -> 'o -> unit
  (** Store the outcome of (stream, call) and fire any waiters parked
      on it. A second record for the same key is ignored — an outcome
      never changes (dedup replays re-record the same value). *)

  val find : 'o t -> stream:string -> call:int -> 'o option

  val await :
    'o t -> stream:string -> call:int -> ('o -> unit) -> [ `Fired | `Parked of waiter | `Refused ]
  (** Park [k] until (stream, call) has an outcome. [`Fired]: the
      outcome was already present and [k] ran synchronously.
      [`Parked w]: [k] will run when the outcome lands, unless
      [cancel w] first. [`Refused]: the waiter table is full; nothing
      was parked. *)

  val cancel : 'o t -> waiter -> unit
  (** Release a parked waiter's slot without firing it. A no-op if the
      waiter already fired (or was cancelled before). *)

  val mark_releasable : 'o t -> stream:string -> call:int -> unit
  (** Declare that no live stream can still reference (stream, call) —
      the receiver saw the cumulative ack covering its reply item — so
      its outcome is a {e preferred} eviction victim. Eviction still
      only runs when a budget ([cap] / [max_bytes]) is exceeded; acked
      outcomes are simply chosen before un-acked FIFO victims. A no-op
      for unknown keys. *)

  val acked_evictions : 'o t -> int
  (** How many evictions chose an acked ({!mark_releasable}) victim
      rather than falling back to FIFO age. *)

  val evicted : 'o t -> stream:string -> call:int -> bool
  (** Whether (stream, call) is absent {e and} at or below the highest
      call id evicted from this stream's remembered outcomes — i.e. its
      outcome was plausibly recorded once and has been forgotten, so an
      [await] would never fire. Callers should fail such references
      instead of parking. (With out-of-order recording a still-running
      call below the eviction mark is indistinguishable from an evicted
      one; the conservative answer is still to fail.) *)

  val add_scope : 'o t -> string -> unit
  (** Declare a producer namespace (for the stream layer: a port-group
      name of the owning guardian) whose outcomes land in this
      registry. *)

  val in_scope : 'o t -> string -> bool
  (** Whether a namespace was declared via {!add_scope}. References to
      producers outside every declared scope can never resolve here and
      should be failed rather than parked. *)

  val mark_foreign : 'o t -> stream:string -> call:int -> unit
  (** Declare (stream, call) {e foreign-owned} (docs/HANDOFF.md): its
      outcome will be produced on another node and pushed into this
      registry over a third-party stream, so waiters may park on it
      even though no local producer feeds the key. The mark is cleared
      when the outcome is {!record}ed. *)

  val is_foreign : 'o t -> stream:string -> call:int -> bool

  val known : 'o t -> int
  (** Outcomes currently remembered. *)

  val bytes : 'o t -> int
  (** Total [bytes_of] size of the remembered outcomes. *)

  val waiting : 'o t -> int
  (** Callbacks currently parked. *)
end

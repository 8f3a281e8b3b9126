(** Cooperative fiber scheduler over virtual (simulated) time.

    This is the process machinery the paper assumes from the Argus
    runtime: many lightweight processes per entity, groups of processes
    that can be terminated together (the basis of [coenter]), critical
    sections that delay termination ("wounding", §4.2 of the paper),
    and a virtual clock so experiments measure deterministic simulated
    time rather than wall-clock noise.

    Everything runs on a single OS thread. Fibers are implemented with
    OCaml 5 effect handlers; suspension points are explicit ({!suspend},
    {!yield}, {!sleep} and the synchronisation modules built on them).
    Runs are deterministic: fibers are scheduled FIFO and simultaneous
    events fire in scheduling order. *)

type t
(** A scheduler instance: run queue, event queue, virtual clock. *)

type fiber
(** A lightweight process. *)

type group
(** A set of fibers that can be terminated together. *)

type 'a waker
(** A one-shot capability to resume one suspended fiber. *)

exception Terminated
(** Raised inside a fiber when it has been killed (wounded) and reaches
    a point where termination is allowed. User code should normally let
    it propagate. *)

type fiber_result =
  | Finished  (** the body returned normally *)
  | Failed of exn  (** the body raised an exception other than {!Terminated} *)
  | Killed  (** the fiber was terminated by {!kill} or group termination *)

type outcome =
  | Completed  (** no runnable fibers, no pending events, no live fibers *)
  | Deadlocked of fiber list
      (** quiescent but some fibers are still blocked — e.g. the
          fork-composition termination problem of §4.1 *)
  | Time_limit  (** the [until] bound was reached first *)

(** {1 Construction and the main loop} *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes a scheduler whose RNG, statistics and span
    store are fresh. The clock starts at [0.0]. *)

val now : t -> float
(** Current virtual time in seconds. *)

val rng : t -> Sim.Rng.t

val stats : t -> Sim.Stats.t

val spans : t -> Sim.Span.t
(** The scheduler's causal-trace span store ({!Sim.Span},
    docs/TRACING.md). One scheduler underlies every simulated node, so
    enabling it turns on call-lifecycle tracing for the whole world —
    and only then do call/reply wire items carry trace ids. *)

val run : ?until:float -> t -> outcome
(** [run t] executes fibers and events until quiescence. It may be
    called again after more fibers or events are added. *)

(** {1 Fibers} *)

val spawn :
  t ->
  ?name:string ->
  ?daemon:bool ->
  ?group:group ->
  ?on_exit:(fiber_result -> unit) ->
  (unit -> unit) ->
  fiber
(** [spawn t body] creates a runnable fiber. [on_exit] fires exactly
    once, in scheduler context, when the fiber ends for any reason.
    [daemon] fibers (default [false]) are service loops — e.g. a
    stream receiver waiting for the next call — that may stay parked
    forever: they do not keep {!run} alive and do not count as
    deadlocked. *)

val current : t -> fiber option
(** The fiber currently executing, or [None] in scheduler context. *)

val kill : t -> fiber -> unit
(** Request termination. A suspended fiber outside any critical section
    is discontinued immediately (it observes {!Terminated} at its
    suspension point); otherwise the fiber is wounded and dies at its
    next termination point. Killing a finished fiber is a no-op. *)

val fiber_name : fiber -> string

val fiber_result : fiber -> fiber_result option
(** [None] while the fiber is still live. *)

val alive : fiber -> bool

(** {1 Suspension points} *)

val suspend : t -> ('a waker -> unit) -> 'a
(** [suspend t register] parks the current fiber, passes a fresh waker
    to [register], and returns the value later passed to {!wake}. Must
    be called from fiber context. Checks for wounding before parking
    and after resuming. *)

val wake : 'a waker -> 'a -> bool
(** [wake w v] resumes the parked fiber with value [v]. Returns [false]
    (and does nothing) if the waker was already used or its fiber was
    killed meanwhile — callers that hand out resources on wake must
    retry with another waiter when this returns [false]. May be called
    from any context. *)

val wake_exn : 'a waker -> exn -> bool
(** Like {!wake} but the suspension point raises. *)

val yield : t -> unit
(** Reschedule the current fiber behind the rest of the run queue. *)

val sleep : t -> float -> unit
(** Park the current fiber for the given amount of virtual time. *)

(** {1 Scheduler-context events} *)

val at : t -> float -> (unit -> unit) -> unit
(** [at t time f] runs [f] in scheduler context at virtual [time]
    (clamped to now if in the past). *)

val after : t -> float -> (unit -> unit) -> unit
(** [after t dt f] is [at t (now t +. dt) f]. *)

type timer
(** A handle to a scheduled event that can be cancelled. *)

val after_cancellable : t -> float -> (unit -> unit) -> timer
(** Like {!after}, returning a handle. *)

val cancel_timer : timer -> unit
(** Prevent the event from firing (idempotent; a no-op once it has
    fired). Cancellation is immediate for scheduling decisions: the run
    loops skip dead entries, so in realtime mode a cancelled timer no
    longer holds the horizon — without this, an acked retransmit timer
    would make the scheduler wait out its full wall-clock delay before
    quiescing. *)

(** {1 External wakeups (worker domains)}

    The one thread-safe door into the scheduler (docs/DOMAINS.md): a
    worker domain never touches scheduler state directly; it hands a
    thunk to {!inject} and the main loop runs it on the scheduler's own
    domain, where it may freely call {!wake}/{!wake_exn}. {!Pool} is
    the intended client. *)

val inject : t -> (unit -> unit) -> unit
(** [inject t thunk] enqueues [thunk] to run in scheduler context on
    the scheduler's domain. Safe to call from any domain. The main loop
    only polls the injection queue while at least one external hold is
    outstanding — pair every cross-domain completion with
    {!hold_external}/{!release_external}, as {!Pool.run} does. *)

val hold_external : t -> unit
(** Declare one outstanding external completion. While holds are
    outstanding the main loop drains injected thunks, and when it runs
    out of runnable fibers it {e blocks} for the next injection instead
    of advancing virtual time or declaring deadlock — offloaded work is
    instantaneous on the simulated clock. Scheduler-domain only. *)

val release_external : t -> unit
(** Drop one hold; call from the injected completion thunk (hence on
    the scheduler domain). *)

(** {1 Real-time driver (real transports)}

    A real transport (docs/TRANSPORT.md) replaces virtual time with the
    wall clock: {!run} stops jumping the clock to the next timer and
    instead reads [clock], fires timers that have come due, and parks in
    [wait] — the transport's poll/select loop — whenever nothing is
    runnable. [wait] runs in scheduler context and may deliver received
    frames (i.e. invoke receive callbacks that {!wake} fibers) before
    returning. [wakeup] must be thread-safe; {!inject} calls it so
    cross-domain completions break a concurrent [wait]. Deadlock
    detection is disabled while a driver is attached — a parked fiber
    may always be woken by the network — so bound server-style runs with
    [?until]. Virtual-time semantics are byte-identical when no driver
    is attached. *)

val set_realtime_driver :
  t ->
  clock:(unit -> float) ->
  wait:(float option -> unit) ->
  wakeup:(unit -> unit) ->
  unit
(** Attach a driver. [clock ()] is the wall clock expressed in
    scheduler-time seconds (it must be [>= now t] at attach time so the
    clock never runs backwards). [wait (Some d)] services I/O for at
    most [d] seconds; [wait None] blocks until some external event. *)

val clear_realtime_driver : t -> unit
(** Detach; {!run} returns to the deterministic virtual-time loop. *)

val realtime : t -> bool
(** Whether a real-time driver is currently attached. *)

(** {1 Critical sections (wounding)} *)

val enter_critical : t -> unit
(** Increment the current fiber's critical-section count; while it is
    positive the fiber cannot be terminated (§4.2). *)

val exit_critical : t -> unit
(** Decrement the count; if it reaches zero and the fiber was wounded
    meanwhile, raises {!Terminated} here. *)

val critical : t -> (unit -> 'a) -> 'a
(** [critical t f] runs [f] inside a critical section, restoring the
    count on any exit. *)

val wounded : t -> bool
(** Whether the current fiber has been asked to terminate. A wounded
    fiber is "greatly restricted" (§4.2): the stream layer refuses to
    start remote calls from it. *)

(** {1 Groups} *)

module Group : sig
  val create : t -> group

  val add_spawn :
    t -> group -> ?name:string -> ?on_exit:(fiber_result -> unit) -> (unit -> unit) -> fiber
  (** Spawn a fiber as a member of the group. *)

  val live_count : group -> int

  val terminate : ?except:fiber -> t -> group -> unit
  (** Kill every live member (except [except], typically the caller). *)

  val wait : t -> group -> unit
  (** Park the calling fiber until the group has no live members.
      Returns immediately when it is already empty. *)
end

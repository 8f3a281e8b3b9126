(** Blocking FIFO queue between fibers.

    This is the [queue\[pt\]] of the paper's Figures 4-1 and 4-2: the
    producer enqueues promises, the consumer's [deq] parks when the
    queue is empty. An optional capacity bound makes [enq] park when
    full (back-pressure for pipelines). A queue can also be [close]d,
    after which [deq] on an empty queue raises {!Closed} instead of
    parking — a convenience the paper's fork-composition lacks, which
    is exactly why its Figure 4-1 can hang (experiment E6 shows both
    behaviours). *)

type 'a t

exception Closed

val create : ?capacity:int -> Scheduler.t -> 'a t
(** Unbounded unless [capacity] is given (must be positive). *)

val enq : 'a t -> 'a -> unit
(** Append; parks while the queue is at capacity. Raises {!Closed} if
    the queue was closed. *)

val deq : 'a t -> 'a
(** Remove the oldest element; parks while the queue is empty. Raises
    {!Closed} when the queue is empty and closed. *)

val close : 'a t -> unit
(** No further [enq]; parked consumers beyond the remaining elements
    observe {!Closed}. Idempotent. *)

val length : 'a t -> int

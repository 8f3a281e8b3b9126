(** Mutual exclusion between fibers.

    Holding a mutex puts the fiber in a critical section, so a wounded
    fiber is not terminated until it releases the lock — exactly the
    damage-avoidance rule of §4.2 of the paper. Fibers *waiting* for a
    mutex are not in a critical section and can be terminated. *)

type t

val create : Scheduler.t -> t

val lock : t -> unit
(** Acquire, parking the fiber if the mutex is held. FIFO fairness. *)

val unlock : t -> unit
(** Release. Raises [Invalid_argument] if the mutex is not locked.
    If the releasing fiber was wounded while holding the lock, exiting
    the critical section raises {!Scheduler.Terminated} after the lock
    has been handed over. *)

val locked : t -> bool

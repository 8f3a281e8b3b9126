(** Counting semaphore between fibers.

    Used by the workload layer to model a machine with [k] processors:
    a fiber "computes for [dt] seconds" by holding one of [k] permits
    while sleeping [dt] of virtual time. *)

type t

val create : Scheduler.t -> int -> t
(** [create sched permits] with [permits >= 0]. *)

val with_permit : t -> (unit -> 'a) -> 'a
(** Hold a permit for the duration of the call. *)

val available : t -> int

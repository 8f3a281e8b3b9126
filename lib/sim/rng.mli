(** Deterministic pseudo-random numbers (splitmix64).

    Every source of randomness in the simulator — network jitter, loss,
    workload generation — draws from an explicit [Rng.t] so that a run
    is reproducible from its seed alone. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] is a generator determined entirely by [seed]. *)

val split : t -> t
(** [split t] derives an independent generator; both [t] and the result
    advance deterministically. Used to give each subsystem its own
    stream so adding draws in one place does not perturb another. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

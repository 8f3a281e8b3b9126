(** Counters collected during a simulation run.

    Experiments report message counts and bytes on wire; this module is
    the common sink for all of them. Nothing here retains per-event
    data, so a registry's size does not grow with the length of a run.

    Domain-safe (docs/DOMAINS.md): counters are atomic and registration
    is mutex-guarded, so offloaded handler bodies on pool worker domains
    may record concurrently with the simulator domain. Single-domain
    runs behave exactly as before. *)

type counter
(** Monotonic integer counter ([Atomic.t] underneath — safe to bump
    from any domain). *)

type t
(** A registry of named counters. *)

val create : unit -> t

val counter : t -> string -> counter
(** [counter t name] finds or creates the counter called [name]. *)

val incr : counter -> unit

val add : counter -> int -> unit

val count : counter -> int

val peek : t -> string -> int
(** [peek t name] reads the counter called [name] without creating it;
    0 when it was never registered. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val quantile : float array -> float -> float
(** [quantile samples q] with [q] clamped to [\[0,1\]]: nearest rank on
    the sorted samples; [nan] when [samples] is empty. [samples] is not
    modified. *)

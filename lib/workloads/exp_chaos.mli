(** E7: chaos workload — exactly-once across stream incarnations.

    A supervised client hammers a deduplicating counter guardian while
    a seeded {!Fault} scenario crashes its node, partitions the network
    and injects loss bursts. Per seed, the invariants are: no
    acknowledged increment lost, no increment applied twice, every
    accepted call resolved, and service restored by the supervisor
    alone (see [docs/FAULTS.md]). *)

type run_result = {
  r_accepted : int;
  r_rejected : int;
  r_normal : int;
  r_unavail : int;
  r_unresolved : int;
  r_doubly : int;
  r_lost : int;
  r_breaks : int;
  r_restarts : int;
  r_replays : int;
  r_restored : bool;
}

val run_one : seed:int -> n:int -> horizon:float -> run_result
(** One seeded run: [n] increments paced over [horizon] simulated
    seconds of chaos. *)

val e7 : ?seeds:int -> ?n:int -> ?horizon:float -> unit -> Table.t
(** The reportable table: one row per seed (defaults: 10 seeds, 200
    increments, 2 s horizon). *)

val check : ?seeds:int -> ?n:int -> ?horizon:float -> unit -> bool
(** [true] iff every seed upholds all four invariants; the [@chaos]
    test alias gates on this. A violated seed is re-run with the
    {!Sim.Span} store enabled and its {!trace_story} printed to stderr,
    so the failing assertion arrives with the causal timelines that
    explain it. *)

val trace_story :
  ?max_timelines:int -> seed:int -> n:int -> horizon:float -> unit -> string
(** Re-run one seed with causal tracing enabled (docs/TRACING.md) and
    render the timelines of the calls that crossed an incarnation —
    resubmitted after a break, dedup-joined onto an in-flight
    duplicate, or replayed from the node registry — followed by the
    per-stream gantt. [max_timelines] (default 8) bounds the timelines
    shown. *)

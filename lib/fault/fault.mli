(** Deterministic fault injection for the simulated network.

    A {e scenario} is a declarative schedule of fault actions on the
    scheduler clock — crash/recover nodes (by name), partition/heal
    pairs, and temporary loss or jitter bursts that mutate the live
    {!Net.config} and restore the baseline when they end. Scheduling a
    scenario before [S.run] makes the whole run — including every
    injected fault — reproducible from the scheduler seed alone; there
    is no wall-clock or hidden randomness anywhere in the layer.

    Applied actions are counted in the scheduler's {!Sim.Stats}
    ([fault_crashes], [fault_recoveries], [fault_partitions],
    [fault_heals], [fault_loss_bursts], [fault_jitter_bursts]).

    Used by the chaos experiment (E7) and the supervision tests; see
    [docs/FAULTS.md]. *)

type action =
  | Crash of string  (** crash the node with this {!Net.node_name} *)
  | Recover of string
  | Partition of string * string  (** cut both directions between two nodes *)
  | Heal of string * string
  | Loss_burst of { rate : float; duration : float }
      (** set the network's loss rate to [rate] for [duration] seconds,
          then restore the rate in force when the burst began *)
  | Jitter_burst of { jitter : float; duration : float }
      (** likewise for the jitter knob *)

type step = { at : float; action : action }

type scenario = step list

val pp_action : Format.formatter -> action -> unit

val pp_step : Format.formatter -> step -> unit

val pp_scenario : Format.formatter -> scenario -> unit

type t
(** An injector bound to one network and its named nodes. *)

val create : 'msg Net.t -> nodes:Net.node list -> t
(** The injector can drive exactly the given nodes; referring to any
    other node name in a step raises [Invalid_argument] when the step
    fires. *)

val apply : t -> action -> unit
(** Apply one action now. *)

val schedule : t -> scenario -> unit
(** Register every step with the scheduler ({!Sched.Scheduler.at}).
    Call before (or during) [run]; steps in the past fire immediately
    per [at]'s clamping. Overlapping bursts of the same knob restore in
    completion order — the usual scenario keeps them disjoint. *)

val random_scenario :
  rng:Sim.Rng.t ->
  victims:string list ->
  ?pairs:(string * string) list ->
  horizon:float ->
  ?outages:int ->
  ?min_down:float ->
  ?max_down:float ->
  ?loss_bursts:int ->
  unit ->
  scenario
(** Generate a reproducible scenario for a run of [horizon] seconds:
    [outages] (default 4) sequential, non-overlapping outages — each
    either a crash of a random victim or, when [pairs] is non-empty
    (and a coin flip picks it), a partition of a random pair — with
    downtime drawn from [[min_down, max_down]] (defaults 0.05 s/0.5 s),
    all healed by [0.9 * horizon] so the tail of the run is fault-free;
    plus [loss_bursts] (default 0) short loss bursts at random times.
    Determinism comes from [rng]; split it off the scheduler's RNG (or
    seed it directly) for seed-reproducible chaos. *)

(** Causal trace dumps (docs/TRACING.md): deterministic scenarios run
    with the scheduler's {!Sim.Span} store enabled, rendered as
    per-promise timelines plus a per-stream gantt. Backing for the
    [experiments --trace] flag and the CI trace artifact. *)

val dump : ?depth:int -> ?seed:int -> ?n:int -> ?horizon:float -> unit -> string
(** Two scenarios, concatenated. First a pipelined dependent-call chain
    ([depth], default 4, as E13): one trace per link; the dump asserts
    the last link traversed every pipelined edge (issue → … → park →
    substitute → execute → reply → claim) and says so in the output.
    Then a small chaos run ({!Exp_chaos.trace_story}): the timelines of
    the calls that crossed a stream incarnation. *)

val render_diff : ?depth:int -> unit -> string
(** The {!Sim.Span.diff} tool demonstrated twice, backing
    [experiments --trace-diff] (docs/TRACING.md): two same-seed runs of
    the pipelined chain diff empty (determinism), and pipelined vs
    claim-each-link differ by the park/substitute edges only the
    pipelined run takes. Emits a WARNING line (the CI gate) if either
    expectation fails. *)

(** Experiment E19: third-party handoff (docs/HANDOFF.md).

    A three-node delegation — A asks B for a blob, then asks C to
    consume it — measured proxied (A claims the blob and re-sends it)
    versus handed off (A forwards the dependent call to C with an
    annotated reference and B pushes the blob straight to C), on both
    the simulated net and real loopback TCP. A third leg cuts the A<->B
    path mid-flight and resubmits, checking that exactly-once execution
    survives handoff + resubmission. *)

type row = {
  r_mode : string;  (** ["proxy"], ["handoff"] or ["handoff+break"] *)
  r_backend : string;  (** ["sim"] or ["tcp"] *)
  r_calls : int;
  r_ok : bool;  (** [false]: TCP unavailable (sandbox), row is a skip *)
  r_time : float;  (** measured span of the delegation loop, seconds *)
  r_msgs : int;
  r_bytes : int;
  r_forwards : int;  (** producer-side outcome pushes *)
  r_fallbacks : int;  (** refused handoffs that fell back to proxying *)
  r_dup_execs : int;  (** handler executions beyond the first, per key *)
}

val e19_rows : ?n:int -> ?n_break:int -> unit -> row list
(** Raw rows, for tests and the benchmark harness. [n] timed
    delegations per clean leg (default 8, after one untimed warmup),
    [n_break] in-flight delegations in the forced-break leg (default
    6). *)

val e19 : ?n:int -> ?n_break:int -> unit -> Table.t

(** Stream supervision: automatic reincarnation with backoff and a
    circuit breaker.

    The paper leaves recovery to the programmer: a broken stream stays
    broken until somebody calls [restart], and every call in flight at
    the break terminates with [unavailable] (§2). A supervisor automates
    that recovery loop for one {!Cstream.Stream_end.t}:

    - on break it reincarnates the stream after an exponential backoff
      with jitter, {e re-submitting} the calls that were in flight
      (with their stable call-ids, so a [~dedup:true] receiver executes
      each at most once — cross-incarnation exactly-once);
    - after [retry_budget] consecutive reincarnations without a single
      reply it trips {e open}: in-flight calls resolve [unavailable],
      new calls fail fast, and after [open_timeout] a single {e
      half-open} probe incarnation is tried — a reply closes the
      breaker, another break re-opens it.

    State machine: [Closed] ⟶ (break · budget exhausted) ⟶ [Open] ⟶
    (open_timeout) ⟶ [Half_open] ⟶ reply ⟶ [Closed], or break ⟶
    [Open]. Any reply also resets the attempt counter. See
    [docs/FAULTS.md] for the full protocol, including why receiver-side
    dedup is required for exactly-once.

    Counters [sup_restarts], [sup_opens], [sup_probes], [sup_closes]
    land in the scheduler's {!Sim.Stats}. All delays draw jitter from an RNG split off the
    scheduler's, so runs stay reproducible from the seed. *)

type t

type breaker_state = Closed | Open | Half_open

type config = {
  backoff_base : float;  (** first retry delay, seconds *)
  backoff_factor : float;  (** multiplier per consecutive failure *)
  backoff_max : float;  (** delay cap, seconds *)
  backoff_jitter : float;
      (** relative spread: the delay is scaled by a uniform factor in
          [1 ± backoff_jitter] *)
  retry_budget : int;
      (** consecutive reincarnations without any reply before the
          breaker trips open (must be ≥ 1) *)
  open_timeout : float;  (** seconds in [Open] before a half-open probe *)
}

val default_config : config
(** [backoff_base = 10 ms], [factor = 2], [max = 2 s], [jitter = 0.2],
    [retry_budget = 8], [open_timeout = 5 s]. *)

val supervise_agent : ?config:config -> Agent.t -> dst:Net.address -> gid:string -> t
(** Supervise the agent's stream to that port group (opening it if
    needed): puts the stream in preserve-on-break mode and installs the
    break/progress hooks. At most one supervisor per stream. While the
    supervisor is backing off (or open) the stream is broken, so new
    calls fail immediately with [unavailable] — use
    {!Promise.claim_timeout} on outstanding promises if claimants must
    not wait out a long outage. *)

val stream : t -> Cstream.Stream_end.t

val state : t -> breaker_state

val restarts : t -> int
(** Reincarnations performed so far (backoff retries plus probes). *)

val stop : t -> unit
(** Stop supervising: the stream returns to the paper's manual
    semantics (breaks resolve in-flight calls with [unavailable]); if
    it is currently broken, still-pending calls resolve now. *)

module S = Sched.Scheduler
module SE = Cstream.Stream_end

type breaker_state = Closed | Open | Half_open

let pp_breaker_state ppf s =
  Format.pp_print_string ppf
    (match s with Closed -> "closed" | Open -> "open" | Half_open -> "half-open")

type config = {
  backoff_base : float;
  backoff_factor : float;
  backoff_max : float;
  backoff_jitter : float;
  retry_budget : int;
  open_timeout : float;
}

let default_config =
  {
    backoff_base = 10e-3;
    backoff_factor = 2.0;
    backoff_max = 2.0;
    backoff_jitter = 0.2;
    retry_budget = 8;
    open_timeout = 5.0;
  }

type t = {
  sup_sched : S.t;
  sup_stream : SE.t;
  cfg : config;
  rng : Sim.Rng.t;
  mutable state : breaker_state;
  mutable attempts : int;  (* consecutive reincarnations with no reply seen *)
  mutable restarts_total : int;
  mutable stopped : bool;
  mutable on_state : (breaker_state -> unit) option;
}

let stream t = t.sup_stream

let state t = t.state

let restarts t = t.restarts_total

let on_state_change t f = t.on_state <- Some f

let counter t name = Sim.Stats.counter (S.stats t.sup_sched) name

let set_state t s =
  if t.state <> s then begin
    t.state <- s;
    match t.on_state with Some f -> f s | None -> ()
  end

let backoff_delay t =
  let raw = t.cfg.backoff_base *. (t.cfg.backoff_factor ** float_of_int (t.attempts - 1)) in
  let capped = Float.min raw t.cfg.backoff_max in
  (* Jitter decorrelates herds of supervisors restarting after one
     partition heals; drawn from an RNG split off the scheduler's so
     runs stay reproducible from the seed. *)
  let spread = t.cfg.backoff_jitter *. ((2.0 *. Sim.Rng.float t.rng 1.0) -. 1.0) in
  Float.max 0.0 (capped *. (1.0 +. spread))

let do_restart t =
  if (not t.stopped) && SE.broken t.sup_stream <> None then begin
    t.restarts_total <- t.restarts_total + 1;
    Sim.Stats.incr (counter t "sup_restarts");
    ignore (SE.restart_resubmit t.sup_stream : int)
  end

let rec arm t =
  SE.on_break t.sup_stream (fun reason -> if not t.stopped then handle_break t reason)

and handle_break t reason =
  t.attempts <- t.attempts + 1;
  if t.state = Half_open || t.attempts > t.cfg.retry_budget then begin
    (* Budget exhausted (or the probe incarnation died): trip the
       breaker. In-flight calls resolve [unavailable] now — each may
       have executed at most once at the receiver — and new calls fail
       fast until the next probe. *)
    Sim.Stats.incr (counter t "sup_opens");
    set_state t Open;
    SE.fail_pending t.sup_stream ~reason:("circuit open: " ^ reason);
    S.after t.sup_sched t.cfg.open_timeout (fun () ->
        if (not t.stopped) && t.state = Open then begin
          Sim.Stats.incr (counter t "sup_probes");
          set_state t Half_open;
          t.attempts <- t.cfg.retry_budget;  (* one strike on the probe re-opens *)
          do_restart t;
          arm t
        end)
  end
  else begin
    let delay = backoff_delay t in
    S.after t.sup_sched delay (fun () ->
        if (not t.stopped) && t.state <> Open then begin
          do_restart t;
          arm t
        end)
  end

let supervise ?(config = default_config) stream_ =
  if config.retry_budget < 1 then invalid_arg "Supervisor.supervise: retry_budget must be >= 1";
  let sched = SE.sched stream_ in
  let t =
    {
      sup_sched = sched;
      sup_stream = stream_;
      cfg = config;
      rng = Sim.Rng.split (S.rng sched);
      state = Closed;
      attempts = 0;
      restarts_total = 0;
      stopped = false;
      on_state = None;
    }
  in
  SE.set_preserve_on_break stream_ true;
  SE.on_progress stream_ (fun () ->
      (* A reply proves the incarnation works: reset the budget and
         close the breaker. *)
      t.attempts <- 0;
      if t.state <> Closed then begin
        Sim.Stats.incr (counter t "sup_closes");
        set_state t Closed
      end);
  arm t;
  t

let supervise_agent ?config agent ~dst ~gid =
  supervise ?config (Agent.stream_to agent ~dst ~gid)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    SE.set_preserve_on_break t.sup_stream false;
    (match SE.broken t.sup_stream with
    | Some reason -> SE.fail_pending t.sup_stream ~reason:("stream broken: " ^ reason)
    | None -> ());
    set_state t Closed
  end

(* Experiment E15: overload survival under fan-in (docs/OVERLOAD.md).
   Many agents burst Zipf-skewed calls at one guardian whose capacity
   (a shared core pool) is a fraction of the offered rate — 4x
   saturation in the headline configuration. The static-window row
   admits everything the 64 KiB window allows: receiver lanes go deep,
   the shed mark is crossed, callers retry against an already-drowning
   guardian, and issue->claim latency is dominated by queueing. The
   adaptive row runs the same load with the AIMD window: receiver
   pressure riding on acks cuts each sender's window toward its floor,
   the backlog waits at the senders instead of in the lanes, and sheds
   (hence retries) mostly disappear. Latency quantiles come from
   Sim.Span issue/claim pairs under 1-in-N trace sampling; the
   exactly-once ledger (every call executed once, or surfaced
   [unavailable], never both, never twice) is checked on every run. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise

type row = {
  r_mode : string;  (** "static" or "adaptive" window *)
  r_calls : int;  (** calls issued (first attempts) *)
  r_time : float;  (** completion, simulated seconds *)
  r_p50 : float;  (** issue->claim latency quantiles, seconds *)
  r_p99 : float;
  r_p999 : float;
  r_sheds : int;  (** calls rejected [unavailable] by the receiver *)
  r_retries : int;  (** retry attempts issued after a shed *)
  r_retry_ok : int;  (** retries that eventually succeeded *)
  r_unavail : int;  (** calls surfaced [unavailable] to the claimant *)
  r_cuts : int;  (** multiplicative window decreases, all senders *)
  r_win_min : int;  (** smallest sampled window of the probe stream *)
  r_win_max : int;  (** largest sampled window of the probe stream *)
  r_lost : int;  (** calls neither executed nor surfaced — must be 0 *)
  r_dups : int;  (** duplicate executions — must be 0 *)
}

let overload_sig =
  Core.Sigs.hsig0 "overload_work" ~arg:(Xdr.pair Xdr.int Xdr.int) ~res:Xdr.int

(* Zipf(s) over [0, keys): precomputed CDF, inverse-sampled. Skew makes
   a few keys hot, so sharded lanes load unevenly and the deepest lane
   crosses the shed mark first — the realistic fan-in shape. *)
let zipf_cdf ~keys ~s =
  let w = Array.init keys (fun i -> 1.0 /. ((float_of_int (i + 1)) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let cdf = Array.make keys 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i wi ->
      acc := !acc +. (wi /. total);
      cdf.(i) <- !acc)
    w;
  cdf

let zipf_draw cdf rng =
  let u = Sim.Rng.float rng 1.0 in
  let n = Array.length cdf in
  let rec go i = if i >= n - 1 || u <= cdf.(i) then i else go (i + 1) in
  go 0

type params = {
  agents : int;
  calls_per_agent : int;
  burst : int;  (* calls issued back-to-back per burst *)
  gap : float;  (* mean pause between an agent's bursts, seconds *)
  cores : int;
  service : float;  (* simulated handler cost, seconds *)
  shards : int;
  shed_hwm : int;
  keys : int;
  zipf_s : float;
  sample_every : int;  (* Sim.Span 1-in-N trace sampling *)
}

(* Headline scale: 16 agents each offer bursts of 32 calls every 32 ms
   (1000 calls/s per agent, 16000/s aggregate) against 4 cores x 1 ms
   service = 4000 calls/s of capacity — 4x saturation. The agent count
   and per-agent rate matter jointly: lanes are per-connection, so the
   window only protects the receiver if one sender's offered rate
   exceeds what its own window floor can deliver per RTT. *)
let default_params =
  {
    agents = 16;
    calls_per_agent = 192;
    burst = 32;
    gap = 32e-3;
    cores = 4;
    service = 1e-3;
    shards = 4;
    shed_hwm = 8;
    keys = 32;
    zipf_s = 1.2;
    sample_every = 8;
  }

let retry_policy =
  {
    R.retry_attempts = 5;
    retry_base = 10e-3;
    retry_factor = 2.0;
    retry_max_delay = 250e-3;
    retry_jitter = 0.25;
  }

let run_one ~mode ~(p : params) () =
  let sched = S.create ~seed:42 () in
  (* A WAN-ish 2 ms propagation delay: the window floor (one call in
     flight) then caps a pinned sender near 1/RTT ~ 230 calls/s, below
     its 1000/s offered rate — the window, not the burst shape, is what
     limits delivery into the lanes. *)
  let net = Net.create sched { Net.default_config with Net.wire_latency = 2e-3 } in
  let server_node = Net.add_node net ~name:"server" in
  let client_node = Net.add_node net ~name:"clients" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  let cpu = Cpu.create sched ~cores:p.cores in
  (* Both rows share one config except the controller switch; the
     static row runs at the pinned 64 KiB [max_inflight_bytes]. A
     fully cut window flies one call at a time whatever its encoded
     size — the TCP one-segment minimum — and grows from the 64-byte
     floor in 128-byte steps. *)
  let base_cfg = { CH.aimd_config with CH.window_min_bytes = 64; window_increase = 128 } in
  let chan_cfg =
    match mode with
    | `Adaptive -> base_cfg
    | `Static -> { base_cfg with CH.adaptive_window = false }
  in
  G.register_group server ~group:"hot"
    ~config:
      Cstream.Group_config.(
        default
        |> with_dedup
        |> with_shards p.shards
        |> with_shed p.shed_hwm)
    ();
  (* Exactly-once ledger: each call carries a globally unique id; the
     handler must see each id at most once (sheds never execute, and a
     retry is only sent after an [unavailable] reply for an attempt
     that was never enqueued). *)
  let executed : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  let dups = ref 0 in
  G.register server ~group:"hot" overload_sig (fun _ctx (_key, id) ->
      if Hashtbl.mem executed id then incr dups else Hashtbl.replace executed id ();
      Cpu.consume cpu p.service;
      Ok id);
  let spans = S.spans sched in
  Sim.Span.enable spans true;
  Sim.Span.set_sampling spans p.sample_every;
  let cdf = zipf_cdf ~keys:p.keys ~s:p.zipf_s in
  let total = p.agents * p.calls_per_agent in
  let ok = ref 0 and unavail = ref 0 in
  let win_min = ref max_int and win_max = ref 0 in
  let time =
    Fixtures.timed_run sched (fun () ->
        let group = S.Group.create sched in
        let probe_stream = ref None in
        let stopped = ref false in
        List.iteri
          (fun a () ->
            (* The paper's Figure 4-1 shape: the issuer enqueues
               promises, a claimer fiber drains them concurrently. A
               claimer is essential for honest latency here — an agent
               that only claims after issuing everything would charge
               its own (window-throttled) issue loop to every early
               call's issue->claim time. *)
            let q : (int, Core.Sigs.nothing) P.t Sched.Bqueue.t = Sched.Bqueue.create sched in
            ignore
              (S.Group.add_spawn sched group ~name:(Printf.sprintf "claimer-%d" a)
                 (fun () ->
                   try
                     while true do
                       match P.claim (Sched.Bqueue.deq q) with
                       | P.Normal _ -> incr ok
                       | P.Unavailable _ -> incr unavail
                       | P.Signal _ | P.Failure _ -> failwith "E15: unexpected outcome"
                     done
                   with Sched.Bqueue.Closed -> ())
                : S.fiber);
            ignore
              (S.Group.add_spawn sched group ~name:(Printf.sprintf "agent-%d" a)
                 (fun () ->
                   let rng = Sim.Rng.split (S.rng sched) in
                   let ag =
                     Core.Agent.create client_hub ~name:(Printf.sprintf "a%d" a)
                       ~config:chan_cfg ()
                   in
                   let h =
                     R.bind ag ~dst:(Net.address server_node) ~gid:"hot" overload_sig
                   in
                   if a = 0 then probe_stream := Some (R.stream h);
                   (* Desynchronise agent start so bursts overlap but do
                      not align on one instant. *)
                   S.sleep sched (Sim.Rng.float rng p.gap);
                   let issued = ref 0 in
                   while !issued < p.calls_per_agent do
                     let n = min p.burst (p.calls_per_agent - !issued) in
                     for i = 0 to n - 1 do
                       let id = (a * p.calls_per_agent) + !issued + i in
                       let key = zipf_draw cdf rng in
                       Sched.Bqueue.enq q
                         R.Call.(submit (with_retry ~policy:retry_policy (make h (key, id))))
                     done;
                     issued := !issued + n;
                     R.flush h;
                     if !issued < p.calls_per_agent then
                       S.sleep sched (p.gap *. (0.5 +. Sim.Rng.float rng 1.0))
                   done;
                   Sched.Bqueue.close q)
                : S.fiber))
          (List.init p.agents (fun _ -> ()));
        (* Window probe: sample agent 0's live sender window while the
           run is hot — the adaptive row should touch its floor, the
           static row should never move. *)
        ignore
          (S.spawn sched ~name:"window-probe" (fun () ->
               while not !stopped do
                 (match !probe_stream with
                 | Some st ->
                     let w = SE.window_bytes st in
                     if w < !win_min then win_min := w;
                     if w > !win_max then win_max := w
                 | None -> ());
                 S.sleep sched 2e-3
               done)
            : S.fiber);
        S.Group.wait sched group;
        stopped := true)
  in
  if !dups > 0 then failwith "E15: duplicate execution detected";
  let lost = total - (!ok + !unavail) in
  if lost <> 0 then failwith "E15: lost calls (claims do not add up)";
  if !ok <> Hashtbl.length executed then failwith "E15: normal claims != executions";
  (* Issue->claim latency per sampled trace: the first Issue (the first
     attempt) paired with the Claim. Retry attempts have their own
     trace ids and no Claim, so they never pair. Only normal claims
     count — an [unavailable] surfaced after retry exhaustion resolves
     early and would flatter the overloaded row's quantiles. *)
  let issue_at : (int, float) Hashtbl.t = Hashtbl.create 1024 in
  let samples = ref [] in
  List.iter
    (fun (e : Sim.Span.event) ->
      match e.Sim.Span.ev_kind with
      | Sim.Span.Issue ->
          if not (Hashtbl.mem issue_at e.ev_trace) then
            Hashtbl.replace issue_at e.ev_trace e.ev_time
      | Sim.Span.Claim when e.ev_note = "normal" -> (
          match Hashtbl.find_opt issue_at e.ev_trace with
          | Some t0 -> samples := (e.ev_time -. t0) :: !samples
          | None -> ())
      | _ -> ())
    (Sim.Span.events spans);
  let samples = Array.of_list !samples in
  let q x = Sim.Stats.quantile samples x in
  let stats = S.stats sched in
  {
    r_mode = (match mode with `Static -> "static" | `Adaptive -> "adaptive");
    r_calls = total;
    r_time = time;
    r_p50 = q 0.50;
    r_p99 = q 0.99;
    r_p999 = q 0.999;
    r_sheds = Sim.Stats.peek stats "target_sheds";
    r_retries = Sim.Stats.peek stats "remote_unavailable_retries";
    r_retry_ok = Sim.Stats.peek stats "remote_retry_successes";
    r_unavail = !unavail;
    r_cuts = Sim.Stats.peek stats "chan_window_cuts";
    r_win_min = (if !win_min = max_int then 0 else !win_min);
    r_win_max = !win_max;
    r_lost = lost;
    r_dups = !dups;
  }

let e15_rows ?(p = default_params) () =
  [ run_one ~mode:`Static ~p (); run_one ~mode:`Adaptive ~p () ]

let e15 ?(p = default_params) () =
  let rows = e15_rows ~p () in
  let render r =
    [
      r.r_mode;
      Table.cell_i r.r_calls;
      Table.cell_ms r.r_time;
      Table.cell_ms r.r_p50;
      Table.cell_ms r.r_p99;
      Table.cell_ms r.r_p999;
      Table.cell_i r.r_sheds;
      Table.cell_i r.r_retries;
      Table.cell_i r.r_retry_ok;
      Table.cell_i r.r_unavail;
      Table.cell_i r.r_cuts;
      Printf.sprintf "%d..%d" r.r_win_min r.r_win_max;
      Table.cell_i r.r_lost;
      Table.cell_i r.r_dups;
    ]
  in
  Table.make ~id:"E15"
    ~title:
      (Printf.sprintf
         "overload survival: %d agents burst %d Zipf-keyed calls at ~4x a %d-core \
          guardian's capacity"
         p.agents (p.agents * p.calls_per_agent) p.cores)
    ~header:
      [
        "window"; "calls"; "completion"; "p50"; "p99"; "p999"; "sheds"; "retries";
        "retry ok"; "unavail"; "cuts"; "window B"; "lost"; "dups";
      ]
    ~notes:
      [
        Printf.sprintf
          "latency is issue->claim from Sim.Span pairs under 1-in-%d trace sampling \
           (docs/TRACING.md); 'static' pins the 64 KiB sender window, 'adaptive' runs the \
           AIMD controller (docs/OVERLOAD.md) against receiver pressure piggybacked on acks"
          p.sample_every;
        Printf.sprintf
          "the receiver sheds non-resubmit calls with the paper's [unavailable] once a \
           lane queue reaches %d; shed calls retry with jittered backoff (%d attempts) and \
           either succeed ('retry ok') or surface [unavailable] to the claimant ('unavail')"
          p.shed_hwm retry_policy.R.retry_attempts;
        "latency quantiles cover normal completions only; the exactly-once ledger must \
         balance on every run: lost = dups = 0 — every call executed exactly once or \
         surfaced [unavailable], never both, never twice";
        "adaptive latency is measured after window admission: the AIMD window moves the \
         backlog from receiver lanes (queueing ahead of execution) back to the senders \
         (blocking before issue), which is precisely the paper's flow-control argument";
      ]
    (List.map render rows)

(* CI smoke gate: a trimmed adaptive run must keep the exactly-once
   ledger balanced and p99 bounded. Returns (p99, lost, dups, sheds). *)
let smoke_gate () =
  let p =
    { default_params with agents = 24; calls_per_agent = 32; sample_every = 1 }
  in
  let r = run_one ~mode:`Adaptive ~p () in
  (r.r_p99, r.r_lost, r.r_dups, r.r_sheds)

(* Promise pipelining (docs/PIPELINE.md): calling on a not-yet-ready
   result. A dependent call ships immediately with a promise-reference
   argument ({!Xdr.Pref}); the receiver substitutes the produced value
   locally, parks the call if the producer has not finished, and
   propagates a producer's abnormal outcome to the dependent call
   without executing it. Includes the supervision interaction: a
   dependent call resubmitted across a stream break still executes
   exactly once, with the correctly substituted argument. *)

module S = Sched.Scheduler
module P = Core.Promise
module R = Core.Remote
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module G = Argus.Guardian
module GC = Cstream.Group_config

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

let peek sched name = Sim.Stats.peek (S.stats sched) name

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Fixture: one client node, one server guardian. Handlers are
   registered per test. *)

type world = {
  sched : S.t;
  net : CH.frame Net.t;
  client_node : Net.node;
  server_node : Net.node;
  client_hub : CH.hub;
  server : G.t;
}

(* Batching stream config, so back-to-back pipelined calls coalesce. *)
let batch_cfg = { CH.default_config with CH.max_batch = 16; flush_interval = 1e-3 }

let make_world ?(cfg = Net.default_config) ?pipeline_cache () =
  let sched = S.create () in
  let net = Net.create sched cfg in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create ?pipeline_cache server_hub ~name:"server" in
  { sched; net; client_node; server_node; client_hub; server }

let handle w ?(config = batch_cfg) ~agent ~gid hs =
  let ag = Core.Agent.create w.client_hub ~name:agent ~config () in
  R.bind ag ~dst:(Net.address w.server_node) ~gid hs

let step_sig = Core.Sigs.hsig0 "step" ~arg:Xdr.int ~res:Xdr.int

(* ------------------------------------------------------------------ *)
(* Same-stream chain: k dependent calls, about one round trip. *)

let test_chain_single_round_trip () =
  let w = make_world () in
  G.register w.server ~group:"main" step_sig (fun _ n -> Ok (n + 1));
  let depth = 4 in
  let finished = ref nan and got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"main" step_sig in
         let p = ref (R.stream_call h 0) in
         for _ = 2 to depth do
           p := R.Call.(submit (piped h (R.pipe !p)))
         done;
         R.flush h;
         got := Some (P.claim !p);
         finished := S.now w.sched));
  run_ok w.sched;
  check Alcotest.bool "chain value" true (!got = Some (P.Normal depth));
  (* One round trip is ~(2 * wire_latency + overheads) ≈ 2.4 ms here; a
     claim-each chain would need at least depth * 2 * wire_latency. *)
  check Alcotest.bool
    (Printf.sprintf "pipelined chain is ~1 RTT (took %.3f ms)" (1e3 *. !finished))
    true
    (!finished < 2.0 *. 2.4e-3);
  check Alcotest.int "pipelined calls counted" (depth - 1) (peek w.sched "pipelined_calls");
  check Alcotest.int "substitutions counted" (depth - 1) (peek w.sched "ref_substitutions");
  check Alcotest.int "nothing parked (ordered stream)" 0 (peek w.sched "parked_calls");
  check Alcotest.int "no ref failures" 0 (peek w.sched "ref_failures")

(* ------------------------------------------------------------------ *)
(* Cross-stream, cross-group: the dependent call arrives (on its own
   stream, to another group of the same guardian) while the producer is
   still executing — it parks, then runs with the substituted value. *)

let test_cross_stream_parking () =
  let w = make_world () in
  G.register w.server ~group:"main" step_sig (fun ctx n ->
      S.sleep ctx.G.sched 5e-3;
      Ok (n * 2));
  let aux_saw = ref [] in
  G.register w.server ~group:"aux" step_sig (fun _ n ->
      aux_saw := n :: !aux_saw;
      Ok (n + 1));
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let producer = handle w ~agent:"a" ~gid:"main" step_sig in
         let consumer = handle w ~agent:"b" ~gid:"aux" step_sig in
         let p1 = R.stream_call producer 7 in
         R.flush producer;
         let p2 = R.Call.(submit (piped consumer (R.pipe p1))) in
         R.flush consumer;
         got := Some (P.claim p2)));
  run_ok w.sched;
  check Alcotest.bool "dependent result" true (!got = Some (P.Normal 15));
  check Alcotest.(list int) "dependent executed once, with substituted arg" [ 14 ] !aux_saw;
  check Alcotest.int "dependent call parked" 1 (peek w.sched "parked_calls");
  check Alcotest.int "one substitution" 1 (peek w.sched "ref_substitutions")

(* ------------------------------------------------------------------ *)
(* Abnormal producers: the dependent call completes with the producer's
   outcome and its handler never runs. *)

type werr = Too_big of int

let werr_codec =
  Core.Sigs.(
    empty_signals
    |> signal_case ~name:"too_big" Xdr.int
         ~inj:(fun n -> Too_big n)
         ~proj:(fun (Too_big n) -> Some n))

let checked_sig = Core.Sigs.hsig "checked" ~arg:Xdr.int ~res:Xdr.int ~signals_c:werr_codec ()

let test_producer_signal_propagates () =
  let w = make_world () in
  let executions = ref [] in
  G.register w.server ~group:"main" checked_sig (fun _ n ->
      executions := n :: !executions;
      if n > 10 then Error (Too_big n) else if n < 0 then failwith "negative" else Ok (n + 1));
  let sig_out = ref None and fail_out = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"main" checked_sig in
         (* Producer signals: dependent must signal identically. *)
         let p1 = R.stream_call h 100 in
         let p2 = R.Call.(submit (piped h (R.pipe p1))) in
         (* Producer fails (handler crash): dependent must fail. *)
         let q1 = R.stream_call h (-1) in
         let q2 = R.Call.(submit (piped h (R.pipe q1))) in
         R.flush h;
         sig_out := Some (P.claim p2);
         fail_out := Some (P.claim q2)));
  run_ok w.sched;
  (match !sig_out with
  | Some (P.Signal (Too_big 100)) -> ()
  | _ -> Alcotest.fail "dependent should signal the producer's signal");
  (match !fail_out with
  | Some (P.Failure reason) ->
      check Alcotest.bool "failure reason carried over" true (contains ~affix:"crashed" reason)
  | _ -> Alcotest.fail "dependent should fail with the producer's failure");
  (* Only the two producers ever executed. *)
  check Alcotest.(list int) "dependents never executed" [ -1; 100 ] (List.sort compare !executions);
  check Alcotest.int "two propagated abnormals" 2 (peek w.sched "ref_failures")

let test_dead_producer_short_circuits () =
  (* The producer's promise is already Unavailable when piped (its
     stream broke): the dependent call completes abnormally at the
     sender — nothing travels, nothing executes. *)
  let w = make_world () in
  let executions = ref 0 in
  G.register w.server ~group:"main" step_sig (fun _ n ->
      incr executions;
      Ok (n + 1));
  let out = ref None and msgs_before = ref 0 and msgs_after = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"main" step_sig in
         let p1 = R.stream_call h 1 in
         (* Break before anything is transmitted: p1 resolves
            Unavailable and was never seen by the server. *)
         SE.restart (R.stream h);
         (match P.claim p1 with
         | P.Unavailable _ -> ()
         | _ -> Alcotest.fail "broken stream should resolve p1 Unavailable");
         msgs_before := Sim.Stats.peek (Net.stats w.net) "msgs_sent";
         let p2 = R.Call.(submit (piped h (R.pipe p1))) in
         check Alcotest.bool "dead-producer dependent is ready at once" true (P.ready p2);
         msgs_after := Sim.Stats.peek (Net.stats w.net) "msgs_sent";
         out := Some (P.claim p2)));
  run_ok w.sched;
  (match !out with
  | Some (P.Unavailable _) -> ()
  | _ -> Alcotest.fail "dependent should be Unavailable like its producer");
  check Alcotest.int "nothing transmitted for the dead dependent" !msgs_before !msgs_after;
  check Alcotest.int "no handler ran" 0 !executions

(* ------------------------------------------------------------------ *)
(* Field selection: consume one field of a promised record result. *)

let make_sig =
  Core.Sigs.hsig0 "make" ~arg:Xdr.int
    ~res:(Xdr.record2 "bounds" ("lo", Xdr.int) ("hi", Xdr.int))

let test_field_selection () =
  let w = make_world () in
  G.register w.server ~group:"main" make_sig (fun _ n -> Ok (n, n * 10));
  let step_saw = ref [] in
  G.register w.server ~group:"aux" step_sig (fun _ n ->
      step_saw := n :: !step_saw;
      Ok (n + 1));
  let got = ref None and missing = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let maker = handle w ~agent:"a" ~gid:"main" make_sig in
         let stepper = handle w ~agent:"b" ~gid:"aux" step_sig in
         let p1 = R.stream_call maker 3 in
         let p2 = R.Call.(submit (piped stepper (R.pipe_field p1 ~field:"hi"))) in
         let p3 = R.Call.(submit (piped stepper (R.pipe_field p1 ~field:"nope"))) in
         R.flush maker;
         R.flush stepper;
         got := Some (P.claim p2);
         missing := Some (P.claim p3)));
  run_ok w.sched;
  check Alcotest.bool "hi field selected and stepped" true (!got = Some (P.Normal 31));
  check Alcotest.(list int) "stepper saw only the selected field" [ 30 ] !step_saw;
  (match !missing with
  | Some (P.Failure reason) ->
      check Alcotest.bool "missing field named in failure" true (contains ~affix:"nope" reason)
  | _ -> Alcotest.fail "missing field must fail the dependent call")

(* ------------------------------------------------------------------ *)
(* Guard rails *)

let test_pipe_requires_origin () =
  let w = make_world () in
  let p : (int, Core.Sigs.nothing) P.t = P.create w.sched in
  (match R.pipe p with
  | _ -> Alcotest.fail "pipe of an origin-less promise must be rejected"
  | exception Invalid_argument _ -> ())

let test_forward_ref_on_same_stream_fails () =
  (* A reference to this stream's own (or a later) call can never
     resolve — the receiver must fail it instead of deadlocking. *)
  let w = make_world () in
  G.register w.server ~group:"main" step_sig (fun _ n -> Ok (n + 1));
  let out = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"main" step_sig in
         let se = R.stream h in
         let args =
           Xdr.Pref { Xdr.ps_stream = SE.stable_id se; ps_call = 999; ps_field = None }
         in
         (match
            SE.call se ~port:"step" ~kind:Cstream.Wire.Call ~args ~on_reply:(fun o ->
                out := Some o)
          with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "call rejected: %s" e);
         SE.flush se));
  run_ok w.sched;
  (match !out with
  | Some (Cstream.Wire.W_failure _) -> ()
  | _ -> Alcotest.fail "forward self-reference must fail");
  check Alcotest.int "counted as ref failure" 1 (peek w.sched "ref_failures")

(* The builder's refused combinations: each raises [Invalid_argument]
   at the call site and transmits nothing. [plan h p1] tries one refused
   plan, with [p1] a stream call to pipe on. *)
let refused_plan plan () =
  let w = make_world () in
  let runs = ref 0 and accepted = ref false and producer = ref None in
  G.register w.server ~group:"main" step_sig (fun _ n ->
      incr runs;
      Ok (n + 1));
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"main" step_sig in
         let p1 = R.stream_call h 1 in
         (* Recorded, not raised: a failure inside a fiber would only
            end the fiber. *)
         (match plan h p1 with
         | () -> accepted := true
         | exception Invalid_argument _ -> ());
         R.flush h;
         producer := Some (P.claim p1)));
  run_ok w.sched;
  check Alcotest.bool "plan refused" false !accepted;
  check Alcotest.bool "producer answered" true (!producer = Some (P.Normal 2));
  check Alcotest.int "only the producer executed" 1 !runs;
  check Alcotest.int "nothing pipelined" 0 (peek w.sched "pipelined_calls")

let test_refuse_submit_send =
  refused_plan (fun h _ -> ignore R.Call.(submit (as_send (make h 2))))

let test_refuse_detach_retry = refused_plan (fun h _ -> R.Call.(detach (with_retry (make h 2))))

let test_refuse_retry_piped =
  refused_plan (fun h p1 -> ignore R.Call.(submit (with_retry (piped h (R.pipe p1)))))

let test_refuse_retry_deferred =
  refused_plan (fun h _ -> ignore R.Call.(submit (with_retry (defer_result (make h 2)))))

let test_refuse_send_piped =
  refused_plan (fun h p1 -> R.Call.(detach (as_send (piped h (R.pipe p1)))))

(* ------------------------------------------------------------------ *)
(* Supervision x pipelining: break the stream with the producer and the
   dependent call in flight; resubmission re-resolves the reference via
   the dedup cache and the dependent executes exactly once. *)

let fast_chan_cfg =
  {
    CH.default_config with
    CH.max_batch = 4;
    flush_interval = 0.5e-3;
    retransmit_timeout = 4e-3;
    max_retries = 3;
  }

let test_resubmit_dependent_exactly_once () =
  let w = make_world () in
  let executions : (int, int) Hashtbl.t = Hashtbl.create 8 in
  G.register_group w.server ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  G.register w.server ~group:"ctr" step_sig (fun ctx n ->
      S.sleep ctx.G.sched 2e-3;
      Hashtbl.replace executions n (1 + Option.value ~default:0 (Hashtbl.find_opt executions n));
      Ok (n * 2));
  (* Outage window: both calls are in flight (the producer possibly
     mid-execution) when the server goes dark. *)
  S.at w.sched 2e-3 (fun () -> Net.crash w.net w.server_node);
  S.at w.sched 40e-3 (fun () -> Net.recover w.net w.server_node);
  let o1 = ref None and o2 = ref None and o3 = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast_chan_cfg ~agent:"c" ~gid:"ctr" step_sig in
         let se = R.stream h in
         SE.set_preserve_on_break se true;
         let p1 = R.stream_call h 7 in
         let p2 = R.Call.(submit (piped h (R.pipe p1))) in
         R.flush h;
         (* A probe into the outage: the first two calls were already
            acked, so without fresh unacked data the client would never
            notice the server is gone. *)
         S.sleep w.sched 3e-3;
         let p3 = R.stream_call h 1 in
         R.flush h;
         (* Wait out the break, then resubmit on a fresh incarnation. *)
         while SE.broken se = None do
           S.sleep w.sched 1e-3
         done;
         while S.now w.sched < 45e-3 do
           S.sleep w.sched 1e-3
         done;
         ignore (SE.restart_resubmit se : int);
         o1 := Some (P.claim p1);
         o2 := Some (P.claim p2);
         o3 := Some (P.claim p3)));
  run_ok w.sched;
  check Alcotest.bool "producer result" true (!o1 = Some (P.Normal 14));
  check Alcotest.bool "dependent result" true (!o2 = Some (P.Normal 28));
  check Alcotest.bool "probe result" true (!o3 = Some (P.Normal 2));
  check Alcotest.int "producer executed exactly once" 1
    (Option.value ~default:0 (Hashtbl.find_opt executions 7));
  check Alcotest.int "dependent executed exactly once, substituted arg" 1
    (Option.value ~default:0 (Hashtbl.find_opt executions 14));
  check Alcotest.int "probe executed exactly once" 1
    (Option.value ~default:0 (Hashtbl.find_opt executions 1));
  check Alcotest.int "no other argument values were executed" 3 (Hashtbl.length executions)

(* ------------------------------------------------------------------ *)
(* Supervision x pipelining, the parked flavour: the dependent call is
   parked on a dedup group (waiting for a producer on another stream)
   when its own connection dies. The parked call must still run to
   completion once the producer lands — its outcome is what resolves
   the In_progress dedup entry a resubmitted duplicate joins. A
   regression here deadlocks the duplicate forever. *)

let test_parked_dependent_conn_break_exactly_once () =
  let w = make_world () in
  let slow_execs : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let ctr_execs : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let bump tbl n = Hashtbl.replace tbl n (1 + Option.value ~default:0 (Hashtbl.find_opt tbl n)) in
  G.register_group w.server ~group:"slow"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  G.register w.server ~group:"slow" step_sig (fun ctx n ->
      bump slow_execs n;
      S.sleep ctx.G.sched 30e-3;
      Ok (n * 2));
  G.register_group w.server ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  G.register w.server ~group:"ctr" step_sig (fun _ n ->
      bump ctr_execs n;
      Ok (n + 1));
  (* Cut the link while the producer executes and the dependent call is
     parked; every channel (including the reply for the first ctr call)
     goes unacked, so both sides break by retransmission exhaustion —
     the receiver's ctr conn dies with the dependent call still
     parked. *)
  let client = Net.address w.client_node and server = Net.address w.server_node in
  S.at w.sched 1.8e-3 (fun () -> Net.partition w.net client server);
  S.at w.sched 25e-3 (fun () -> Net.heal w.net client server);
  let o1 = ref None and o0 = ref None and o2 = ref None and o3 = ref None and o4 = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let producer = handle w ~config:fast_chan_cfg ~agent:"a" ~gid:"slow" step_sig in
         let consumer = handle w ~config:fast_chan_cfg ~agent:"b" ~gid:"ctr" step_sig in
         let sa = R.stream producer and sb = R.stream consumer in
         SE.set_preserve_on_break sa true;
         SE.set_preserve_on_break sb true;
         let p1 = R.stream_call producer 7 in
         R.flush producer;
         let p0 = R.stream_call consumer 100 in
         let p2 = R.Call.(submit (piped consumer (R.pipe p1))) in
         R.flush consumer;
         (* Probes into the outage so each sender notices the break. *)
         S.sleep w.sched 4e-3;
         let p3 = R.stream_call producer 1 in
         R.flush producer;
         let p4 = R.stream_call consumer 50 in
         R.flush consumer;
         while SE.broken sa = None || SE.broken sb = None do
           S.sleep w.sched 1e-3
         done;
         while S.now w.sched < 26e-3 do
           S.sleep w.sched 1e-3
         done;
         ignore (SE.restart_resubmit sa : int);
         ignore (SE.restart_resubmit sb : int);
         o1 := Some (P.claim p1);
         o0 := Some (P.claim p0);
         o2 := Some (P.claim p2);
         o3 := Some (P.claim p3);
         o4 := Some (P.claim p4)));
  run_ok w.sched;
  check Alcotest.bool "producer result" true (!o1 = Some (P.Normal 14));
  check Alcotest.bool "plain ctr result" true (!o0 = Some (P.Normal 101));
  check Alcotest.bool "parked dependent result" true (!o2 = Some (P.Normal 15));
  check Alcotest.bool "slow probe result" true (!o3 = Some (P.Normal 2));
  check Alcotest.bool "ctr probe result" true (!o4 = Some (P.Normal 51));
  check Alcotest.int "producer executed exactly once" 1
    (Option.value ~default:0 (Hashtbl.find_opt slow_execs 7));
  check Alcotest.int "parked dependent executed exactly once, substituted arg" 1
    (Option.value ~default:0 (Hashtbl.find_opt ctr_execs 14));
  check Alcotest.int "plain ctr call executed exactly once" 1
    (Option.value ~default:0 (Hashtbl.find_opt ctr_execs 100));
  check Alcotest.int "dependent call parked" 1 (peek w.sched "parked_calls")

(* ------------------------------------------------------------------ *)
(* A reference whose producer outcome was FIFO-evicted from the
   registry must fail, not park forever. *)

let test_evicted_reference_fails () =
  let w = make_world ~pipeline_cache:2 () in
  G.register w.server ~group:"main" step_sig (fun _ n -> Ok (n + 1));
  let ran = ref 0 in
  G.register w.server ~group:"aux" step_sig (fun _ n ->
      incr ran;
      Ok (n + 1));
  let out = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let producer = handle w ~agent:"a" ~gid:"main" step_sig in
         let consumer = handle w ~agent:"b" ~gid:"aux" step_sig in
         (* Five completed calls through a cap-2 registry push call 0
            out; reference it only after everything settled. *)
         let ps = List.init 5 (fun i -> R.stream_call producer i) in
         R.flush producer;
         List.iter (fun p -> ignore (P.claim p : _ P.outcome)) ps;
         let args =
           Xdr.Pref
             { Xdr.ps_stream = SE.stable_id (R.stream producer); ps_call = 0; ps_field = None }
         in
         let se = R.stream consumer in
         (match
            SE.call se ~port:"step" ~kind:Cstream.Wire.Call ~args ~on_reply:(fun o ->
                out := Some o)
          with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "call rejected: %s" e);
         SE.flush se));
  run_ok w.sched;
  (match !out with
  | Some (Cstream.Wire.W_failure reason) ->
      check Alcotest.bool "names the eviction" true (contains ~affix:"evicted" reason)
  | _ -> Alcotest.fail "evicted reference must fail, not park");
  check Alcotest.int "dependent never executed" 0 !ran;
  check Alcotest.int "nothing parked" 0 (peek w.sched "parked_calls");
  check Alcotest.int "counted as ref failure" 1 (peek w.sched "ref_failures")

(* ------------------------------------------------------------------ *)
(* Same node, different guardian: the registries are disjoint, so the
   reference must be rejected with the documented failure instead of
   parking forever at the receiver. *)

let test_cross_guardian_ref_fails () =
  let w = make_world () in
  let other = G.create (G.hub w.server) ~name:"other" in
  G.register w.server ~group:"main" step_sig (fun _ n -> Ok (n + 1));
  let ran = ref 0 in
  G.register other ~group:"g2" step_sig (fun _ n ->
      incr ran;
      Ok (n + 1));
  let out = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let producer = handle w ~agent:"a" ~gid:"main" step_sig in
         let dependent = handle w ~agent:"b" ~gid:"g2" step_sig in
         let p1 = R.stream_call producer 1 in
         let p2 = R.Call.(submit (piped dependent (R.pipe p1))) in
         R.flush producer;
         R.flush dependent;
         ignore (P.claim p1 : _ P.outcome);
         out := Some (P.claim p2)));
  run_ok w.sched;
  (match !out with
  | Some (P.Failure reason) ->
      check Alcotest.bool "names the guardian mismatch" true (contains ~affix:"guardian" reason)
  | _ -> Alcotest.fail "cross-guardian reference must fail, not park");
  check Alcotest.int "dependent never executed" 0 !ran;
  check Alcotest.int "nothing parked" 0 (peek w.sched "parked_calls");
  check Alcotest.int "counted as ref failure" 1 (peek w.sched "ref_failures")

(* ------------------------------------------------------------------ *)
(* Waiter-slot hygiene: a parked call abandoned with its connection
   (dedup off) must release its registry slots, or the table fills up
   and refuses every future cross-stream pipelined call. *)

let test_parked_waiters_reclaimed_on_conn_break () =
  let w = make_world () in
  G.register w.server ~group:"main" step_sig (fun ctx n ->
      S.sleep ctx.G.sched 20e-3;
      Ok (n * 2));
  let ran = ref 0 in
  G.register w.server ~group:"aux" step_sig (fun _ n ->
      incr ran;
      Ok (n + 1));
  let reg = G.pipeline_registry w.server in
  ignore
    (S.spawn w.sched (fun () ->
         let producer = handle w ~agent:"a" ~gid:"main" step_sig in
         let consumer = handle w ~agent:"b" ~gid:"aux" step_sig in
         let p1 = R.stream_call producer 7 in
         R.flush producer;
         let _p2 = R.Call.(submit (piped consumer (R.pipe p1))) in
         R.flush consumer;
         S.sleep w.sched 5e-3;
         check Alcotest.int "dependent parked one waiter" 1 (Pipeline.Registry.waiting reg);
         (* The consumer stream restarts: the Reset reaches the target,
            whose conn-close hook must release the parked slot. *)
         SE.restart (R.stream consumer);
         S.sleep w.sched 5e-3;
         check Alcotest.int "waiter slot reclaimed on conn close" 0
           (Pipeline.Registry.waiting reg);
         ignore (P.claim p1 : _ P.outcome)));
  run_ok w.sched;
  check Alcotest.int "orphaned dependent never executed" 0 !ran

(* ------------------------------------------------------------------ *)
(* Registry unit checks: cancel releases slots and silences callbacks;
   a refused await parks nothing; eviction marks work per stream. *)

let test_registry_waiter_accounting () =
  let reg : int Pipeline.Registry.t = Pipeline.Registry.create ~cap:1 ~max_waiters:2 () in
  let fired = ref [] in
  let park c =
    Pipeline.Registry.await reg ~stream:"s" ~call:c (fun v -> fired := v :: !fired)
  in
  let w1 = match park 0 with `Parked w -> w | _ -> Alcotest.fail "expected to park" in
  (match park 1 with `Parked _ -> () | _ -> Alcotest.fail "expected to park");
  (match park 2 with `Refused -> () | _ -> Alcotest.fail "expected refusal at max_waiters");
  check Alcotest.int "refused await parks nothing" 2 (Pipeline.Registry.waiting reg);
  Pipeline.Registry.cancel reg w1;
  check Alcotest.int "cancel releases the slot" 1 (Pipeline.Registry.waiting reg);
  Pipeline.Registry.record reg ~stream:"s" ~call:0 7;
  Pipeline.Registry.record reg ~stream:"s" ~call:1 9;
  check Alcotest.(list int) "cancelled waiter never fires" [ 9 ] !fired;
  check Alcotest.int "no waiters left" 0 (Pipeline.Registry.waiting reg);
  Pipeline.Registry.cancel reg w1;
  check Alcotest.int "cancel after firing is a no-op" 0 (Pipeline.Registry.waiting reg);
  (* cap = 1: recording call 1 evicted call 0. *)
  check Alcotest.bool "evicted below the mark" true
    (Pipeline.Registry.evicted reg ~stream:"s" ~call:0);
  check Alcotest.bool "present outcome is not evicted" false
    (Pipeline.Registry.evicted reg ~stream:"s" ~call:1);
  check Alcotest.bool "beyond the mark is not evicted" false
    (Pipeline.Registry.evicted reg ~stream:"s" ~call:5);
  check Alcotest.bool "other streams unaffected" false
    (Pipeline.Registry.evicted reg ~stream:"t" ~call:0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pipeline"
    [
      ( "pipelining",
        [
          Alcotest.test_case "4-deep chain in ~1 RTT" `Quick test_chain_single_round_trip;
          Alcotest.test_case "cross-stream dependent parks then runs" `Quick
            test_cross_stream_parking;
          Alcotest.test_case "producer signal/failure propagate, dependent never runs" `Quick
            test_producer_signal_propagates;
          Alcotest.test_case "dead producer short-circuits at sender" `Quick
            test_dead_producer_short_circuits;
          Alcotest.test_case "field selection (incl. missing field)" `Quick
            test_field_selection;
        ] );
      ( "guard rails",
        [
          Alcotest.test_case "pipe requires a stream-call origin" `Quick
            test_pipe_requires_origin;
          Alcotest.test_case "forward self-reference fails, no deadlock" `Quick
            test_forward_ref_on_same_stream_fails;
          Alcotest.test_case "builder refuses submit of a send" `Quick test_refuse_submit_send;
          Alcotest.test_case "builder refuses detach of a retried plan" `Quick
            test_refuse_detach_retry;
          Alcotest.test_case "builder refuses retry of a piped plan" `Quick
            test_refuse_retry_piped;
          Alcotest.test_case "builder refuses retry of a deferred plan" `Quick
            test_refuse_retry_deferred;
          Alcotest.test_case "builder refuses send with a piped argument" `Quick
            test_refuse_send_piped;
          Alcotest.test_case "evicted reference fails, no park" `Quick
            test_evicted_reference_fails;
          Alcotest.test_case "cross-guardian reference fails, no park" `Quick
            test_cross_guardian_ref_fails;
          Alcotest.test_case "parked waiters reclaimed on conn break" `Quick
            test_parked_waiters_reclaimed_on_conn_break;
          Alcotest.test_case "registry waiter accounting" `Quick
            test_registry_waiter_accounting;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "resubmitted dependent executes exactly once" `Quick
            test_resubmit_dependent_exactly_once;
          Alcotest.test_case "parked dependent survives its conn's death" `Quick
            test_parked_dependent_conn_break_exactly_once;
        ] );
    ]

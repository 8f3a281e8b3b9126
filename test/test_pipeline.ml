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

(* [tap] sees every frame the client node sends. *)
let make_world ?(cfg = Net.default_config) ?tap () =
  let sched = S.create () in
  let net = Net.create sched cfg in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub =
    match tap with
    | None -> CH.create_hub ~net:(net, client_node) ()
    | Some tap ->
        let tr = Transport_sim.endpoint net client_node in
        let send ~dst frame =
          tap frame;
          tr.Transport.send ~dst frame
        in
        CH.create_hub ~transport:{ tr with Transport.send } ()
  in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
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

(* Arguments are decoded once per call at the receiver, whether or not
   they carry references: the ref test reads the lazy bytes, not a
   decoded tree. *)

let test_args_materialized_once () =
  let w = make_world () in
  G.register w.server ~group:"main" step_sig (fun _ n -> Ok (n + 1));
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"main" step_sig in
         let plain = List.init 3 (fun i -> R.stream_call h i) in
         let p = ref (R.stream_call h 0) in
         for _ = 1 to 3 do
           p := R.Call.(submit (piped h (R.pipe !p)))
         done;
         R.flush h;
         List.iter (fun q -> ignore (P.claim q : (int, _) P.outcome)) plain;
         got := Some (P.claim !p)));
  run_ok w.sched;
  check Alcotest.bool "chain value" true (!got = Some (P.Normal 4));
  check Alcotest.int "three calls carried refs" 3 (peek w.sched "ref_substitutions");
  check Alcotest.int "one decode per call" 7 (peek w.sched "target_args_materialized")

(* Steady state on adaptive channels both ways, with no receive
   overhead (so, as over TCP, the server replies in the turn the calls
   arrived): a depth-4 chain costs one call packet and one reply
   packet. Each idle channel flushes at the end of its turn with the
   peer's parked acks on board — the reply packet acks the calls, the
   next chain's call packet acks the replies — so no Ack travels
   alone. The bytes are pinned too: the three references name their
   own stream by the empty id, so the call packet does not spell the
   stream's stable id; and neither packet spells its sender or an item
   count, nor an ack's pressure in a byte of its own, nor a count for
   its one ack (53 B: 6 B more under the grammar with the first three,
   2 B more with the ack count). *)

let test_adaptive_chain_two_packets () =
  let w = make_world ~cfg:{ Net.default_config with Net.kernel_overhead = 0.0 } () in
  let cfg = CH.adaptive_config in
  G.register_group w.server ~group:"main"
    ~config:GC.(default |> with_reply_config cfg |> with_ordered false)
    ();
  G.register w.server ~group:"main" step_sig (fun _ n -> Ok (n + 1));
  let counts () =
    ( peek w.sched "chan_data_packets",
      peek w.sched "chan_items_sent",
      peek w.sched "chan_ack_packets",
      Sim.Stats.peek (Net.stats w.net) "bytes_sent" )
  in
  let marks = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:cfg ~agent:"c" ~gid:"main" step_sig in
         for chain = 0 to 4 do
           marks := counts () :: !marks;
           let p = ref (R.stream_call h (10 * chain)) in
           for _ = 2 to 4 do
             p := R.Call.(submit (piped h (R.pipe !p)))
           done;
           R.flush h;
           check Alcotest.bool "chain value" true (P.claim !p = P.Normal ((10 * chain) + 4))
         done));
  run_ok w.sched;
  (* Chains 1..3: warm (the channels are open), and each is followed
     by a next chain whose call packet carries the replies' ack. *)
  let marks = Array.of_list (List.rev !marks) in
  for chain = 1 to 3 do
    let d0, i0, a0, b0 = marks.(chain) and d1, i1, a1, b1 = marks.(chain + 1) in
    check Alcotest.int (Printf.sprintf "chain %d: data packets" chain) 2 (d1 - d0);
    check Alcotest.int (Printf.sprintf "chain %d: items (4 calls, 4 replies)" chain) 8 (i1 - i0);
    check Alcotest.int (Printf.sprintf "chain %d: standalone acks" chain) 0 (a1 - a0);
    check Alcotest.int (Printf.sprintf "chain %d: bytes on the wire" chain) 53 (b1 - b0)
  done

(* A reference to an earlier call on its own stream names the stream
   by the empty id (Wire.own_stream): a warm chain's call frame does
   not carry the stream's stable id. A dependent on another stream of
   the same node still spells the producer's id. *)

let test_own_stream_ref_elides_stable_id () =
  let frames = ref [] in
  let w = make_world ~tap:(fun f -> frames := f :: !frames) () in
  G.register w.server ~group:"main" step_sig (fun _ n -> Ok (n + 1));
  let chain_frames = ref [] and cross_frames = ref [] and own_id = ref "" in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"a" ~gid:"main" step_sig in
         let other = handle w ~agent:"b" ~gid:"main" step_sig in
         own_id := SE.stable_id (R.stream h);
         let chain v =
           let p = ref (R.stream_call h v) in
           for _ = 2 to 4 do
             p := R.Call.(submit (piped h (R.pipe !p)))
           done;
           R.flush h;
           P.claim !p
         in
         check Alcotest.bool "cold chain value" true (chain 0 = P.Normal 4);
         frames := [];
         check Alcotest.bool "warm chain value" true (chain 10 = P.Normal 14);
         chain_frames := !frames;
         frames := [];
         let p1 = R.stream_call h 20 in
         R.flush h;
         let p2 = R.Call.(submit (piped other (R.pipe p1))) in
         R.flush other;
         check Alcotest.bool "cross-stream value" true (P.claim p2 = P.Normal 22);
         cross_frames := !frames));
  run_ok w.sched;
  let items f =
    match CH.decode_packet f with Ok (CH.Data { items; _ }) -> List.length items | _ -> 0
  in
  (match List.filter (fun f -> items f > 0) !chain_frames with
  | [ f ] ->
      check Alcotest.int "the warm chain leaves in one frame" 4 (items f);
      check Alcotest.bool "its frame does not spell the stable id" false
        (contains ~affix:!own_id f)
  | fs -> Alcotest.failf "warm chain: %d call frames, expected 1" (List.length fs));
  check Alcotest.int "three references substituted per chain, one cross-stream" 7
    (peek w.sched "ref_substitutions");
  check Alcotest.bool "the cross-stream dependent's frame spells the producer's id" true
    (List.exists (contains ~affix:!own_id) !cross_frames)

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

(* A [Pref] inside one record of a packed record list (tag 0x0F, whose
   records spell no names of their own): the receiver's scan finds it,
   the call parks on its producer, and the produced value lands in
   that record. *)
let entry_codec =
  {
    Xdr.type_name = "entry";
    encode = (fun (who, g) -> Ok (Xdr.Record [ ("who", Xdr.Str who); ("g", Xdr.Int g) ]));
    decode =
      (function
      | Xdr.Record [ ("who", Xdr.Str who); ("g", Xdr.Int g) ] -> Ok (who, g)
      | v -> Error (Format.asprintf "not an entry: %a" Xdr.pp_value v));
  }

let total_sig = Core.Sigs.hsig0 "total" ~arg:(Xdr.list entry_codec) ~res:Xdr.int

let test_pref_in_packed_records () =
  let w = make_world () in
  G.register w.server ~group:"main" step_sig (fun ctx n ->
      S.sleep ctx.G.sched 5e-3;
      Ok (n * 2));
  let saw = ref [] in
  G.register w.server ~group:"aux" total_sig (fun _ entries ->
      saw := entries :: !saw;
      Ok (List.fold_left (fun acc (_, g) -> acc + g) 0 entries));
  let out = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let producer = handle w ~agent:"a" ~gid:"main" step_sig in
         let consumer = handle w ~agent:"b" ~gid:"aux" total_sig in
         let p1 = R.stream_call producer 7 in
         R.flush producer;
         let ps_stream = SE.stable_id (R.stream producer) in
         let pref = Xdr.Pref { Xdr.ps_stream; ps_call = 0; ps_field = None } in
         let entry who g = Xdr.Record [ ("who", Xdr.Str who); ("g", g) ] in
         let args =
           Xdr.List [ entry "ann" (Xdr.Int 1); entry "bob" pref; entry "cy" (Xdr.Int 3) ]
         in
         let enc = Xdr.Bin.to_string args in
         check Alcotest.char "packed record list" '\x0f' enc.[0];
         check Alcotest.(result bool string) "has_prefs" (Ok true)
           (Result.map Xdr.View.has_prefs (Xdr.View.of_string enc));
         let se = R.stream consumer in
         (match
            SE.call se ~port:"total" ~kind:Cstream.Wire.Call ~args ~on_reply:(fun o ->
                out := Some o)
          with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "call rejected: %s" e);
         SE.flush se;
         ignore (P.claim p1 : _ P.outcome)));
  run_ok w.sched;
  (match !out with
  | Some (Cstream.Wire.W_normal (Xdr.Int 18)) -> ()
  | _ -> Alcotest.fail "the total must include the producer's 14");
  check Alcotest.(list (list (pair string int))) "handler ran once, value substituted"
    [ [ ("ann", 1); ("bob", 14); ("cy", 3) ] ]
    !saw;
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
    ~res:(Xdr.record3 "bounds" ("lo", Xdr.int) ("hi", Xdr.int) ("step", Xdr.int))

let test_field_selection () =
  let w = make_world () in
  G.register w.server ~group:"main" make_sig (fun _ n -> Ok (n, n * 10, 1));
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
     resolve — the receiver must fail it instead of deadlocking. The
     empty stream id (Wire.own_stream) takes the same guard as the
     spelled one, and nothing parks. *)
  let w = make_world () in
  let ran = ref 0 in
  G.register w.server ~group:"main" step_sig (fun _ n ->
      incr ran;
      Ok (n + 1));
  let outs = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"main" step_sig in
         let se = R.stream h in
         (* cid 0 names cid 999 by the spelled id; by the empty id,
            cid 1 names itself and cid 2 names cid 5 *)
         List.iter
           (fun (ps_stream, ps_call) ->
             let args = Xdr.Pref { Xdr.ps_stream; ps_call; ps_field = None } in
             match
               SE.call se ~port:"step" ~kind:Cstream.Wire.Call ~args ~on_reply:(fun o ->
                   outs := o :: !outs)
             with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "call rejected: %s" e)
           [ (SE.stable_id se, 999); (Cstream.Wire.own_stream, 1); (Cstream.Wire.own_stream, 5) ];
         SE.flush se));
  run_ok w.sched;
  check Alcotest.int "every call answered" 3 (List.length !outs);
  List.iter
    (function
      | Cstream.Wire.W_failure reason ->
          check Alcotest.bool "fails on the same-stream guard" true
            (contains ~affix:"not-earlier call on the same stream" reason)
      | _ -> Alcotest.fail "forward self-reference must fail")
    !outs;
  check Alcotest.int "nothing parked" 0 (peek w.sched "parked_calls");
  check Alcotest.int "no waiter left" 0 (Pipeline.Registry.waiting (CH.outcomes (G.hub w.server)));
  check Alcotest.int "no handler ran" 0 !ran;
  check Alcotest.int "counted as ref failures" 3 (peek w.sched "ref_failures")

(* One call naming the same earlier call both by the empty id and by
   the spelled stable id holds one reference: it parks one waiter and
   counts one substitution, and both leaves get the value. *)
let add_sig = Core.Sigs.hsig0 "add" ~arg:Xdr.(pair int int) ~res:Xdr.int

let test_own_stream_and_spelled_id_are_one_ref () =
  let w = make_world () in
  G.register_group w.server ~group:"main"
    ~config:GC.(default |> with_reply_config batch_cfg |> with_ordered false)
    ();
  G.register w.server ~group:"main" step_sig (fun ctx n ->
      S.sleep ctx.G.sched 10e-3;
      Ok (n + 1));
  G.register w.server ~group:"main" add_sig (fun _ (a, b) -> Ok (a + b));
  let reg = CH.outcomes (G.hub w.server) in
  let waiting = ref (-1) and out = ref None in
  (* the producer runs from ~1.2 ms to ~11.2 ms; the dependent is parked *)
  S.at w.sched 5e-3 (fun () -> waiting := Pipeline.Registry.waiting reg);
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"main" step_sig in
         let se = R.stream h in
         let p1 = R.stream_call h 10 in
         let pref ps_stream = Xdr.Pref { Xdr.ps_stream; ps_call = 0; ps_field = None } in
         let args = Xdr.Pair (pref Cstream.Wire.own_stream, pref (SE.stable_id se)) in
         (match
            SE.call se ~port:"add" ~kind:Cstream.Wire.Call ~args ~on_reply:(fun o ->
                out := Some o)
          with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "call rejected: %s" e);
         SE.flush se;
         ignore (P.claim p1 : _ P.outcome)));
  run_ok w.sched;
  (match !out with
  | Some (Cstream.Wire.W_normal (Xdr.Int 22)) -> ()
  | _ -> Alcotest.fail "both leaves must carry the producer's 11");
  check Alcotest.int "one waiter parked" 1 !waiting;
  check Alcotest.int "parked once" 1 (peek w.sched "parked_calls");
  check Alcotest.int "one substitution" 1 (peek w.sched "ref_substitutions");
  check Alcotest.int "no ref failures" 0 (peek w.sched "ref_failures")

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
   the dedup store and the dependent executes exactly once. *)

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

(* A self-referencing chain on an unordered dedup group names its own
   stream by the empty id, which the receiver maps to the stable id,
   the same in every incarnation. The producer runs through an outage;
   its dependents park on the first connection, which dies, and again
   when resubmitted on the next. Each call runs exactly once. *)

let test_resubmitted_own_stream_chain_exactly_once () =
  let w = make_world () in
  let execs : (int, int) Hashtbl.t = Hashtbl.create 8 in
  G.register_group w.server ~group:"ctr"
    ~config:
      GC.(default |> with_reply_config fast_chan_cfg |> with_dedup |> with_ordered false)
    ();
  G.register w.server ~group:"ctr" step_sig (fun ctx n ->
      Hashtbl.replace execs n (1 + Option.value ~default:0 (Hashtbl.find_opt execs n));
      if n = 10 then S.sleep ctx.G.sched 60e-3;
      Ok (n + 1));
  S.at w.sched 2e-3 (fun () -> Net.crash w.net w.server_node);
  S.at w.sched 40e-3 (fun () -> Net.recover w.net w.server_node);
  let out = ref None and probe = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast_chan_cfg ~agent:"c" ~gid:"ctr" step_sig in
         let se = R.stream h in
         SE.set_preserve_on_break se true;
         let p = ref (R.stream_call h 10) in
         for _ = 2 to 4 do
           p := R.Call.(submit (piped h (R.pipe !p)))
         done;
         R.flush h;
         S.sleep w.sched 3e-3;
         let p5 = R.stream_call h 1 in
         R.flush h;
         while SE.broken se = None || S.now w.sched < 45e-3 do
           S.sleep w.sched 1e-3
         done;
         check Alcotest.bool "resubmitted" true (SE.restart_resubmit se > 0);
         out := Some (P.claim !p);
         probe := Some (P.claim p5)));
  run_ok w.sched;
  check Alcotest.bool "chain result" true (!out = Some (P.Normal 14));
  check Alcotest.bool "probe result" true (!probe = Some (P.Normal 2));
  List.iter
    (fun n ->
      check Alcotest.int (Printf.sprintf "argument %d executed once" n) 1
        (Option.value ~default:0 (Hashtbl.find_opt execs n)))
    [ 10; 11; 12; 13; 1 ];
  check Alcotest.int "no other argument values were executed" 5 (Hashtbl.length execs);
  check Alcotest.int "no ref failures" 0 (peek w.sched "ref_failures")

(* ------------------------------------------------------------------ *)
(* Supervision x pipelining, the parked flavour: the dependent call is
   parked on a dedup group (waiting for a producer on another stream)
   when its own connection dies. The parked original dies with its
   connection, like any parked call; the resubmitted duplicate parks
   on its new connection and runs once the producer lands. A
   regression here either runs the dependent twice or never. *)

let test_parked_dependent_dies_with_conn () =
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
  check Alcotest.int "original and duplicate each parked" 2 (peek w.sched "parked_calls")

(* ------------------------------------------------------------------ *)
(* Supervision x the node registry as dedup store: stream A's three
   calls execute, but a partition cuts off their replies. Meanwhile a
   third node pushes 1,200 calls (or sends) through the same dedup
   group — more outcomes than the registry's cap of 1024 — whose
   replies are acked as they go. Acked outcomes are evicted first, so
   after heal and resubmission A's calls are replayed, not run again. *)

let test_unacked_outcomes_survive_flood ~sends () =
  let w = make_world () in
  let execs : (int, int) Hashtbl.t = Hashtbl.create 2048 in
  G.register_group w.server ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  G.register w.server ~group:"ctr" step_sig (fun ctx n ->
      Hashtbl.replace execs n (1 + Option.value ~default:0 (Hashtbl.find_opt execs n));
      if n < 1000 then S.sleep ctx.G.sched 2e-3;
      Ok n);
  let flood_node = Net.add_node w.net ~name:"flood" in
  let flood_hub = CH.create_hub ~net:(w.net, flood_node) () in
  let client = Net.address w.client_node and server = Net.address w.server_node in
  S.at w.sched 1.5e-3 (fun () -> Net.partition w.net client server);
  let flooded = ref false in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = Core.Agent.create flood_hub ~name:"f" ~config:fast_chan_cfg () in
         let h = R.bind ag ~dst:server ~gid:"ctr" step_sig in
         S.sleep w.sched 10e-3;
         for round = 0 to 11 do
           let args = List.init 100 (fun i -> 1000 + (100 * round) + i) in
           if sends then begin
             List.iter (R.send h) args;
             match R.synch h with
             | Ok () -> ()
             | Error _ -> Alcotest.fail "flood sends failed"
           end
           else begin
             let ps = List.map (R.stream_call h) args in
             R.flush h;
             List.iter2
               (fun n p -> check Alcotest.bool "flood result" true (P.claim p = P.Normal n))
               args ps
           end
         done;
         flooded := true));
  let outs = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast_chan_cfg ~agent:"a" ~gid:"ctr" step_sig in
         let se = R.stream h in
         SE.set_preserve_on_break se true;
         let ps = List.map (R.stream_call h) [ 0; 1; 2 ] in
         R.flush h;
         while SE.broken se = None || not !flooded do
           S.sleep w.sched 1e-3
         done;
         Net.heal w.net client server;
         ignore (SE.restart_resubmit se : int);
         outs := List.map P.claim ps));
  run_ok w.sched;
  check Alcotest.bool "flood went through" true !flooded;
  check Alcotest.bool "A's results" true (!outs = [ P.Normal 0; P.Normal 1; P.Normal 2 ]);
  List.iter
    (fun n ->
      check Alcotest.int (Printf.sprintf "A's argument %d executed once" n) 1
        (Option.value ~default:0 (Hashtbl.find_opt execs n)))
    [ 0; 1; 2 ];
  check Alcotest.bool "A's calls replayed" true (peek w.sched "target_dedup_replays" >= 3)

(* A resubmitted dependent whose original is still running joins it
   without resolving its references again: by then its producer's
   acked outcome may be evicted, and a second resolution would fail
   the call although its handler runs. Here the producer is acked, the
   dependent sleeps, the stream breaks, and a flood from a third node
   evicts the producer before the resubmission arrives. *)

let test_running_dependent_joined_after_producer_evicted () =
  let w = make_world () in
  let execs : (int, int) Hashtbl.t = Hashtbl.create 2048 in
  G.register_group w.server ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  G.register w.server ~group:"ctr" step_sig (fun ctx n ->
      Hashtbl.replace execs n (1 + Option.value ~default:0 (Hashtbl.find_opt execs n));
      if n = 14 then S.sleep ctx.G.sched 1.0;
      Ok (n * 2));
  let flood_node = Net.add_node w.net ~name:"flood" in
  let flood_hub = CH.create_hub ~net:(w.net, flood_node) () in
  let client = Net.address w.client_node and server = Net.address w.server_node in
  let reg = CH.outcomes (G.hub w.server) in
  S.at w.sched 10e-3 (fun () -> Net.partition w.net client server);
  let flooded = ref false in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = Core.Agent.create flood_hub ~name:"f" ~config:fast_chan_cfg () in
         let h = R.bind ag ~dst:server ~gid:"ctr" step_sig in
         S.sleep w.sched 20e-3;
         for round = 0 to 10 do
           let args = List.init 100 (fun i -> 1000 + (100 * round) + i) in
           let ps = List.map (R.stream_call h) args in
           R.flush h;
           List.iter (fun p -> ignore (P.claim p : _ P.outcome)) ps
         done;
         flooded := true));
  let o1 = ref None and o2 = ref None and o3 = ref None and evicted = ref false in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast_chan_cfg ~agent:"c" ~gid:"ctr" step_sig in
         let se = R.stream h in
         SE.set_preserve_on_break se true;
         let p1 = R.stream_call h 7 in
         let p2 = R.Call.(submit (piped h (R.pipe p1))) in
         R.flush h;
         o1 := Some (P.claim p1);
         S.sleep w.sched 12e-3;
         let p3 = R.stream_call h 1 in
         R.flush h;
         while SE.broken se = None || not !flooded do
           S.sleep w.sched 1e-3
         done;
         evicted := Pipeline.Registry.evicted reg ~stream:(SE.stable_id se) ~call:0;
         Net.heal w.net client server;
         ignore (SE.restart_resubmit se : int);
         o2 := Some (P.claim p2);
         o3 := Some (P.claim p3)));
  run_ok w.sched;
  check Alcotest.bool "producer evicted before the resubmission" true !evicted;
  check Alcotest.bool "producer result" true (!o1 = Some (P.Normal 14));
  check Alcotest.bool "dependent result is the handler's" true (!o2 = Some (P.Normal 28));
  check Alcotest.bool "probe result" true (!o3 = Some (P.Normal 2));
  List.iter
    (fun n ->
      check Alcotest.int (Printf.sprintf "argument %d executed once" n) 1
        (Option.value ~default:0 (Hashtbl.find_opt execs n)))
    [ 7; 14; 1 ];
  check Alcotest.int "duplicate joined" 1 (peek w.sched "target_dedup_joins")

(* A duplicate that would join a still-running execution takes a
   registry waiter slot. With the node's waiter table full the join is
   refused: the duplicate is answered [unavailable] and counted, and the
   handler still runs once. *)

let test_dedup_join_refused_when_table_full () =
  let w = make_world () in
  let executions = ref 0 in
  G.register_group w.server ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  G.register w.server ~group:"ctr" step_sig (fun ctx n ->
      if n = 7 then begin
        incr executions;
        S.sleep ctx.G.sched 60e-3
      end;
      Ok (n + 1));
  S.at w.sched 2e-3 (fun () -> Net.crash w.net w.server_node);
  S.at w.sched 40e-3 (fun () -> Net.recover w.net w.server_node);
  let reg = CH.outcomes (G.hub w.server) in
  let out = ref None and probe_out = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast_chan_cfg ~agent:"c" ~gid:"ctr" step_sig in
         let se = R.stream h in
         SE.set_preserve_on_break se true;
         let p = R.stream_call h 7 in
         R.flush h;
         S.sleep w.sched 3e-3;
         let probe = R.stream_call h 100 in
         R.flush h;
         while SE.broken se = None || S.now w.sched < 45e-3 do
           S.sleep w.sched 1e-3
         done;
         let rec fill acc i =
           match Pipeline.Registry.await reg ~stream:"filler" ~call:i ignore with
           | `Parked wt -> fill (wt :: acc) (i + 1)
           | `Fired | `Refused -> acc
         in
         let fillers = fill [] 0 in
         ignore (SE.restart_resubmit se : int);
         out := Some (P.claim p);
         probe_out := Some (P.claim probe);
         List.iter (Pipeline.Registry.cancel reg) fillers));
  run_ok w.sched;
  (match !out with
  | Some (P.Unavailable _) -> ()
  | _ -> Alcotest.fail "refused join must answer unavailable");
  check Alcotest.bool "probe result" true (!probe_out = Some (P.Normal 101));
  check Alcotest.int "handler ran once" 1 !executions;
  check Alcotest.int "refusal counted" 1 (peek w.sched "target_dedup_join_refusals");
  check Alcotest.int "no join" 0 (peek w.sched "target_dedup_joins");
  check Alcotest.int "no waiter left" 0 (Pipeline.Registry.waiting reg)

(* ------------------------------------------------------------------ *)
(* A reference whose producer outcome was FIFO-evicted from the
   registry must fail, not park forever. *)

let test_evicted_reference_fails () =
  let w = make_world () in
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
         (* 1030 completed calls through the node registry's default
            cap of 1024 push call 0 out; reference it only after
            everything settled. *)
         let ps = List.init 1030 (fun i -> R.stream_call producer i) in
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
(* Same node, different guardian: the node has one registry, so a
   reference to a call run through another guardian's group resolves
   like any other. *)

let test_cross_guardian_ref_resolves () =
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
  check Alcotest.bool "dependent got the substituted value" true (!out = Some (P.Normal 3));
  check Alcotest.int "dependent executed once" 1 !ran;
  check Alcotest.int "substitution performed" 1 (peek w.sched "ref_substitutions");
  check Alcotest.int "no reference failures" 0 (peek w.sched "ref_failures")

(* A reference whose stable stream id names a group this node does not
   run, or a stream sent to another node (here to a [main] group, which
   this node runs too), with no handoff annotation, can never resolve
   here: it fails at once instead of parking. *)

let test_out_of_scope_ref_fails () =
  List.iter
    (fun ps_stream ->
      let w = make_world () in
      let ran = ref 0 in
      G.register w.server ~group:"main" step_sig (fun _ n ->
          incr ran;
          Ok (n + 1));
      let out = ref None in
      ignore
        (S.spawn w.sched (fun () ->
             let se = R.stream (handle w ~agent:"c" ~gid:"main" step_sig) in
             let args = Xdr.Pref { Xdr.ps_stream; ps_call = 0; ps_field = None } in
             (match
                SE.call se ~port:"step" ~kind:Cstream.Wire.Call ~args ~on_reply:(fun o ->
                    out := Some o)
              with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "call rejected: %s" e);
             SE.flush se));
      run_ok w.sched;
      let what = Printf.sprintf "%s: " ps_stream in
      (match !out with
      | Some (Cstream.Wire.W_failure reason) ->
          check Alcotest.bool (what ^ "tells the caller to claim") true
            (contains ~affix:"claim it instead" reason)
      | _ -> Alcotest.failf "%sout-of-scope reference must fail, not park" what);
      check Alcotest.int (what ^ "dependent never executed") 0 !ran;
      check Alcotest.int (what ^ "nothing parked") 0 (peek w.sched "parked_calls");
      check Alcotest.int (what ^ "no waiter left") 0
        (Pipeline.Registry.waiting (CH.outcomes (G.hub w.server)));
      check Alcotest.int (what ^ "counted as ref failure") 1 (peek w.sched "ref_failures"))
    [ "9|~r/ghost/elsewhere/1"; "9|~r/ghost/main/77" ]

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
  let reg = CH.outcomes (G.hub w.server) in
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

(* The registry's memory follows its budget, not its history: in
   steady state every outcome is recorded, marked releasable when its
   reply is acked (the ack path's order) and later evicted through the
   releasable queue. Between 10 x cap and 20 x cap records the
   registry may differ by at most one compaction cycle of its key FIFO:
   cap + 1 stale keys of at most 8 words each (queue cell, key tuple).
   Without compaction it would grow by 10 x cap such keys. *)
let test_registry_memory_bounded () =
  let cap = 64 in
  let reg : int Pipeline.Registry.t = Pipeline.Registry.create ~cap () in
  let next = ref 0 in
  let record_upto n =
    while !next < n do
      Pipeline.Registry.record reg ~stream:"s" ~call:!next !next;
      Pipeline.Registry.mark_releasable reg ~stream:"s" ~call:!next;
      incr next
    done
  in
  record_upto (10 * cap);
  let words_10 = Obj.reachable_words (Obj.repr reg) in
  record_upto (20 * cap);
  let words_20 = Obj.reachable_words (Obj.repr reg) in
  check Alcotest.int "outcomes stay at cap" cap (Pipeline.Registry.known reg);
  let bound = 8 * (cap + 1) in
  if words_20 - words_10 > bound then
    Alcotest.failf "registry grew by %d words between %d and %d records (bound %d)"
      (words_20 - words_10) (10 * cap) (20 * cap) bound

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "pipeline"
    [
      ( "pipelining",
        [
          Alcotest.test_case "4-deep chain in ~1 RTT" `Quick test_chain_single_round_trip;
          Alcotest.test_case "adaptive chain: one packet each way, no lone ack" `Quick
            test_adaptive_chain_two_packets;
          Alcotest.test_case "own-stream reference does not spell the stream id" `Quick
            test_own_stream_ref_elides_stable_id;
          Alcotest.test_case "call arguments decoded once" `Quick test_args_materialized_once;
          Alcotest.test_case "cross-stream dependent parks then runs" `Quick
            test_cross_stream_parking;
          Alcotest.test_case "a ref inside a packed record list parks then runs" `Quick
            test_pref_in_packed_records;
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
          Alcotest.test_case "empty id and spelled id: one reference" `Quick
            test_own_stream_and_spelled_id_are_one_ref;
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
          Alcotest.test_case "cross-guardian reference resolves" `Quick
            test_cross_guardian_ref_resolves;
          Alcotest.test_case "out-of-scope reference fails, no park" `Quick
            test_out_of_scope_ref_fails;
          Alcotest.test_case "parked waiters reclaimed on conn break" `Quick
            test_parked_waiters_reclaimed_on_conn_break;
          Alcotest.test_case "registry waiter accounting" `Quick
            test_registry_waiter_accounting;
          Alcotest.test_case "registry memory bounded by its cap" `Quick
            test_registry_memory_bounded;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "resubmitted dependent executes exactly once" `Quick
            test_resubmit_dependent_exactly_once;
          Alcotest.test_case "resubmitted own-stream chain runs each call once" `Quick
            test_resubmitted_own_stream_chain_exactly_once;
          Alcotest.test_case "parked dependent dies with its conn, duplicate runs once" `Quick
            test_parked_dependent_dies_with_conn;
          Alcotest.test_case "unacked outcomes survive a call flood" `Quick
            (test_unacked_outcomes_survive_flood ~sends:false);
          Alcotest.test_case "unacked outcomes survive a send flood" `Quick
            (test_unacked_outcomes_survive_flood ~sends:true);
          Alcotest.test_case "running dependent joined after its producer is evicted" `Quick
            test_running_dependent_joined_after_producer_evicted;
          Alcotest.test_case "dedup join refused when the waiter table is full" `Quick
            test_dedup_join_refused_when_table_full;
        ] );
    ]

(* Third-party handoff (docs/HANDOFF.md): a pipelined dependent call
   forwarded to the node that owns the dependent result. A defers a
   producer call on B, issues the consumer call directly on C with a
   handoff-annotated reference, and B pushes the produced outcome
   straight to C. These tests cover the happy path plus the edges the
   design note calls out: a producer crash between handoff and claim
   (the waiter gets the producer's abnormal outcome, not a hang), a
   resubmission racing the handoff (exactly-once must hold at both
   servers), and an epoch mismatch (the receiver refuses the notice and
   the sender silently falls back to proxying). *)

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
(* Fixture: client A, producer guardian on B, consumer guardian on C.
   The producer hands out fixed-size blobs; the consumer measures
   them. Both groups dedup, so a resubmitted call must join its cached
   entry instead of re-executing. *)

let blob_len = 64

let blob_of i =
  let tag = Printf.sprintf "%04d|" i in
  tag ^ String.make (blob_len - String.length tag) 'x'

let blob_sig = Core.Sigs.hsig0 "blob" ~arg:Xdr.int ~res:Xdr.string

let consume_sig = Core.Sigs.hsig0 "consume" ~arg:Xdr.string ~res:Xdr.int

(* Fast retransmit, so break detection fits in a few simulated ms. *)
let chan_cfg =
  {
    CH.default_config with
    CH.max_batch = 4;
    flush_interval = 0.5e-3;
    retransmit_timeout = 4e-3;
    max_retries = 3;
  }

let group_config = GC.(default |> with_reply_config chan_cfg |> with_dedup)

type world = {
  sched : S.t;
  net : CH.frame Net.t;
  a_node : Net.node;
  b_node : Net.node;
  c_node : Net.node;
  a_hub : CH.hub;
  b_hub : CH.hub;
  c_hub : CH.hub;
  mid_execs : (int, int) Hashtbl.t;
  sink_execs : (string, int) Hashtbl.t;
}

let make_world () =
  let sched = S.create () in
  let net = Net.create sched { Net.default_config with Net.wire_latency = 1e-3 } in
  let a_node = Net.add_node net ~name:"client" in
  let b_node = Net.add_node net ~name:"mid" in
  let c_node = Net.add_node net ~name:"sink" in
  let a_hub = CH.create_hub ~net:(net, a_node) () in
  let b_hub = CH.create_hub ~net:(net, b_node) () in
  let c_hub = CH.create_hub ~net:(net, c_node) () in
  let mid_execs = Hashtbl.create 16 and sink_execs = Hashtbl.create 16 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  in
  let mid = G.create b_hub ~name:"mid" and sink = G.create c_hub ~name:"sink" in
  G.register_group mid ~group:"main" ~config:group_config ();
  G.register mid ~group:"main" blob_sig (fun _ n ->
      bump mid_execs n;
      Ok (blob_of n));
  G.register_group sink ~group:"main" ~config:group_config ();
  G.register sink ~group:"main" consume_sig (fun _ s ->
      bump sink_execs s;
      Ok (String.length s));
  { sched; net; a_node; b_node; c_node; a_hub; b_hub; c_hub; mid_execs; sink_execs }

let handles w =
  let ag_b = Core.Agent.create w.a_hub ~name:"to-b" ~config:chan_cfg () in
  let ag_c = Core.Agent.create w.a_hub ~name:"to-c" ~config:chan_cfg () in
  ( R.bind ag_b ~dst:(Net.address w.b_node) ~gid:"main" blob_sig,
    R.bind ag_c ~dst:(Net.address w.c_node) ~gid:"main" consume_sig )

let dup_execs w =
  let extra count = max 0 (count - 1) in
  Hashtbl.fold (fun _ c acc -> acc + extra c) w.mid_execs 0
  + Hashtbl.fold (fun _ c acc -> acc + extra c) w.sink_execs 0

(* ------------------------------------------------------------------ *)
(* Happy path: defer the producer's reply, forward the consumer call,
   B pushes to C. The blob must never ride a reply to A. *)

let test_basic_forward () =
  let w = make_world () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let hB, hC = handles w in
         let pf = R.Call.(submit (defer_result (make hB 3))) in
         let pg = R.Call.(submit (piped hC (R.pipe pf))) in
         R.flush hC;
         got := Some (P.claim pg)));
  run_ok w.sched;
  check Alcotest.bool "consumer saw the blob" true (!got = Some (P.Normal blob_len));
  check Alcotest.int "one handoff issued" 1 (peek w.sched "handoff_calls");
  check Alcotest.int "one producer push" 1 (peek w.sched "handoff_forwards");
  check Alcotest.int "producer reply elided" 1 (peek w.sched "handoff_elided_replies");
  check Alcotest.int "push channel dialed" 1 (peek w.sched "handoff_streams_opened");
  check Alcotest.int "no fallback" 0 (peek w.sched "handoff_fallbacks");
  check Alcotest.int "no refusal" 0 (peek w.sched "handoff_refusals");
  check Alcotest.int "exactly-once" 0 (dup_execs w);
  check Alcotest.bool "producer executed" true (Hashtbl.mem w.mid_execs 3);
  check Alcotest.bool "consumer executed" true (Hashtbl.mem w.sink_execs (blob_of 3))

(* The deferred producer promise must not be claimable: its result was
   never shipped to A. Claiming it reports the programming error. *)
let test_deferred_claim_refused () =
  let w = make_world () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let hB, hC = handles w in
         let pf = R.Call.(submit (defer_result (make hB 4))) in
         let pg = R.Call.(submit (piped hC (R.pipe pf))) in
         R.flush hC;
         (match P.claim pg with
         | P.Normal _ -> ()
         | _ -> Alcotest.fail "consumer call failed");
         got := Some (P.claim pf)));
  run_ok w.sched;
  match !got with
  | Some (P.Failure r) ->
      check Alcotest.bool "explains defer_result" true (contains ~affix:"defer_result" r)
  | _ -> Alcotest.fail "claiming a deferred result should report Failure"

(* ------------------------------------------------------------------ *)
(* Producer crash between handoff and claim: B dies before producing.
   The A->B stream breaks; A relays the abnormal outcome to C, the
   parked consumer call completes abnormally — no hang, no execute. *)

let test_producer_crash_propagates () =
  let w = make_world () in
  let got = ref None in
  Net.crash w.net w.b_node;
  ignore
    (S.spawn w.sched (fun () ->
         let hB, hC = handles w in
         let pf = R.Call.(submit (defer_result (make hB 5))) in
         let pg = R.Call.(submit (piped hC (R.pipe pf))) in
         R.flush hC;
         got := Some (P.claim pg)));
  run_ok w.sched;
  (match !got with
  | Some (P.Unavailable _) -> ()
  | Some _ -> Alcotest.fail "consumer call should carry the producer's abnormal outcome"
  | None -> Alcotest.fail "consumer call never completed");
  check Alcotest.bool "consumer never executed" true (Hashtbl.length w.sink_execs = 0);
  check Alcotest.int "exactly-once" 0 (dup_execs w)

(* ------------------------------------------------------------------ *)
(* Resubmission racing the handoff: the A->B stream breaks after the
   calls left, the whole pipeline is replayed. Receiver dedup and the
   push dedup at C must keep every execution at exactly one. *)

let test_resubmit_exactly_once () =
  let w = make_world () in
  let n = 4 in
  let got = ref [] in
  let addr_a = Net.address w.a_node and addr_b = Net.address w.b_node in
  ignore
    (S.spawn w.sched (fun () ->
         let hB, hC = handles w in
         let sB = R.stream hB in
         SE.set_preserve_on_break sB true;
         S.at w.sched 1.8e-3 (fun () -> Net.partition w.net addr_a addr_b);
         S.at w.sched 30e-3 (fun () -> Net.heal w.net addr_a addr_b);
         let pgs =
           List.init n (fun i ->
               let pf = R.Call.(submit (defer_result (make hB i))) in
               R.Call.(submit (piped hC (R.pipe pf))))
         in
         R.flush hC;
         (* a probe into the outage so the sender notices the break *)
         S.sleep w.sched 4e-3;
         let probe = R.Call.(submit (make hB 9999)) in
         R.flush hB;
         while SE.broken sB = None do
           S.sleep w.sched 1e-3
         done;
         while S.now w.sched < 32e-3 do
           S.sleep w.sched 1e-3
         done;
         ignore (SE.restart_resubmit sB : int);
         got := List.map P.claim pgs;
         ignore (P.claim probe : _ P.outcome)));
  run_ok w.sched;
  check Alcotest.int "all consumer calls completed" n (List.length !got);
  List.iteri
    (fun i o ->
      check Alcotest.bool (Printf.sprintf "call %d normal" i) true (o = P.Normal blob_len))
    !got;
  check Alcotest.int "exactly-once at both servers" 0 (dup_execs w);
  check Alcotest.bool "replayed pushes joined the dedup store" true
    (peek w.sched "handoff_dedup_joins" >= 1);
  check Alcotest.int "no fallback" 0 (peek w.sched "handoff_fallbacks")

(* ------------------------------------------------------------------ *)
(* Epoch mismatch: B's hub is on a different handoff epoch than the
   annotation says. B refuses the notice; A silently falls back to
   proxying the outcome itself. Same answer, one counter each. *)

let test_epoch_refusal_falls_back () =
  let w = make_world () in
  CH.set_handoff_epoch w.b_hub 99;
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let hB, hC = handles w in
         let pf = R.Call.(submit (defer_result (make hB 6))) in
         let pg = R.Call.(submit (piped hC (R.pipe pf))) in
         R.flush hC;
         got := Some (P.claim pg)));
  run_ok w.sched;
  check Alcotest.bool "fallback still answers" true (!got = Some (P.Normal blob_len));
  check Alcotest.int "receiver refused" 1 (peek w.sched "handoff_refusals");
  check Alcotest.int "sender fell back" 1 (peek w.sched "handoff_fallbacks");
  (* the one push comes from A relaying the redeemed outcome, not B *)
  check Alcotest.int "outcome pushed by the sender" 1 (peek w.sched "handoff_forwards");
  check Alcotest.int "exactly-once" 0 (dup_execs w)

(* ------------------------------------------------------------------ *)
(* A peer can put anything on a handoff channel. A push that does not
   parse is dropped and counted; the channel stays up and the valid
   push behind it is still recorded in the node's registry. *)

let pushed_42 w =
  Pipeline.Registry.find (CH.outcomes w.c_hub) ~stream:"s" ~call:7
  = Some (Cstream.Wire.W_normal (Xdr.Int 42))

let test_malformed_push_counted () =
  let w = make_world () in
  let ov = Cstream.Wire.outcome_value (Cstream.Wire.W_normal (Xdr.Int 42)) in
  let o = CH.connect w.a_hub ~dst:(Net.address w.c_node) ~label:"~handoff" ~meta:"" chan_cfg in
  List.iter
    (fun item -> ignore (CH.send o item : (unit, string) result))
    [ Xdr.Str "not a push"; Cstream.Wire.handoff_push_item ~stream:"s" ~call:7 ov ];
  CH.flush_out o;
  run_ok w.sched;
  check Alcotest.int "malformed push counted" 1 (peek w.sched "handoff_malformed_pushes");
  check Alcotest.bool "valid push recorded" true (pushed_42 w);
  check Alcotest.bool "push channel still up" true (CH.out_broken o = None)

(* A push shaped like a record but missing a field, or with a field of
   the wrong type, is refused and counted the same way. *)
let test_misshapen_record_push_counted () =
  let w = make_world () in
  let ov = Cstream.Wire.outcome_value (Cstream.Wire.W_normal (Xdr.Int 42)) in
  let o = CH.connect w.a_hub ~dst:(Net.address w.c_node) ~label:"~handoff" ~meta:"" chan_cfg in
  List.iter
    (fun item -> ignore (CH.send o item : (unit, string) result))
    [
      Xdr.Record [ ("s", Xdr.Str "s"); ("c", Xdr.Int 7) ];
      Xdr.Record [ ("s", Xdr.Str "s"); ("c", Xdr.Str "7"); ("v", ov) ];
      Cstream.Wire.handoff_push_item ~stream:"s" ~call:7 ov;
    ];
  CH.flush_out o;
  run_ok w.sched;
  check Alcotest.int "both misshapen pushes counted" 2 (peek w.sched "handoff_malformed_pushes");
  check Alcotest.bool "valid push recorded" true (pushed_42 w)

(* ------------------------------------------------------------------ *)
(* Handoff annotations and pushes are peer input. An annotated call
   parks on the node's registry until the push lands; a parked call
   that dies with its connection releases its waiter slots, and pushes
   — asked for or not — are recorded only within the registry's cap,
   ahead of nothing a local caller has not acked. *)

let ghost_ref i =
  let stream = Printf.sprintf "n9/main/ghost.%d" i in
  ( { Xdr.ps_stream = stream; ps_call = 0; ps_field = None },
    { Cstream.Wire.ho_owner = 9; ho_stream = stream; ho_call = 0; ho_epoch = 0 } )

let server_outcomes (p : Workloads.Fixtures.pair) = CH.outcomes (G.hub p.server)

(* Push the outcome [Int 7] for each (stream, call) key to the server
   from the client, as an owner would, and run the world. *)
let push_keys (p : Workloads.Fixtures.pair) keys =
  let ov = Cstream.Wire.outcome_value (Cstream.Wire.W_normal (Xdr.Int 7)) in
  let o =
    CH.connect p.client_hub ~dst:(Net.address p.server_node) ~label:"~handoff" ~meta:"" chan_cfg
  in
  List.iter
    (fun (stream, call) ->
      ignore (CH.send o (Cstream.Wire.handoff_push_item ~stream ~call ov) : (unit, string) result))
    keys;
  CH.flush_out o;
  run_ok p.sched

(* Push an outcome for ghosts [first .. first + n - 1] to the server;
   returns how many outcomes the server's registry gained. *)
let push_ghosts ?(first = 1) (p : Workloads.Fixtures.pair) n =
  let reg = server_outcomes p in
  let before = Pipeline.Registry.known reg in
  push_keys p
    (List.init n (fun i ->
         let r, _ = ghost_ref (first + i) in
         (r.Xdr.ps_stream, 0)));
  Pipeline.Registry.known reg - before

let test_restarts_cancel_ghost_waiters ?group_config () =
  let p = Workloads.Fixtures.make_pair ?group_config () in
  let reg = server_outcomes p in
  let n = 20 in
  let ag = Core.Agent.create p.client_hub ~name:"ghosts" () in
  let se = Core.Agent.stream_to ag ~dst:(Net.address p.server_node) ~gid:"main" in
  ignore
    (S.spawn p.sched (fun () ->
         for i = 1 to n do
           let r, ho = ghost_ref i in
           ignore
             (SE.call ~handoff:[ ho ] se ~port:"work" ~kind:Cstream.Wire.Call ~args:(Xdr.Pref r)
                ~on_reply:ignore
               : (int * int, string) result);
           SE.flush se;
           S.sleep p.sched 0.05;
           SE.restart se
         done)
      : S.fiber);
  run_ok p.sched;
  check Alcotest.int "every ghost parked" n (peek p.sched "parked_calls");
  check Alcotest.int "every parked ghost cancelled with its connection" 0
    (Pipeline.Registry.waiting reg);
  check Alcotest.int "late pushes are recorded" n (push_ghosts p n)

let test_unparked_annotation_parks_nothing () =
  let p = Workloads.Fixtures.make_pair () in
  let reg = server_outcomes p in
  let ag = Core.Agent.create p.client_hub ~name:"ghosts" () in
  let se = Core.Agent.stream_to ag ~dst:(Net.address p.server_node) ~gid:"main" in
  let got = ref None in
  ignore
    (S.spawn p.sched (fun () ->
         (* The call's own reference names a later call on its own
            stream, so it fails at once and never parks; its annotation
            names a ghost. *)
         let own = { Xdr.ps_stream = SE.stable_id se; ps_call = 1000; ps_field = None } in
         let _, ho = ghost_ref 1 in
         ignore
           (SE.call ~handoff:[ ho ] se ~port:"work" ~kind:Cstream.Wire.Call ~args:(Xdr.Pref own)
              ~on_reply:(fun o -> got := Some o)
             : (int * int, string) result);
         SE.flush se)
      : S.fiber);
  run_ok p.sched;
  (match !got with
  | Some (Cstream.Wire.W_failure _) -> ()
  | _ -> Alcotest.fail "the self-reference should fail the call");
  check Alcotest.int "nothing parked" 0 (Pipeline.Registry.waiting reg);
  check Alcotest.int "a late push is recorded" 1 (push_ghosts p 1)

(* A flood of pushes nobody asked for cannot evict an outcome a local
   caller has not acked: pushes are marked spare as they land, so they
   are evicted before any unmarked outcome. Each evicted push leaves an
   eviction mark for its stream; distinct-stream floods must not grow
   that table without bound either. *)
let test_push_flood_spares_local_outcome () =
  let p = Workloads.Fixtures.make_pair () in
  let reg = server_outcomes p in
  let local = Cstream.Wire.W_normal (Xdr.Int 1) in
  Pipeline.Registry.record reg ~stream:"local" ~call:0 local;
  ignore (push_ghosts p 1100 : int);
  check Alcotest.bool "un-acked local outcome kept" true
    (Pipeline.Registry.find reg ~stream:"local" ~call:0 = Some local);
  check Alcotest.bool "registry within its cap" true (Pipeline.Registry.known reg <= 1024);
  ignore (push_ghosts ~first:1101 p 4000 : int);
  check Alcotest.bool "un-acked local outcome kept after 5100 pushes" true
    (Pipeline.Registry.find reg ~stream:"local" ~call:0 = Some local);
  check Alcotest.bool
    (Printf.sprintf "eviction marks bounded (%d)" (Pipeline.Registry.marks reg))
    true
    (Pipeline.Registry.marks reg <= 2 * 1024)

(* A push naming a stream sent to the receiving node itself is forged:
   only that node's own groups produce those outcomes. It is dropped
   and counted, and the real call's outcome is the one recorded. *)
let test_push_for_local_stream_refused () =
  let p = Workloads.Fixtures.make_pair () in
  let reg = server_outcomes p in
  let h = Workloads.Fixtures.work_handle p ~agent:"victim" () in
  let stream = SE.stable_id (R.stream h) in
  push_keys p [ (stream, 0) ];
  check Alcotest.int "forged push counted" 1 (peek p.sched "handoff_malformed_pushes");
  check Alcotest.bool "forged push not recorded" true
    (Pipeline.Registry.find reg ~stream ~call:0 = None);
  let got = ref None in
  ignore (S.spawn p.sched (fun () -> got := Some (P.claim (R.stream_call h 5))) : S.fiber);
  run_ok p.sched;
  check Alcotest.bool "real call ran" true (!got = Some (P.Normal 5));
  check Alcotest.bool "real outcome recorded" true
    (Pipeline.Registry.find reg ~stream ~call:0 = Some (Cstream.Wire.W_normal (Xdr.Int 5)))

(* A push that lands before its annotated call must still be there when
   the call arrives, even if more than a registry's worth of local
   calls completes and is acked in between: acked local outcomes are
   evicted before pushes. *)
let test_push_outlives_acked_local_traffic () =
  let p = Workloads.Fixtures.make_pair () in
  check Alcotest.int "push recorded" 1 (push_ghosts p 1);
  let h = Workloads.Fixtures.work_handle p ~agent:"load" () in
  let ag = Core.Agent.create p.client_hub ~name:"ghosts" () in
  let se = Core.Agent.stream_to ag ~dst:(Net.address p.server_node) ~gid:"main" in
  let got = ref None in
  ignore
    (S.spawn p.sched (fun () ->
         let ps = List.init 1100 (fun i -> R.stream_call h i) in
         R.flush h;
         List.iter (fun p -> ignore (P.claim p : _ P.outcome)) ps;
         (* let the acks of the last replies land *)
         S.sleep p.sched 0.1;
         let r, ho = ghost_ref 1 in
         ignore
           (SE.call ~handoff:[ ho ] se ~port:"work" ~kind:Cstream.Wire.Call ~args:(Xdr.Pref r)
              ~on_reply:(fun o -> got := Some o)
             : (int * int, string) result);
         SE.flush se)
      : S.fiber);
  run_ok p.sched;
  (match !got with
  | Some (Cstream.Wire.W_normal (Xdr.Int 7)) -> ()
  | Some (Cstream.Wire.W_failure reason) -> Alcotest.failf "annotated call failed: %s" reason
  | _ -> Alcotest.fail "annotated call did not resolve from the push");
  check Alcotest.bool "registry within its cap" true
    (Pipeline.Registry.known (server_outcomes p) <= 1024)

(* ------------------------------------------------------------------ *)
(* E19 invariants: the acceptance numbers behind the experiment table.
   Handoff must beat proxying on bytes and on completion time (one full
   hop per delegation at 1 ms wire latency), with clean exactly-once
   accounting in the forced-break leg. TCP rows self-skip in a
   socket-less sandbox. *)

let test_e19_invariants () =
  let rows = Workloads.Exp_handoff.e19_rows ~n:4 ~n_break:4 () in
  let find mode backend =
    List.find_opt
      (fun r -> r.Workloads.Exp_handoff.r_mode = mode && r.r_backend = backend)
      rows
  in
  (match (find "proxy" "sim", find "handoff" "sim") with
  | Some proxy, Some handoff ->
      check Alcotest.bool "sim: strictly fewer bytes" true (handoff.r_bytes < proxy.r_bytes);
      check Alcotest.bool
        (Printf.sprintf "sim: >=1 hop less per delegation (proxy %.3f ms, handoff %.3f ms)"
           (1e3 *. proxy.r_time) (1e3 *. handoff.r_time))
        true
        (handoff.r_time <= proxy.r_time -. (4.0 *. 1e-3));
      check Alcotest.bool "sim: forwards counted" true (handoff.r_forwards > 0)
  | _ -> Alcotest.fail "sim rows missing");
  (match (find "proxy" "tcp", find "handoff" "tcp") with
  | Some proxy, Some handoff when proxy.Workloads.Exp_handoff.r_ok && handoff.r_ok ->
      check Alcotest.bool "tcp: strictly fewer bytes" true (handoff.r_bytes < proxy.r_bytes)
  | _ -> () (* sandboxed: tcp legs are skip rows *));
  List.iter
    (fun r ->
      if r.Workloads.Exp_handoff.r_ok then (
        check Alcotest.int (r.r_mode ^ "/" ^ r.r_backend ^ ": exactly-once") 0 r.r_dup_execs;
        check Alcotest.int (r.r_mode ^ "/" ^ r.r_backend ^ ": no fallback") 0 r.r_fallbacks))
    rows

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "handoff"
    [
      ( "forward",
        [
          Alcotest.test_case "dependent call handed to the owner" `Quick test_basic_forward;
          Alcotest.test_case "deferred result cannot be claimed" `Quick
            test_deferred_claim_refused;
        ] );
      ( "edges",
        [
          Alcotest.test_case "producer crash propagates, no hang" `Quick
            test_producer_crash_propagates;
          Alcotest.test_case "resubmit across break: exactly-once" `Quick
            test_resubmit_exactly_once;
          Alcotest.test_case "old epoch refused, falls back to proxy" `Quick
            test_epoch_refusal_falls_back;
          Alcotest.test_case "malformed push counted, valid push recorded" `Quick
            test_malformed_push_counted;
          Alcotest.test_case "misshapen record pushes counted" `Quick
            test_misshapen_record_push_counted;
          Alcotest.test_case "restarts cancel ghost waiters" `Quick
            test_restarts_cancel_ghost_waiters;
          Alcotest.test_case "restarts cancel ghost waiters in a dedup group" `Quick
            (test_restarts_cancel_ghost_waiters ~group_config);
          Alcotest.test_case "unparked annotation parks nothing" `Quick
            test_unparked_annotation_parks_nothing;
          Alcotest.test_case "push flood spares un-acked local outcomes" `Quick
            test_push_flood_spares_local_outcome;
          Alcotest.test_case "push for a local stream refused" `Quick
            test_push_for_local_stream_refused;
          Alcotest.test_case "push outlives acked local traffic" `Quick
            test_push_outlives_acked_local_traffic;
        ] );
      ( "experiment",
        [ Alcotest.test_case "E19 acceptance invariants" `Quick test_e19_invariants ] );
    ]

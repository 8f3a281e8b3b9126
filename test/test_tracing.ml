(* Causal tracing (docs/TRACING.md): per-call trace ids allocated at
   issue, span timelines across every lifecycle edge, trace-id
   stability across stream incarnations ([restart_resubmit] replays
   under the original id and the dedup join is recorded) and across a
   parked pipelined call (park + substitute spans). With tracing
   disabled the wire encodings are byte-for-byte the pre-tracing
   format and the span store records nothing. *)

module S = Sched.Scheduler
module P = Core.Promise
module R = Core.Remote
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module W = Cstream.Wire
module GC = Cstream.Group_config
module G = Argus.Guardian
module Span = Sim.Span

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* ------------------------------------------------------------------ *)
(* Fixture: one client node, one server guardian, spans enabled. *)

type world = {
  sched : S.t;
  net : CH.frame Net.t;
  server_node : Net.node;
  client_hub : CH.hub;
  server : G.t;
  spans : Span.t;
}

let make_world ?(seed = 42) ?(trace = true) () =
  let sched = S.create ~seed () in
  let net = Net.create sched Net.default_config in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  let spans = S.spans sched in
  Span.enable spans trace;
  { sched; net; server_node; client_hub; server; spans }

let inc_sig = Core.Sigs.hsig0 "inc" ~arg:Xdr.int ~res:Xdr.int

(* Stream config with fast break detection for the resubmit test. *)
let fast_cfg = { CH.default_config with CH.retransmit_timeout = 5e-3; max_retries = 3 }
let batch_cfg = { CH.default_config with CH.max_batch = 16; flush_interval = 1e-3 }

let handle w ?(config = batch_cfg) ~agent ~gid () =
  let ag = Core.Agent.create w.client_hub ~name:agent ~config () in
  R.bind ag ~dst:(Net.address w.server_node) ~gid inc_sig

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let claim_normal p =
  match P.claim p with
  | P.Normal v -> v
  | P.Signal _ | P.Unavailable _ | P.Failure _ -> Alcotest.fail "call failed"

let trace_of p =
  match P.trace p with
  | Some tid -> tid
  | None -> Alcotest.fail "promise carries no trace id"

(* [kinds] appear in [events], in order (as a subsequence). *)
let check_order what events kinds =
  let rec go evs = function
    | [] -> ()
    | k :: rest -> (
        match List.find_opt (fun e -> e.Span.ev_kind = k) evs with
        | None -> Alcotest.failf "%s: missing %s span" what (Span.kind_label k)
        | Some e ->
            let tail =
              let rec drop = function
                | x :: tl when x != e -> drop tl
                | _ :: tl -> tl
                | [] -> []
              in
              drop evs
            in
            go tail rest)
  in
  go events kinds

(* ------------------------------------------------------------------ *)
(* A plain call's full lifecycle, in causal order, under one trace id. *)

let test_lifecycle_spans () =
  let w = make_world () in
  G.register_group w.server ~group:"g"
    ~config:GC.(default |> with_reply_config batch_cfg)
    ();
  G.register w.server ~group:"g" inc_sig (fun _ n -> Ok (n + 1));
  let tid = ref (-1) in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"g" () in
         let p = R.stream_call h 41 in
         R.flush h;
         check Alcotest.int "result" 42 (claim_normal p);
         tid := trace_of p));
  run_ok w.sched;
  let evs = Span.events_of w.spans ~trace:!tid in
  check_order "lifecycle" evs
    Span.[ Issue; Enqueue; Transmit; Deliver; Dispatch; Exec_begin; Exec_end; Reply; Claim ];
  check Alcotest.bool "reply acked" true (Span.has w.spans ~trace:!tid Span.Ack);
  check Alcotest.bool "no park on a plain call" false (Span.has w.spans ~trace:!tid Span.Park);
  (* The rendered story mentions the trace and the stable stream id. *)
  let story = Span.timeline w.spans ~trace:!tid in
  check Alcotest.bool "timeline names the trace" true
    (contains ~affix:(Printf.sprintf "trace %d" !tid) story)

(* ------------------------------------------------------------------ *)
(* Trace-id stability across [restart_resubmit]: the server crashes
   while the (slow) handler runs; the resubmitted duplicate joins the
   still-running first execution under the original trace id. *)

let test_resubmit_keeps_trace_and_joins () =
  let w = make_world () in
  let executions = ref 0 in
  G.register_group w.server ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_cfg |> with_dedup)
    ();
  G.register w.server ~group:"ctr" inc_sig (fun ctx n ->
      if n = 7 then incr executions;
      S.sleep ctx.G.sched 60e-3;
      Ok (n + 1));
  S.at w.sched 2e-3 (fun () -> Net.crash w.net w.server_node);
  S.at w.sched 40e-3 (fun () -> Net.recover w.net w.server_node);
  let tid = ref (-1) and probe_tid = ref (-1) in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast_cfg ~agent:"c" ~gid:"ctr" () in
         let se = R.stream h in
         SE.set_preserve_on_break se true;
         let p = R.stream_call h 7 in
         R.flush h;
         tid := trace_of p;
         (* A probe into the outage: its unacked data is what converts
            the crash into a detected stream break. *)
         S.sleep w.sched 3e-3;
         let probe = R.stream_call h 100 in
         R.flush h;
         probe_tid := trace_of probe;
         while SE.broken se = None do
           S.sleep w.sched 1e-3
         done;
         while S.now w.sched < 45e-3 do
           S.sleep w.sched 1e-3
         done;
         ignore (SE.restart_resubmit se : int);
         check Alcotest.int "result survives the incarnation" 8 (claim_normal p);
         check Alcotest.int "probe result" 101 (claim_normal probe);
         check Alcotest.(option int) "trace id unchanged across resubmit" (Some !tid)
           (P.trace p)));
  run_ok w.sched;
  check Alcotest.int "handler ran exactly once" 1 !executions;
  check Alcotest.(list int) "resubmission allocated no new trace ids"
    (List.sort compare [ !tid; !probe_tid ])
    (List.sort compare (Span.trace_ids w.spans));
  let evs = Span.events_of w.spans ~trace:!tid in
  check_order "incarnation crossing" evs
    Span.[ Issue; Break; Resubmit; Dedup_join; Reply; Claim ];
  check Alcotest.bool "duplicate did not re-execute" false
    (Span.has w.spans ~trace:!tid Span.Dedup_replay)

(* The cache-replay flavor: the handler is fast, so the first execution
   finishes during the outage and the resubmitted duplicate is answered
   from the dedup cache — still under the original trace id. *)

let test_resubmit_dedup_replay () =
  let w = make_world () in
  let executions = ref 0 in
  G.register_group w.server ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_cfg |> with_dedup)
    ();
  G.register w.server ~group:"ctr" inc_sig (fun ctx n ->
      if n = 7 then incr executions;
      S.sleep ctx.G.sched 5e-3;
      Ok (n + 1));
  S.at w.sched 2e-3 (fun () -> Net.crash w.net w.server_node);
  S.at w.sched 40e-3 (fun () -> Net.recover w.net w.server_node);
  let tid = ref (-1) in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast_cfg ~agent:"c" ~gid:"ctr" () in
         let se = R.stream h in
         SE.set_preserve_on_break se true;
         let p = R.stream_call h 7 in
         R.flush h;
         tid := trace_of p;
         S.sleep w.sched 3e-3;
         let probe = R.stream_call h 100 in
         R.flush h;
         while SE.broken se = None do
           S.sleep w.sched 1e-3
         done;
         while S.now w.sched < 45e-3 do
           S.sleep w.sched 1e-3
         done;
         ignore (SE.restart_resubmit se : int);
         check Alcotest.int "result" 8 (claim_normal p);
         check Alcotest.int "probe result" 101 (claim_normal probe)));
  run_ok w.sched;
  check Alcotest.int "handler ran exactly once" 1 !executions;
  check_order "cache replay" (Span.events_of w.spans ~trace:!tid)
    Span.[ Issue; Exec_end; Break; Resubmit; Dedup_replay; Reply; Claim ]

(* ------------------------------------------------------------------ *)
(* A parked pipelined call keeps one trace id through park and
   substitute: the dependent call dispatches (unordered group) while
   its producer still executes, parks on the missing outcome, then
   substitutes and runs. *)

let test_parked_pipelined_call_spans () =
  let w = make_world () in
  G.register_group w.server ~group:"pipe"
    ~config:GC.(default |> with_reply_config batch_cfg |> with_ordered false)
    ();
  G.register w.server ~group:"pipe" inc_sig (fun ctx n ->
      S.sleep ctx.G.sched 2e-3;
      Ok (n + 1));
  let tid1 = ref (-1) and tid2 = ref (-1) in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"pipe" () in
         let p1 = R.stream_call h 1 in
         let p2 = R.Call.(submit (piped h (R.pipe p1))) in
         R.flush h;
         check Alcotest.int "chained result" 3 (claim_normal p2);
         tid1 := trace_of p1;
         tid2 := trace_of p2));
  run_ok w.sched;
  Alcotest.(check bool) "links have distinct trace ids" true (!tid1 <> !tid2);
  check_order "parked dependent" (Span.events_of w.spans ~trace:!tid2)
    Span.[ Issue; Deliver; Dispatch; Park; Substitute; Exec_begin; Exec_end; Reply; Claim ];
  check Alcotest.bool "producer never parks" false (Span.has w.spans ~trace:!tid1 Span.Park);
  check Alcotest.bool "producer executes" true
    (Span.has w.spans ~trace:!tid1 Span.Exec_begin)

(* The packaged dump asserts the same story end to end (E13 shape) and
   is what `experiments --trace` prints. *)

let test_trace_dump_covers_every_edge () =
  let out = Workloads.Exp_trace.render_pipelined () in
  check Alcotest.bool "dump confirms every pipelined edge" true
    (contains ~affix:"traversed every pipelined edge" out);
  check Alcotest.bool "no missing-edge warning" false
    (contains ~affix:"WARNING" out)

(* ------------------------------------------------------------------ *)
(* Tracing disabled: wire items are byte-for-byte the pinned untraced
   envelopes, and the span store records nothing (ids still advance so
   toggling tracing mid-run keeps them stable). *)

let bin v = Xdr.Bin.to_string v

let view v =
  match Xdr.View.of_string (bin v) with Ok vw -> vw | Error e -> Alcotest.fail e

let parse_reply v =
  Result.bind (W.parse_reply_view (view v)) (fun (seq, body) ->
      Result.map (fun o -> (seq, o)) (W.outcome_of_view body))

let test_wire_identity_when_disabled () =
  check Alcotest.(list string) "untraced envelopes = pinned bytes" []
    (Workloads.Exp_wire.envelope_mismatches ());
  List.iter
    (fun (label, item, _) ->
      check Alcotest.(option int) (label ^ ": no trace element") None (W.item_trace item);
      check Alcotest.(option int) (label ^ ": no trace element (view)") None
        (W.item_trace_view (view item)))
    Workloads.Exp_wire.envelope_goldens;
  (* Traced forms carry the id, decode identically, and are the only
     forms that grow. *)
  let call trace =
    W.call_item ~seq:5 ~cid:7 ~trace ~port:"work" ~kind:W.Call ~args:(Xdr.Int 42) ()
  in
  let untraced = call None and traced = call (Some 9) in
  check Alcotest.(option int) "traced call carries the id" (Some 9) (W.item_trace traced);
  check Alcotest.bool "trace element costs bytes only when present" true
    (String.length (bin traced) > String.length (bin untraced));
  (match (W.parse_call_view (view untraced), W.parse_call_view (view traced)) with
  | Ok a, Ok b ->
      check Alcotest.bool "both call forms parse alike" true
        ((a.W.cv_seq, a.W.cv_cid, a.W.cv_port, a.W.cv_kind)
        = (b.W.cv_seq, b.W.cv_cid, b.W.cv_port, b.W.cv_kind));
      check Alcotest.(pair (option int) (option int)) "only the traced form has an id"
        (None, Some 9) (a.W.cv_trace, b.W.cv_trace)
  | _ -> Alcotest.fail "call items failed to parse");
  let reply trace = W.reply_item ~seq:5 ~trace (W.W_normal (Xdr.Int 43)) in
  let traced_reply = reply (Some 9) in
  check Alcotest.(option int) "traced reply carries the id" (Some 9)
    (W.item_trace traced_reply);
  check Alcotest.bool "traced reply grows" true
    (String.length (bin traced_reply) > String.length (bin (reply None)));
  match (parse_reply (reply None), parse_reply traced_reply) with
  | Ok (sa, W.W_normal (Xdr.Int va)), Ok (sb, W.W_normal (Xdr.Int vb)) ->
      check Alcotest.(pair int int) "both reply forms parse alike" (sa, va) (sb, vb)
  | _ -> Alcotest.fail "reply items failed to parse"

let test_disabled_store_records_nothing () =
  let w = make_world ~trace:false () in
  G.register_group w.server ~group:"g"
    ~config:GC.(default |> with_reply_config batch_cfg)
    ();
  G.register w.server ~group:"g" inc_sig (fun _ n -> Ok (n + 1));
  let tid = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"g" () in
         let p = R.stream_call h 1 in
         R.flush h;
         check Alcotest.int "result" 2 (claim_normal p);
         tid := P.trace p));
  run_ok w.sched;
  check Alcotest.(list int) "no events recorded" [] (List.map (fun _ -> 0) (Span.events w.spans));
  check Alcotest.bool "trace ids still allocated while disabled" true (!tid <> None)

let () =
  Alcotest.run "tracing"
    [
      ( "spans",
        [
          Alcotest.test_case "plain call lifecycle" `Quick test_lifecycle_spans;
          Alcotest.test_case "resubmit keeps trace id (dedup join)" `Quick
            test_resubmit_keeps_trace_and_joins;
          Alcotest.test_case "resubmit keeps trace id (dedup replay)" `Quick
            test_resubmit_dedup_replay;
          Alcotest.test_case "parked pipelined call parks + substitutes" `Quick
            test_parked_pipelined_call_spans;
          Alcotest.test_case "trace dump covers every pipelined edge" `Quick
            test_trace_dump_covers_every_edge;
        ] );
      ( "wire compatibility",
        [
          Alcotest.test_case "byte identity with tracing off" `Quick
            test_wire_identity_when_disabled;
          Alcotest.test_case "disabled store records nothing" `Quick
            test_disabled_store_records_nothing;
        ] );
    ]

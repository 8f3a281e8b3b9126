(* Overload survival (docs/OVERLOAD.md): the AIMD sender window grows
   on a clean link and cuts under injected loss and delay; a receiver
   with a shed mark rejects excess calls with [unavailable] and the
   shed -> retry -> success path stays exactly-once under dedup;
   retransmits racing a shed never double-charge the window; span
   sampling records 1-in-N traces and keeps sampled-out calls byte-
   identical to untraced ones; the pipelining registry prefers acked
   eviction victims; and a trimmed E15 run passes the CI smoke gate. *)

module S = Sched.Scheduler
module P = Core.Promise
module R = Core.Remote
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module W = Cstream.Wire
module GC = Cstream.Group_config
module G = Argus.Guardian
module Span = Sim.Span
module Registry = Pipeline.Registry

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

let peek sched name = Sim.Stats.peek (S.stats sched) name

(* ------------------------------------------------------------------ *)
(* Fixture: one client node, one server guardian; the fault injector
   drives the shared network (docs/FAULTS.md). *)

type world = {
  sched : S.t;
  client_node : Net.node;
  server_node : Net.node;
  client_hub : CH.hub;
  server : G.t;
  fault : Fault.t;
}

let make_world ?(seed = 42) ?(cfg = Net.default_config) () =
  let sched = S.create ~seed () in
  let net = Net.create sched cfg in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  let fault = Fault.create net ~nodes:[ client_node; server_node ] in
  { sched; client_node; server_node; client_hub; server; fault }

let inc_sig = Core.Sigs.hsig0 "inc" ~arg:Xdr.int ~res:Xdr.int

let handle w ~config ~agent ~gid () =
  let ag = Core.Agent.create w.client_hub ~name:agent ~config () in
  R.bind ag ~dst:(Net.address w.server_node) ~gid inc_sig

let claim_normal p =
  match P.claim p with
  | P.Normal v -> v
  | P.Signal _ | P.Unavailable _ | P.Failure _ -> Alcotest.fail "call failed"

(* Issue [n] calls in paced batches of [batch], flushing each batch and
   sleeping [pace] between them, so acks come back between batches and
   the AIMD controller sees several clean (or dirty) rounds. *)
let paced_calls w h ~n ~batch ~pace =
  let promises = ref [] in
  let sent = ref 0 in
  while !sent < n do
    let k = min batch (n - !sent) in
    for i = 0 to k - 1 do
      promises := R.stream_call h (!sent + i) :: !promises
    done;
    sent := !sent + k;
    R.flush h;
    S.sleep w.sched pace
  done;
  List.rev !promises

(* ------------------------------------------------------------------ *)
(* AIMD: additive growth on a clean link. *)

let test_window_grows_on_clean_link () =
  let w = make_world () in
  G.register_group w.server ~group:"g" ~config:GC.default ();
  G.register w.server ~group:"g" inc_sig (fun _ n -> Ok (n + 1));
  let grown = ref 0 and ewma = ref 0.0 and leftover = ref (-1) in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:CH.aimd_config ~agent:"c" ~gid:"g" () in
         check Alcotest.int "window starts at the floor"
           CH.aimd_config.CH.window_min_bytes
           (SE.window_bytes (R.stream h));
         let ps = paced_calls w h ~n:40 ~batch:4 ~pace:3e-3 in
         List.iteri (fun i p -> check Alcotest.int "result" (i + 1) (claim_normal p)) ps;
         grown := SE.window_bytes (R.stream h);
         ewma := SE.rtt_ewma (R.stream h);
         leftover := SE.inflight_bytes (R.stream h)));
  run_ok w.sched;
  check Alcotest.bool "window grew above the floor" true
    (!grown > CH.aimd_config.CH.window_min_bytes);
  check Alcotest.int "no cuts on a clean link" 0 (peek w.sched "chan_window_cuts");
  check Alcotest.bool "rtt ewma converged to a positive value" true (!ewma > 0.0);
  check Alcotest.int "no inflight bytes at quiescence" 0 !leftover

(* AIMD: a window at its floor flies exactly one item, whatever the
   item's encoded size, so a smaller encoding cannot loosen a fully cut
   window. The receiver reports pressure 1 ("hold growth") on every ack,
   pinning the window at the floor for the whole run. *)
let test_floor_flies_one_item () =
  List.iter
    (fun payload ->
      let sched = S.create ~seed:42 () in
      let net = Net.create sched Net.default_config in
      let a = Net.add_node net ~name:"a" and b = Net.add_node net ~name:"b" in
      let hub_a = CH.create_hub ~net:(net, a) () and hub_b = CH.create_hub ~net:(net, b) () in
      let delivered = ref 0 in
      CH.on_connect hub_b ~label:"sink" (fun ic ->
          CH.set_pressure ic (fun () -> 1);
          CH.set_deliver ic (fun _ items -> delivered := !delivered + List.length items));
      let cfg = { CH.aimd_config with CH.window_min_bytes = 64 } in
      let o = CH.connect hub_a ~dst:(Net.address b) ~label:"sink" ~meta:"" cfg in
      let item = Xdr.Str (String.make payload 'x') in
      let size = Xdr.Bin.size item in
      let most = ref 0 in
      ignore
        (S.spawn sched (fun () ->
             for _ = 1 to 10 do
               (match CH.await_window o ~bytes:size with
               | Ok () -> ()
               | Error e -> Alcotest.fail e);
               ignore (CH.send ~size o item : (unit, string) result);
               most := max !most (CH.unacked_count o)
             done));
      run_ok sched;
      let what = Printf.sprintf "%d-byte items" size in
      check Alcotest.int (what ^ ": window stayed at the floor") 64 (CH.window_bytes o);
      check Alcotest.int (what ^ ": one item in flight at a time") 1 !most;
      check Alcotest.int (what ^ ": all delivered") 10 !delivered)
    [ 8; 58 ]

(* ------------------------------------------------------------------ *)
(* AIMD: multiplicative decrease under injected loss (retransmits) and
   under injected delay (RTT inflation), both seed-deterministic. *)

let test_window_cuts_under_loss () =
  let w = make_world () in
  G.register_group w.server ~group:"g" ~config:GC.default ();
  G.register w.server ~group:"g" inc_sig (fun _ n -> Ok (n + 1));
  (* Total loss for 40 ms in the middle of the run: the go-back-n timer
     must fire, and every retransmit round is a window cut. *)
  Fault.schedule w.fault
    [ { Fault.at = 20e-3; action = Fault.Loss_burst { rate = 1.0; duration = 40e-3 } } ];
  let fast = { CH.aimd_config with CH.retransmit_timeout = 10e-3; max_retries = 50 } in
  let narrowed = ref 0 and leftover = ref (-1) in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast ~agent:"c" ~gid:"g" () in
         let ps = paced_calls w h ~n:60 ~batch:4 ~pace:3e-3 in
         List.iteri (fun i p -> check Alcotest.int "result" (i + 1) (claim_normal p)) ps;
         narrowed := SE.window_bytes (R.stream h);
         leftover := SE.inflight_bytes (R.stream h)));
  run_ok w.sched;
  check Alcotest.bool "retransmissions happened" true (peek w.sched "chan_retransmits" > 0);
  check Alcotest.bool "window cut under loss" true (peek w.sched "chan_window_cuts" > 0);
  (* The regression half (satellite fix): a retransmit re-sends items
     already charged to the window, so after everything is acked the
     inflight accounting returns to exactly zero. A double-charge
     would leave it positive (and eventually jam [await_window]). *)
  check Alcotest.int "inflight accounting returns to zero" 0 !leftover

let test_window_cuts_under_delay () =
  let w = make_world () in
  G.register_group w.server ~group:"g" ~config:GC.default ();
  G.register w.server ~group:"g" inc_sig (fun _ n -> Ok (n + 1));
  (* A 20 ms jitter burst on a ~2 ms RTT link: ack RTT samples inflate
     far past [rtt_congestion_ratio] x ewma and the controller must cut even
     though nothing was lost or retransmitted. *)
  Fault.schedule w.fault
    [ { Fault.at = 30e-3; action = Fault.Jitter_burst { jitter = 20e-3; duration = 60e-3 } } ];
  let patient = { CH.aimd_config with CH.retransmit_timeout = 0.5 } in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:patient ~agent:"c" ~gid:"g" () in
         let ps = paced_calls w h ~n:60 ~batch:4 ~pace:3e-3 in
         List.iteri (fun i p -> check Alcotest.int "result" (i + 1) (claim_normal p)) ps));
  run_ok w.sched;
  check Alcotest.int "no retransmissions" 0 (peek w.sched "chan_retransmits");
  check Alcotest.bool "window cut on rtt inflation alone" true
    (peek w.sched "chan_window_cuts" > 0)

(* ------------------------------------------------------------------ *)
(* Shed -> retry -> success, exactly-once with dedup on. *)

let test_shed_retry_success_exactly_once () =
  let w = make_world () in
  (* A tiny shed mark and a slow handler: the first burst overflows the
     single lane and later arrivals are shed at delivery. Dedup is on,
     so any accidental re-execution would be visible twice over. *)
  G.register_group w.server ~group:"g"
    ~config:GC.(default |> with_dedup ~cache:256 |> with_shed 3)
    ();
  let runs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  G.register w.server ~group:"g" inc_sig (fun _ n ->
      Hashtbl.replace runs n (1 + Option.value ~default:0 (Hashtbl.find_opt runs n));
      S.sleep w.sched 2e-3;
      Ok (n + 1));
  let total = 24 in
  let normals = ref 0 and unavails = ref 0 in
  let policy =
    { R.default_retry_policy with R.retry_attempts = 8; retry_base = 8e-3 }
  in
  let burst_cfg = { CH.default_config with CH.max_batch = 32; flush_interval = 1e-3 } in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:burst_cfg ~agent:"c" ~gid:"g" () in
         let ps = List.init total (fun i -> R.Call.(submit (with_retry ~policy (make h i)))) in
         R.flush h;
         List.iter
           (fun p ->
             match P.claim p with
             | P.Normal _ -> incr normals
             | P.Unavailable _ -> incr unavails
             | P.Signal _ | P.Failure _ -> Alcotest.fail "unexpected outcome")
           ps));
  run_ok w.sched;
  check Alcotest.bool "sheds happened" true (peek w.sched "target_sheds" > 0);
  check Alcotest.bool "retries recovered shed calls" true
    (peek w.sched "remote_retry_successes" > 0);
  check Alcotest.int "every claim accounted for" total (!normals + !unavails);
  Hashtbl.iter
    (fun n c -> if c <> 1 then Alcotest.failf "call %d executed %d times" n c)
    runs;
  check Alcotest.int "executions = normal claims" !normals (Hashtbl.length runs)

(* Sheds and loss together: a retransmitted burst races the receiver's
   shed decision; whatever mix of shed/executed outcomes results, the
   sender's window accounting must return to zero (the regression the
   satellite fix targets) and nothing may be lost or run twice. *)
let test_retransmit_racing_shed_accounting () =
  let w = make_world ~seed:7 () in
  G.register_group w.server ~group:"g"
    ~config:GC.(default |> with_dedup ~cache:256 |> with_shed 3)
    ();
  let runs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  G.register w.server ~group:"g" inc_sig (fun _ n ->
      Hashtbl.replace runs n (1 + Option.value ~default:0 (Hashtbl.find_opt runs n));
      S.sleep w.sched 2e-3;
      Ok (n + 1));
  Fault.schedule w.fault
    [ { Fault.at = 10e-3; action = Fault.Loss_burst { rate = 0.5; duration = 50e-3 } } ];
  let cfg =
    { CH.aimd_config with CH.retransmit_timeout = 8e-3; max_retries = 50; max_batch = 32 }
  in
  let policy = { R.default_retry_policy with R.retry_attempts = 10; retry_base = 10e-3 } in
  let total = 24 in
  let normals = ref 0 and unavails = ref 0 and leftover = ref (-1) in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:cfg ~agent:"c" ~gid:"g" () in
         let ps = List.init total (fun i -> R.Call.(submit (with_retry ~policy (make h i)))) in
         R.flush h;
         List.iter
           (fun p ->
             match P.claim p with
             | P.Normal _ -> incr normals
             | P.Unavailable _ -> incr unavails
             | P.Signal _ | P.Failure _ -> Alcotest.fail "unexpected outcome")
           ps;
         leftover := SE.inflight_bytes (R.stream h)));
  run_ok w.sched;
  check Alcotest.int "every claim accounted for" total (!normals + !unavails);
  check Alcotest.int "inflight accounting returns to zero" 0 !leftover;
  Hashtbl.iter
    (fun n c -> if c <> 1 then Alcotest.failf "call %d executed %d times" n c)
    runs;
  check Alcotest.int "executions = normal claims" !normals (Hashtbl.length runs)

(* ------------------------------------------------------------------ *)
(* Span sampling (docs/TRACING.md): 1-in-N records only matching trace
   ids; sampled-out calls record nothing anywhere and their wire items
   are byte-identical to untraced ones. *)

let test_sampling_records_one_in_n () =
  let w = make_world () in
  let spans = S.spans w.sched in
  Span.enable spans true;
  Span.set_sampling spans 4;
  check Alcotest.int "sampling divisor readable" 4 (Span.sampling spans);
  G.register_group w.server ~group:"g" ~config:GC.default ();
  G.register w.server ~group:"g" inc_sig (fun _ n -> Ok (n + 1));
  let tids = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:CH.default_config ~agent:"c" ~gid:"g" () in
         let ps = List.init 12 (fun i -> R.stream_call h i) in
         R.flush h;
         List.iter (fun p -> ignore (claim_normal p : int)) ps;
         tids := List.filter_map P.trace ps));
  run_ok w.sched;
  check Alcotest.int "every call has a trace id" 12 (List.length !tids);
  List.iter
    (fun tid ->
      let evs = Span.events_of spans ~trace:tid in
      if tid mod 4 = 0 then
        check Alcotest.bool
          (Printf.sprintf "trace %d sampled in: full lifecycle" tid)
          true
          (List.length evs > 3)
      else
        check Alcotest.int (Printf.sprintf "trace %d sampled out: no events" tid) 0
          (List.length evs))
    !tids

let test_sampled_out_wire_identity () =
  (* The stream layer omits the wire trace field for sampled-out calls,
     so their encodings equal the untraced (tracing-off) form. *)
  let sp = Span.create () in
  Span.enable sp true;
  Span.set_sampling sp 3;
  check Alcotest.bool "trace 0 sampled" true (Span.sampled sp 0);
  check Alcotest.bool "trace 1 not sampled" false (Span.sampled sp 1);
  check Alcotest.bool "untraced events pass the filter" true (Span.sampled sp (-1));
  Span.record sp ~time:0.0 ~kind:Span.Issue ~trace:1 ();
  check Alcotest.int "sampled-out record is a no-op" 0 (List.length (Span.events sp));
  let item trace =
    W.call_item ~cid:7 ~trace ~port:"inc" ~kind:W.Call ~args:(Xdr.Int 1) ()
  in
  let wire t = Xdr.Bin.to_string (item t) in
  check Alcotest.string "sampled-out call = untraced bytes" (wire None)
    (wire (if Span.sampled sp 1 then Some 1 else None));
  check Alcotest.bool "sampled-in call carries the id" true
    (String.length (wire (Some 0)) > String.length (wire None))

(* ------------------------------------------------------------------ *)
(* Pipelining registry: ack-tied eviction prefers outcomes no live
   stream can still reference (docs/PIPELINE.md). *)

let test_registry_prefers_acked_victims () =
  let r : int Registry.t = Registry.create ~cap:4 () in
  List.iter (fun c -> Registry.record r ~stream:"s" ~call:c c) [ 0; 1; 2; 3 ];
  (* Call 2's reply was covered by a cumulative ack: no live stream can
     reference it any more. *)
  Registry.mark_releasable r ~stream:"s" ~call:2;
  check Alcotest.int "nothing evicted below the cap" 4 (Registry.known r);
  Registry.record r ~stream:"s" ~call:4 4;
  check Alcotest.bool "acked victim evicted first" true
    (Registry.find r ~stream:"s" ~call:2 = None);
  check Alcotest.bool "older un-acked outcome survives" true
    (Registry.find r ~stream:"s" ~call:0 <> None);
  check Alcotest.int "eviction recorded as acked" 1 (Registry.acked_evictions r);
  (* No marked victims left: the next eviction falls back to FIFO age. *)
  Registry.record r ~stream:"s" ~call:5 5;
  check Alcotest.bool "fifo fallback evicts the oldest" true
    (Registry.find r ~stream:"s" ~call:0 = None);
  check Alcotest.int "fallback not counted as acked" 1 (Registry.acked_evictions r);
  (* Marking an unknown or already-evicted key is a harmless no-op. *)
  Registry.mark_releasable r ~stream:"s" ~call:99;
  Registry.mark_releasable r ~stream:"s" ~call:2;
  Registry.record r ~stream:"s" ~call:6 6;
  check Alcotest.bool "stale marks skipped" true
    (Registry.find r ~stream:"s" ~call:1 = None)

(* ------------------------------------------------------------------ *)
(* E15 smoke gate (CI): a trimmed adaptive run keeps the exactly-once
   ledger balanced, loses nothing, and holds p99 under a generous
   bound. *)

let test_e15_smoke_gate () =
  let p99, lost, dups, sheds = Workloads.Exp_overload.smoke_gate () in
  check Alcotest.int "no lost calls" 0 lost;
  check Alcotest.int "no duplicated calls" 0 dups;
  check Alcotest.bool "overload actually exercised (sheds or clean survival)" true (sheds >= 0);
  if Float.is_nan p99 then Alcotest.fail "no latency samples";
  if p99 > 0.6 then Alcotest.failf "p99 %.3f s above the 0.6 s gate" p99

let () =
  Alcotest.run "overload"
    [
      ( "aimd window",
        [
          Alcotest.test_case "grows on a clean link" `Quick test_window_grows_on_clean_link;
          Alcotest.test_case "cuts under injected loss" `Quick test_window_cuts_under_loss;
          Alcotest.test_case "cuts under injected delay" `Quick test_window_cuts_under_delay;
          Alcotest.test_case "floor flies one item of any size" `Quick test_floor_flies_one_item;
        ] );
      ( "load shedding",
        [
          Alcotest.test_case "shed -> retry -> success exactly-once" `Quick
            test_shed_retry_success_exactly_once;
          Alcotest.test_case "retransmit racing a shed keeps accounting" `Quick
            test_retransmit_racing_shed_accounting;
        ] );
      ( "span sampling",
        [
          Alcotest.test_case "records 1-in-N traces" `Quick test_sampling_records_one_in_n;
          Alcotest.test_case "sampled-out calls are byte-identical" `Quick
            test_sampled_out_wire_identity;
        ] );
      ( "registry eviction",
        [
          Alcotest.test_case "prefers acked victims" `Quick test_registry_prefers_acked_victims;
        ] );
      ("e15 gate", [ Alcotest.test_case "smoke" `Quick test_e15_smoke_gate ]);
    ]

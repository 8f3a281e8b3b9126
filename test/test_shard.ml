(* Sharded port groups (docs/SHARDING.md): a group's calls partitioned
   across N worker lanes by a key of the arguments. Independent keys
   execute concurrently; calls on the same key keep call order; replies
   leave in per-stream call order no matter how lane completion is
   scrambled; the dedup cache stays exactly-once across a crash and
   [restart_resubmit]; conflicting group re-registration fails loudly;
   and the pipelining registry's byte budget evicts by encoded size. *)

module S = Sched.Scheduler
module P = Core.Promise
module R = Core.Remote
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module T = Cstream.Target
module W = Cstream.Wire
module GC = Cstream.Group_config
module G = Argus.Guardian

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

let peek sched name = Sim.Stats.peek (S.stats sched) name

(* ------------------------------------------------------------------ *)
(* Guardian fixture (as in test_pipeline): one client node, one server
   guardian; groups and handlers are registered per test. *)

type world = {
  sched : S.t;
  net : CH.frame Net.t;
  client_node : Net.node;
  server_node : Net.node;
  client_hub : CH.hub;
  server : G.t;
}

let make_world ?(seed = 42) () =
  let sched = S.create ~seed () in
  let net = Net.create sched Net.default_config in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  { sched; net; client_node; server_node; client_hub; server }

(* Batching stream config so a burst of calls lands in one frame and
   actually feeds several lanes at once. *)
let batch_cfg = { CH.default_config with CH.max_batch = 16; flush_interval = 1e-3 }

let handle w ?(config = batch_cfg) ~agent ~gid hs =
  let ag = Core.Agent.create w.client_hub ~name:agent ~config () in
  R.bind ag ~dst:(Net.address w.server_node) ~gid hs

(* (key, op) -> result; sharded on [key], the first argument. *)
let kv_sig = Core.Sigs.hsig0 "work" ~arg:(Xdr.pair Xdr.int Xdr.int) ~res:Xdr.int

(* The lane of a call whose first argument is [v]: routing always
   hashes the first argument. *)
let lane_of ~shards v = T.default_shard_key v mod shards

(* The first [n] positive int keys whose calls land on [lane], so each
   case knows exactly which lane each of its calls runs on. *)
let keys_on_lane ~shards ~lane n =
  let rec go k acc =
    if List.length acc = n then List.rev acc
    else go (k + 1) (if lane_of ~shards (Xdr.Int k) = lane then k :: acc else acc)
  in
  go 1 []

(* Issue one stream call per argument, in list order. (A list literal
   of [stream_call]s would evaluate right-to-left and scramble the seq
   assignment; [fold_left] sequences the side effects.) *)
let call_each h kvs =
  List.rev (List.fold_left (fun acc kv -> R.stream_call h kv :: acc) [] kvs)

let claim_normal p =
  match P.claim p with
  | P.Normal v -> v
  | P.Signal _ | P.Unavailable _ | P.Failure _ -> Alcotest.fail "call failed"

(* ------------------------------------------------------------------ *)
(* Independent keys overlap: 8 calls of 5 ms across 4 lanes finish in
   about two service times, not eight. *)

let test_independent_keys_overlap () =
  let w = make_world () in
  G.register_group w.server ~group:"hot"
    ~config:GC.(default |> with_reply_config batch_cfg |> with_shards 4)
    ();
  G.register w.server ~group:"hot" kv_sig (fun ctx (_, op) ->
      S.sleep ctx.G.sched 5e-3;
      Ok op);
  let finished = ref nan in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"hot" kv_sig in
         (* Two keys per lane: lanes 0..3, then 0..3 again. *)
         let keys = List.init 4 (fun lane -> keys_on_lane ~shards:4 ~lane 2) in
         let order = List.map List.hd keys @ List.map (fun ks -> List.nth ks 1) keys in
         let ps = call_each h (List.mapi (fun i k -> (k, i)) order) in
         R.flush h;
         List.iteri (fun i p -> check Alcotest.int "result" i (claim_normal p)) ps;
         finished := S.now w.sched));
  run_ok w.sched;
  (* Serial execution would need 8 * 5 ms = 40 ms of service alone; four
     lanes with two calls each need ~10 ms plus one round trip. *)
  check Alcotest.bool
    (Printf.sprintf "lanes overlapped (took %.3f ms)" (1e3 *. !finished))
    true
    (!finished < 20e-3);
  check Alcotest.int "every call dispatched to a lane" 8 (peek w.sched "shard_dispatches");
  check Alcotest.bool "lane queues observed" true (peek w.sched "shard_queue_hwm" >= 1)

(* ------------------------------------------------------------------ *)
(* Same key: all calls collapse onto one lane, execute strictly in call
   order, and take the full serial time. *)

let test_same_key_serialised_in_order () =
  let w = make_world () in
  G.register_group w.server ~group:"hot"
    ~config:GC.(default |> with_reply_config batch_cfg |> with_shards 4)
    ();
  let executed = ref [] in
  G.register w.server ~group:"hot" kv_sig (fun ctx (_, op) ->
      S.sleep ctx.G.sched 2e-3;
      executed := op :: !executed;
      Ok op);
  let finished = ref nan in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"hot" kv_sig in
         let ps = call_each h (List.init 6 (fun op -> (0, op))) in
         R.flush h;
         List.iter (fun p -> ignore (claim_normal p : int)) ps;
         finished := S.now w.sched));
  run_ok w.sched;
  check Alcotest.(list int) "per-key call order kept" [ 0; 1; 2; 3; 4; 5 ]
    (List.rev !executed);
  check Alcotest.bool
    (Printf.sprintf "one lane, serial service (took %.3f ms)" (1e3 *. !finished))
    true
    (!finished >= 12e-3)

(* ------------------------------------------------------------------ *)
(* Reply-order property: whatever scrambles lane completion — per-call
   pseudo-random service times on independent lanes, network jitter and
   loss bursts — the client observes every reply, in call order. The
   client fires [on_reply] per arriving reply frame without reordering,
   and channels deliver in order, so the observed order IS the order
   the sharded receiver released replies in. *)

let raw_reply_order ~seed ~shards =
  let sched = S.create ~seed () in
  let net = Net.create sched Net.default_config in
  let node_a = Net.add_node net ~name:"a" in
  let node_b = Net.add_node net ~name:"b" in
  let hub_a = CH.create_hub ~net:(net, node_a) () in
  let hub_b = CH.create_hub ~net:(net, node_b) () in
  let n = 20 in
  let dispatch _conn ~seq ~port:_ ~kind:_ ~args ~reply =
    ignore
      (S.spawn sched (fun () ->
           (* 0..6 ms of service, scrambled per call and per seed. *)
           let d = float_of_int (Hashtbl.hash (seed, seq) mod 7) *. 1e-3 in
           if d > 0.0 then S.sleep sched d;
           reply (W.W_normal args)))
  in
  ignore (T.create hub_b ~gid:"svc" ~config:GC.(default |> with_shards shards) dispatch : T.t);
  let inj = Fault.create net ~nodes:[ node_a; node_b ] in
  Fault.schedule inj
    [
      { Fault.at = 0.0; action = Fault.Jitter_burst { jitter = 2e-3; duration = 0.2 } };
      { Fault.at = 5e-3; action = Fault.Loss_burst { rate = 0.3; duration = 0.03 } };
    ];
  let order = ref [] in
  let stream = SE.create hub_a ~agent:"client" ~dst:(Net.address node_b) ~gid:"svc" () in
  ignore
    (S.spawn sched (fun () ->
         for i = 1 to n do
           match
             SE.call stream ~port:"p" ~kind:W.Call
               ~args:(Xdr.Pair (Xdr.Int i, Xdr.Int i))
               ~on_reply:(fun _ -> order := i :: !order)
           with
           | Ok _ -> ()
           | Error e -> Alcotest.fail e
         done;
         SE.flush stream));
  (match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked _ | S.Time_limit -> QCheck.Test.fail_report "run did not complete");
  (n, List.rev !order)

let prop_replies_in_call_order =
  QCheck.Test.make
    ~name:"sharded replies leave in per-stream call order under scrambled completion"
    ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 2 8))
    (fun (seed, shards) ->
      let n, order = raw_reply_order ~seed ~shards in
      order = List.init n (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* Exactly-once across a crash: a sharded dedup group loses the server
   mid-flight; resubmission on a fresh incarnation re-lands every call
   on its original lane and the dedup cache makes each execute once, in
   per-key order. *)

let fast_chan_cfg =
  {
    CH.default_config with
    CH.max_batch = 4;
    flush_interval = 0.5e-3;
    retransmit_timeout = 4e-3;
    max_retries = 3;
  }

let test_sharded_dedup_crash_resubmit_exactly_once () =
  let w = make_world () in
  (* One key per lane. *)
  let key lane = List.hd (keys_on_lane ~shards:4 ~lane 1) in
  let k0 = key 0 and k1 = key 1 and k2 = key 2 and k3 = key 3 in
  let executions : (int * int, int) Hashtbl.t = Hashtbl.create 16 in
  let per_key : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let key_order_ok = ref true in
  G.register_group w.server ~group:"ctr"
    ~config:
      GC.(default |> with_reply_config fast_chan_cfg |> with_dedup |> with_shards 4)
    ();
  G.register w.server ~group:"ctr" kv_sig (fun ctx (k, op) ->
      S.sleep ctx.G.sched 2e-3;
      Hashtbl.replace executions (k, op)
        (1 + Option.value ~default:0 (Hashtbl.find_opt executions (k, op)));
      (match Hashtbl.find_opt per_key k with
      | Some (last :: _) when last >= op -> key_order_ok := false
      | _ -> ());
      Hashtbl.replace per_key k (op :: Option.value ~default:[] (Hashtbl.find_opt per_key k));
      Ok ((k * 100) + op));
  (* Outage window: all six calls are in flight (some mid-execution on
     their lanes) when the server goes dark. *)
  S.at w.sched 2e-3 (fun () -> Net.crash w.net w.server_node);
  S.at w.sched 40e-3 (fun () -> Net.recover w.net w.server_node);
  let outcomes = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~config:fast_chan_cfg ~agent:"c" ~gid:"ctr" kv_sig in
         let se = R.stream h in
         SE.set_preserve_on_break se true;
         let ps = call_each h [ (k0, 0); (k0, 1); (k1, 0); (k1, 1); (k2, 0); (k2, 1) ] in
         R.flush h;
         (* A probe into the outage so the client notices the break. *)
         S.sleep w.sched 3e-3;
         let probe = R.stream_call h (k3, 0) in
         R.flush h;
         while SE.broken se = None do
           S.sleep w.sched 1e-3
         done;
         while S.now w.sched < 45e-3 do
           S.sleep w.sched 1e-3
         done;
         ignore (SE.restart_resubmit se : int);
         outcomes := List.map claim_normal (ps @ [ probe ])));
  run_ok w.sched;
  check Alcotest.(list int) "all results, in call order"
    [ k0 * 100; (k0 * 100) + 1; k1 * 100; (k1 * 100) + 1; k2 * 100; (k2 * 100) + 1; k3 * 100 ]
    !outcomes;
  Hashtbl.iter
    (fun (k, op) count ->
      check Alcotest.int (Printf.sprintf "call (%d,%d) executed exactly once" k op) 1 count)
    executions;
  check Alcotest.int "no phantom executions" 7 (Hashtbl.length executions);
  check Alcotest.bool "per-key order kept across resubmit" true !key_order_ok

(* ------------------------------------------------------------------ *)
(* Conflicting group re-registration fails loudly instead of silently
   handing back the existing group. *)

let expect_invalid what f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let test_group_reregistration_conflicts () =
  let w = make_world () in
  let cfg = GC.(default |> with_reply_config fast_chan_cfg |> with_dedup |> with_shards 4) in
  G.register_group w.server ~group:"g" ~config:cfg ();
  (* An omitted config is "don't care" (this is what [register] relies
     on); re-passing the registration config — or a structurally equal
     rebuild — is fine. *)
  G.register w.server ~group:"g" kv_sig (fun _ (_, op) -> Ok op);
  G.register_group w.server ~group:"g" ~config:cfg ();
  G.register_group w.server ~group:"g"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup |> with_shards 4)
    ();
  expect_invalid "conflicting shards" (fun () ->
      G.register_group w.server ~group:"g" ~config:GC.(cfg |> with_shards 2) ());
  expect_invalid "conflicting dedup" (fun () ->
      G.register_group w.server ~group:"g" ~config:GC.(cfg |> without_dedup) ());
  expect_invalid "conflicting ordered" (fun () ->
      G.register_group w.server ~group:"g" ~config:GC.(cfg |> with_ordered false) ());
  expect_invalid "conflicting dedup_cache" (fun () ->
      G.register_group w.server ~group:"g" ~config:GC.(cfg |> with_dedup ~cache:7) ());
  expect_invalid "conflicting reply_config" (fun () ->
      G.register_group w.server ~group:"g" ~config:GC.(cfg |> with_reply_config batch_cfg) ())

(* ------------------------------------------------------------------ *)
(* Registry byte budget: outcomes are sized on record, FIFO-evicted
   while over budget, eviction marks and the byte gauge track it. *)

let test_registry_byte_budget () =
  let evictions = ref 0 and evicted_bytes = ref 0 in
  let reg : string Pipeline.Registry.t =
    Pipeline.Registry.create ~cap:100 ~max_bytes:100 ~bytes_of:String.length
      ~on_evict:(fun ~bytes ->
        incr evictions;
        evicted_bytes := !evicted_bytes + bytes)
      ()
  in
  let module Reg = Pipeline.Registry in
  for call = 1 to 3 do
    Reg.record reg ~stream:"s" ~call (String.make 30 'x')
  done;
  check Alcotest.int "under budget, nothing evicted" 0 !evictions;
  check Alcotest.int "byte gauge" 90 (Reg.bytes reg);
  (* The fourth 30-byte outcome pushes the total to 120 > 100: the
     oldest is evicted even though the count cap (100) is far away. *)
  Reg.record reg ~stream:"s" ~call:4 (String.make 30 'x');
  check Alcotest.int "one eviction" 1 !evictions;
  check Alcotest.int "evicted bytes counted" 30 !evicted_bytes;
  check Alcotest.int "byte gauge back under budget" 90 (Reg.bytes reg);
  check Alcotest.bool "oldest outcome gone" true (Reg.find reg ~stream:"s" ~call:1 = None);
  check Alcotest.bool "oldest outcome marked evicted" true (Reg.evicted reg ~stream:"s" ~call:1);
  check Alcotest.bool "newest outcome kept" true
    (Reg.find reg ~stream:"s" ~call:4 = Some (String.make 30 'x'));
  (* An outcome bigger than the whole budget cannot be kept at all. *)
  Reg.record reg ~stream:"s" ~call:5 (String.make 150 'y');
  check Alcotest.int "everything flushed" 0 (Reg.known reg);
  check Alcotest.int "byte gauge empty" 0 (Reg.bytes reg);
  check Alcotest.int "evicted bytes total" (30 + 90 + 150) !evicted_bytes

(* ------------------------------------------------------------------ *)
(* Cross-lane pipelining: the producer runs on one lane while its
   dependent call — same stream, different shard key — arrives on
   another, parks on the registry, then executes with the substituted
   value; the dependent's reply is still released after the producer's. *)

let step_sig = Core.Sigs.hsig0 "step" ~arg:Xdr.int ~res:Xdr.int

let test_cross_shard_pipelining () =
  let w = make_world () in
  G.register_group w.server ~group:"hot"
    ~config:GC.(default |> with_reply_config batch_cfg |> with_shards 2)
    ();
  G.register w.server ~group:"hot" step_sig (fun ctx n ->
      S.sleep ctx.G.sched 5e-3;
      Ok (n * 2));
  let got1 = ref None and got2 = ref None and n = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         let h = handle w ~agent:"c" ~gid:"hot" step_sig in
         (* The dependent's argument is a reference to the stream's first
            call (cid 0), not yet an int when its lane is chosen. The
            producer's argument is picked to hash to the other lane. *)
         let ref_lane =
           lane_of ~shards:2
             (Xdr.Pref
                { Xdr.ps_stream = SE.stable_id (R.stream h); ps_call = 0; ps_field = None })
         in
         n := List.hd (keys_on_lane ~shards:2 ~lane:(1 - ref_lane) 1);
         let p1 = R.stream_call h !n in
         let p2 = R.Call.(submit (piped h (R.pipe p1))) in
         R.flush h;
         got2 := Some (P.claim p2);
         got1 := Some (P.claim p1)));
  run_ok w.sched;
  check Alcotest.bool "producer result" true (!got1 = Some (P.Normal (2 * !n)));
  check Alcotest.bool "dependent result (substituted)" true (!got2 = Some (P.Normal (4 * !n)));
  (* The dependent reached its own lane while the producer was still
     sleeping on lane 0 — it parked, then ran on substitution. *)
  check Alcotest.int "dependent parked on the registry" 1 (peek w.sched "parked_calls");
  check Alcotest.int "substitution performed" 1 (peek w.sched "ref_substitutions");
  check Alcotest.int "no reference failures" 0 (peek w.sched "ref_failures")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "shard"
    [
      ( "sharding",
        [
          Alcotest.test_case "independent keys overlap" `Quick test_independent_keys_overlap;
          Alcotest.test_case "same key serialised in order" `Quick
            test_same_key_serialised_in_order;
          Alcotest.test_case "dedup crash + resubmit exactly once" `Quick
            test_sharded_dedup_crash_resubmit_exactly_once;
          Alcotest.test_case "group re-registration conflicts" `Quick
            test_group_reregistration_conflicts;
          Alcotest.test_case "cross-shard pipelining" `Quick test_cross_shard_pipelining;
          QCheck_alcotest.to_alcotest prop_replies_in_call_order;
        ] );
      ("registry", [ Alcotest.test_case "byte budget" `Quick test_registry_byte_budget ]);
    ]

(* Tests for the call-stream substrate: reliable channels (chanhub),
   wire encoding, stream sender end, target receiver end. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module T = Cstream.Target
module W = Cstream.Wire
module GC = Cstream.Group_config

let check = Alcotest.check

let pp_routcome ppf = function
  | W.W_normal v -> Format.fprintf ppf "normal(%a)" Xdr.pp_value v
  | W.W_signal (name, v) -> Format.fprintf ppf "signal %s(%a)" name Xdr.pp_value v
  | W.W_unavailable reason -> Format.fprintf ppf "unavailable(%s)" reason
  | W.W_failure reason -> Format.fprintf ppf "failure(%s)" reason

type world = {
  sched : S.t;
  net : CH.frame Net.t;
  node_a : Net.node;
  node_b : Net.node;
  hub_a : CH.hub;
  hub_b : CH.hub;
}

let make_world ?(cfg = Net.default_config) ?(seed = 42) () =
  let sched = S.create ~seed () in
  let net = Net.create sched cfg in
  let node_a = Net.add_node net ~name:"a" in
  let node_b = Net.add_node net ~name:"b" in
  let hub_a = CH.create_hub ~net:(net, node_a) () in
  let hub_b = CH.create_hub ~net:(net, node_b) () in
  { sched; net; node_a; node_b; hub_a; hub_b }

let run_ok w =
  match S.run w.sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* Channels deliver validated views; these tests read them as ints. *)
let ints_of_views vws =
  List.map
    (fun vw ->
      match Xdr.View.materialize vw with
      | Ok (Xdr.Int i) -> i
      | Ok v -> Alcotest.failf "not an int: %a" Xdr.pp_value v
      | Error e -> Alcotest.failf "view does not materialise: %s" e)
    vws

(* ------------------------------------------------------------------ *)
(* Wire encoding *)

(* Envelopes are parsed from views over their encoded bytes, exactly as
   the receive path sees them. *)
let view v =
  match Xdr.View.of_string (Xdr.Bin.to_string v) with
  | Ok vw -> vw
  | Error e -> Alcotest.failf "view scan failed: %s" e

let parse_reply v =
  Result.bind (W.parse_reply_view (view v)) W.outcome_of_view

let args_of cv =
  match Xdr.View.materialize cv.W.cv_args with Ok v -> v | Error e -> Alcotest.fail e

let test_wire_call_roundtrip () =
  let item =
    W.call_item ~cid:42 ~trace:None ~port:(W.Define "record_grade") ~kind:W.Call
      ~args:(Xdr.Int 5) ()
  in
  match W.parse_call_view (view item) with
  | Ok cv ->
      check Alcotest.(option int) "cid" (Some 42) cv.W.cv_cid;
      check Alcotest.bool "port" true (cv.W.cv_port = W.Define "record_grade");
      check Alcotest.bool "kind" true (cv.W.cv_kind = W.Call);
      check Alcotest.bool "args" true (args_of cv = Xdr.Int 5)
  | Error e -> Alcotest.fail e

let test_wire_send_kind_roundtrip () =
  let item = W.call_item ~trace:None ~port:(W.Ref 2) ~kind:W.Send ~args:Xdr.Unit () in
  match W.parse_call_view (view item) with
  | Ok cv ->
      check Alcotest.bool "send kind" true (cv.W.cv_kind = W.Send);
      check Alcotest.bool "port ref" true (cv.W.cv_port = W.Ref 2)
  | Error e -> Alcotest.fail e

let test_wire_reply_roundtrips () =
  let cases =
    [
      W.W_normal (Xdr.Real 3.25);
      W.W_signal ("no_such_user", Xdr.Str "bob");
      W.W_unavailable "cannot communicate";
      W.W_failure "handler does not exist";
    ]
  in
  List.iter
    (fun outcome ->
      match parse_reply (W.reply_item ~trace:None outcome) with
      | Ok got -> check Alcotest.bool "outcome" true (got = outcome)
      | Error e -> Alcotest.fail e)
    cases

let test_wire_send_ok_parses_as_normal_unit () =
  match parse_reply (W.send_ok_item ~trace:None) with
  | Ok (W.W_normal Xdr.Unit) -> ()
  | Ok _ -> Alcotest.fail "wrong parse"
  | Error e -> Alcotest.fail e

let test_wire_send_ok_is_small () =
  let size v = String.length (Xdr.Bin.to_string v) in
  let full = size (W.reply_item ~trace:None (W.W_normal (Xdr.Str (String.make 100 'x')))) in
  let compact = size (W.send_ok_item ~trace:None) in
  check Alcotest.bool "compact reply much smaller" true (compact * 5 < full)

let test_wire_malformed_rejected () =
  (match W.parse_call_view (view (Xdr.Int 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed garbage call");
  match parse_reply (Xdr.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed garbage reply"

(* ------------------------------------------------------------------ *)
(* Chanhub *)

let collect_channel w ~cfg ~n =
  (* Send [n] integers a->b on one channel; return (received ints in
     order, world) after the run completes. *)
  let received = ref [] in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items -> received := !received @ ints_of_views items));
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" cfg in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to n do
           ignore (CH.send out (Xdr.Int i) : (unit, string) result)
         done;
         CH.flush_out out));
  run_ok w;
  !received

let expected_ints n = List.init n (fun i -> i + 1)

let test_chan_in_order_delivery () =
  let w = make_world () in
  let got = collect_channel w ~cfg:CH.default_config ~n:20 in
  check Alcotest.(list int) "all items in order" (expected_ints 20) got

let test_chan_batching_message_count () =
  let w = make_world () in
  let cfg = { CH.default_config with CH.max_batch = 5; flush_interval = infinity } in
  let got = collect_channel w ~cfg ~n:20 in
  check Alcotest.(list int) "delivered" (expected_ints 20) got;
  (* 20 items at batch 5 = 4 data messages, delivered in one instant and
     acked together by one frame at the end of that turn. *)
  let sent = Sim.Stats.count (Sim.Stats.counter (Net.stats w.net) "msgs_sent") in
  check Alcotest.int "4 data + 1 ack" 5 sent

let test_chan_no_batching_message_count () =
  let w = make_world () in
  let got = collect_channel w ~cfg:CH.rpc_config ~n:20 in
  check Alcotest.(list int) "delivered" (expected_ints 20) got;
  let sent = Sim.Stats.count (Sim.Stats.counter (Net.stats w.net) "msgs_sent") in
  (* The 20 packets land in one instant: one ack frame covers them. *)
  check Alcotest.int "20 data + 1 ack" 21 sent

let test_chan_flush_interval_fires () =
  let w = make_world () in
  let cfg = { CH.default_config with CH.max_batch = 1000; flush_interval = 5e-3 } in
  let received_at = ref (-1.0) in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ _ -> received_at := S.now w.sched));
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" cfg in
  ignore
    (S.spawn w.sched (fun () -> ignore (CH.send out (Xdr.Int 1) : (unit, string) result)));
  run_ok w;
  check Alcotest.bool "delivered after the interval" true
    (!received_at >= 5e-3 && !received_at < 20e-3)

let test_chan_reliable_under_loss () =
  let w = make_world ~cfg:(Net.lossy ~loss:0.25 Net.default_config) () in
  let got = collect_channel w ~cfg:CH.default_config ~n:50 in
  check Alcotest.(list int) "exactly once, in order, despite loss" (expected_ints 50) got

let test_chan_reliable_under_duplication () =
  let w = make_world ~cfg:(Net.lossy ~loss:0.1 ~dup:0.3 Net.default_config) () in
  let got = collect_channel w ~cfg:CH.default_config ~n:50 in
  check Alcotest.(list int) "duplicates suppressed" (expected_ints 50) got

(* The sender configs in use: unbatched, batching by count and timer,
   flush-on-idle batching with a static and with an AIMD window. *)
let chan_configs =
  [
    ("rpc", CH.rpc_config);
    ("default", CH.default_config);
    ("adaptive", CH.adaptive_config);
    ("aimd", CH.aimd_config);
  ]

let prop_chan_reliable_any_seed =
  QCheck.Test.make
    ~name:"channel is exactly-once in-order for any seed/loss/config/item size" ~count:40
    QCheck.(quad small_int (int_range 0 40) (oneofl ~print:fst chan_configs) (int_range 1 300))
    (fun (seed, loss_pct, (_, cfg), size) ->
      let net_cfg = Net.lossy ~loss:(float_of_int loss_pct /. 100.) ~dup:0.1 Net.default_config in
      let w = make_world ~cfg:net_cfg ~seed () in
      let item i = Xdr.Pair (Xdr.Int i, Xdr.Str (String.make size 'x')) in
      let received = ref [] in
      CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
          CH.set_deliver in_chan (fun _ items ->
              received := !received @ List.map (fun vw -> Result.get_ok (Xdr.View.materialize vw)) items));
      let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" cfg in
      ignore
        (S.spawn w.sched (fun () ->
             for i = 1 to 30 do
               ignore (CH.send out (item i) : (unit, string) result)
             done;
             CH.flush_out out));
      run_ok w;
      (* Quiescent: every byte the window charged has been acked. *)
      List.equal Xdr.equal_value (List.init 30 (fun i -> item (i + 1))) !received
      && CH.inflight_bytes out = 0
      && CH.unacked_count out = 0)

let prop_chan_random_flush_interleavings =
  (* Random explicit flushes between sends, under loss and duplication:
     still exactly-once, in order. *)
  QCheck.Test.make ~name:"random send/flush interleavings stay exactly-once in-order"
    ~count:30
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 40) bool))
    (fun (seed, plan) ->
      let cfg = Net.lossy ~loss:0.15 ~dup:0.1 Net.default_config in
      let w = make_world ~cfg ~seed () in
      let received = ref [] in
      CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
          CH.set_deliver in_chan (fun _ items -> received := !received @ ints_of_views items));
      let out =
        CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:""
          { CH.default_config with CH.max_batch = 4 }
      in
      ignore
        (S.spawn w.sched (fun () ->
             List.iteri
               (fun i flush_now ->
                 ignore (CH.send out (Xdr.Int (i + 1)) : (unit, string) result);
                 if flush_now then CH.flush_out out)
               plan;
             CH.flush_out out));
      (match S.run w.sched with S.Completed -> () | _ -> failwith "bad run");
      !received = List.init (List.length plan) (fun i -> i + 1))

(* Hand-built Data frames for node a's channel 0, injected straight
   into the network from node a. *)
let chan_data ~first_seq values =
  let opening = if first_seq = 0 then Some { CH.open_label = "sink"; open_meta = "" } else None in
  CH.Data
    {
      idx = 0;
      first_seq;
      opening;
      acks = [];
      items = List.map (fun v -> Xdr.Int v) values;
    }

let inject w p =
  let f = CH.encode_packet p in
  Net.send w.net ~src:w.node_a ~dst:(Net.address w.node_b) ~bytes_:(String.length f) f

(* The deliver callback gets each item's channel position: the stream
   layer's only sequence number. Frames are hand-built and injected in
   order: a compact packet before the channel opened (dropped), the
   opening packet, a packet past a gap (dropped, go-back-n), a
   retransmit overlapping what was delivered (skip = 1), then the
   packet that was gapped. *)
let test_chan_positions_across_gap_dup_and_lost_opening () =
  let w = make_world () in
  let got = ref [] in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun seq items -> got := !got @ [ (seq, ints_of_views items) ]));
  let plan =
    [
      chan_data ~first_seq:2 [ 2; 3 ];
      chan_data ~first_seq:0 [ 0; 1 ];
      chan_data ~first_seq:4 [ 4; 5 ];
      chan_data ~first_seq:1 [ 1; 2; 3 ];
      chan_data ~first_seq:4 [ 4; 5 ];
    ]
  in
  ignore
    (S.spawn w.sched (fun () ->
         List.iter
           (fun p ->
             inject w p;
             S.sleep w.sched 5e-3)
           plan));
  run_ok w;
  check
    Alcotest.(list (pair int (list int)))
    "each delivery starts at the sender's position"
    [ (0, [ 0; 1 ]); (2, [ 2; 3 ]); (4, [ 4; 5 ]) ]
    !got;
  let count name = Sim.Stats.count (Sim.Stats.counter (S.stats w.sched) name) in
  check Alcotest.int "compact packet before the opening dropped" 1 (count "chan_unopened_drops");
  check Alcotest.int "overlapping item suppressed" 1 (count "chan_dup_items_suppressed")

(* Any arrival pattern — windows of the sender's sequence at random
   offsets, so gaps, duplicates, partial overlaps and compact packets
   ahead of the opening all occur — delivers a gap-free prefix, each
   item at its sender position (the item's value here). *)
let prop_chan_positions_any_arrivals =
  QCheck.Test.make ~name:"delivered positions match the sender's for any arrivals" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (pair (int_range 0 20) (int_range 1 5)))
    (fun windows ->
      let w = make_world () in
      let got = ref [] in
      CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
          CH.set_deliver in_chan (fun seq items ->
              List.iteri (fun k v -> got := (seq + k, v) :: !got) (ints_of_views items)));
      ignore
        (S.spawn w.sched (fun () ->
             List.iter
               (fun (first_seq, len) ->
                 inject w (chan_data ~first_seq (List.init len (fun k -> first_seq + k)));
                 S.sleep w.sched 5e-3)
               windows));
      run_ok w;
      let got = List.rev !got in
      List.for_all (fun (pos, v) -> pos = v) got && List.mapi (fun i _ -> i) got = List.map fst got)

let test_chan_break_on_unreachable_peer () =
  let w = make_world () in
  Net.crash w.net w.node_b;
  let broke = ref None in
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" CH.default_config
  in
  CH.on_out_break out (fun reason -> broke := Some reason);
  ignore
    (S.spawn w.sched (fun () ->
         ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
         CH.flush_out out));
  run_ok w;
  (match !broke with
  | Some reason -> check Alcotest.bool "mentions retransmit" true
      (String.length reason > 0)
  | None -> Alcotest.fail "expected break");
  check Alcotest.bool "marked broken" true (CH.out_broken out <> None)

let test_chan_unknown_label_resets () =
  let w = make_world () in
  let broke = ref None in
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"nobody-home" ~meta:""
      CH.default_config
  in
  CH.on_out_break out (fun reason -> broke := Some reason);
  ignore
    (S.spawn w.sched (fun () ->
         ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
         CH.flush_out out));
  run_ok w;
  check Alcotest.(option string) "reset reason" (Some "no such port group") !broke

let test_chan_receiver_break () =
  let w = make_world () in
  let broke = ref None in
  let seen = ref 0 in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items ->
          seen := !seen + List.length items;
          if !seen >= 3 then CH.break_in in_chan ~reason:"receiver had enough"));
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:""
      { CH.default_config with CH.max_batch = 1 }
  in
  CH.on_out_break out (fun reason -> broke := Some reason);
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to 3 do
           ignore (CH.send out (Xdr.Int i) : (unit, string) result)
         done));
  run_ok w;
  check Alcotest.(option string) "sender learned the reason" (Some "receiver had enough") !broke

let test_chan_send_after_break_errors () =
  let w = make_world () in
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"x" ~meta:"" CH.default_config
  in
  CH.break_out out ~reason:"bye";
  (match CH.send out (Xdr.Int 1) with
  | Error reason -> check Alcotest.string "break reason reported" "bye" reason
  | Ok () -> Alcotest.fail "send on broken channel should return Error");
  run_ok w

(* ------------------------------------------------------------------ *)
(* Stream + Target *)

(* A tiny arithmetic service: port "double" doubles ints after
   [service] seconds; port "fail" signals; port "boom" replies failure. *)
let install_service ?(service = 0.0) ?config w =
  let log = ref [] in
  let dispatch conn ~seq:_ ~port ~kind:_ ~args ~reply =
    ignore conn;
    ignore
      (S.spawn w.sched (fun () ->
           if service > 0.0 then S.sleep w.sched service;
           log := (port, args) :: !log;
           match (port, args) with
           | "double", Xdr.Int n -> reply (W.W_normal (Xdr.Int (2 * n)))
           | "fail", _ -> reply (W.W_signal ("e1", Xdr.Str "declared"))
           | "boom", _ -> reply (W.W_failure "handler blew up")
           | _ -> reply (W.W_failure ("no such port: " ^ port))))
  in
  let target = T.create w.hub_b ~gid:"svc" ?config dispatch in
  (target, log)

let test_stream_call_reply () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         (match
            SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 21)
              ~on_reply:(fun o -> got := Some o)
          with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e);
         SE.flush stream));
  run_ok w;
  match !got with
  | Some (W.W_normal (Xdr.Int 42)) -> ()
  | Some o -> Alcotest.failf "unexpected outcome %a" pp_routcome o
  | None -> Alcotest.fail "no reply"

let test_stream_replies_in_call_order () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let order = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to 10 do
           match
             SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i)
               ~on_reply:(fun _ -> order := i :: !order)
           with
           | Ok _ -> ()
           | Error e -> Alcotest.fail e
         done;
         SE.flush stream));
  run_ok w;
  check Alcotest.(list int) "replies in call order" (expected_ints 10) (List.rev !order)

let test_target_executes_in_call_order () =
  let w = make_world () in
  let _target, log = install_service ~service:1e-3 w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to 5 do
           ignore
             (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i)
                ~on_reply:(fun _ -> ())
               : (int * int, string) result)
         done;
         SE.flush stream));
  run_ok w;
  let executed = List.rev_map (fun (_, args) -> args) !log in
  check Alcotest.bool "handler ran in call order" true
    (executed = List.map (fun i -> Xdr.Int i) (expected_ints 5))

let test_streams_processed_concurrently () =
  (* Two agents, same group: their calls overlap; total time is about
     one service time, not two (§2.1's mailer example). *)
  let w = make_world () in
  let _target, _ = install_service ~service:10e-3 w in
  let finished = ref [] in
  let make_client name =
    let stream = SE.create w.hub_a ~agent:name ~dst:(Net.address w.node_b) ~gid:"svc" () in
    ignore
      (S.spawn w.sched (fun () ->
           ignore
             (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 1)
                ~on_reply:(fun _ -> ())
               : (int * int, string) result);
           SE.flush stream;
           match SE.synch stream with
           | Ok () -> finished := (name, S.now w.sched) :: !finished
           | Error _ -> Alcotest.fail "synch failed"))
  in
  make_client "c1";
  make_client "c2";
  run_ok w;
  check Alcotest.int "both finished" 2 (List.length !finished);
  List.iter
    (fun (name, at) ->
      if at > 18e-3 then Alcotest.failf "%s finished too late: %.4f (serialised?)" name at)
    !finished

let test_stream_signal_propagates () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         ignore
           (SE.call stream ~port:"fail" ~kind:W.Call ~args:Xdr.Unit
              ~on_reply:(fun o -> got := Some o)
             : (int * int, string) result);
         SE.flush stream));
  run_ok w;
  match !got with
  | Some (W.W_signal ("e1", Xdr.Str "declared")) -> ()
  | Some o -> Alcotest.failf "unexpected %a" pp_routcome o
  | None -> Alcotest.fail "no reply"

let test_send_kind_gets_compact_ok () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         ignore
           (SE.call stream ~port:"double" ~kind:W.Send ~args:(Xdr.Int 21)
              ~on_reply:(fun o -> got := Some o)
             : (int * int, string) result);
         SE.flush stream));
  run_ok w;
  match !got with
  | Some (W.W_normal Xdr.Unit) -> () (* result value dropped for sends *)
  | Some o -> Alcotest.failf "unexpected %a" pp_routcome o
  | None -> Alcotest.fail "no reply"

let test_synch_ok_and_exception_reply () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let results = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         ignore
           (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 1) ~on_reply:(fun _ -> ())
             : (int * int, string) result);
         results := ("first", SE.synch stream = Ok ()) :: !results;
         ignore
           (SE.call stream ~port:"fail" ~kind:W.Call ~args:Xdr.Unit ~on_reply:(fun _ -> ())
             : (int * int, string) result);
         results := ("second", SE.synch stream = Error `Exception_reply) :: !results;
         ignore
           (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 2) ~on_reply:(fun _ -> ())
             : (int * int, string) result);
         (* the exception flag was consumed by the previous synch *)
         results := ("third", SE.synch stream = Ok ()) :: !results));
  run_ok w;
  check
    Alcotest.(list (pair string bool))
    "synch outcomes"
    [ ("first", true); ("second", true); ("third", true) ]
    (List.rev !results)

let test_synch_waits_for_completion () =
  let w = make_world () in
  let _target, _ = install_service ~service:5e-3 w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let done_at = ref 0.0 in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to 4 do
           ignore
             (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i)
                ~on_reply:(fun _ -> ())
               : (int * int, string) result)
         done;
         (match SE.synch stream with Ok () -> () | Error _ -> Alcotest.fail "synch");
         done_at := S.now w.sched;
         check Alcotest.int "no outstanding after synch" 0 (SE.outstanding stream)));
  run_ok w;
  check Alcotest.bool "waited for 4 sequential services" true (!done_at >= 20e-3)

let test_crash_breaks_stream_unavailable () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let outcomes = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         Net.crash w.net w.node_b;
         for i = 1 to 3 do
           ignore
             (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i)
                ~on_reply:(fun o -> outcomes := o :: !outcomes)
               : (int * int, string) result)
         done;
         SE.flush stream));
  run_ok w;
  check Alcotest.int "all three completed" 3 (List.length !outcomes);
  List.iter
    (fun o ->
      match o with
      | W.W_unavailable _ -> ()
      | o -> Alcotest.failf "expected unavailable, got %a" pp_routcome o)
    !outcomes;
  check Alcotest.bool "stream broken" true (SE.broken stream <> None)

let test_call_on_broken_stream_fails_immediately () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  ignore
    (S.spawn w.sched (fun () ->
         Net.crash w.net w.node_b;
         ignore
           (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 1) ~on_reply:(fun _ -> ())
             : (int * int, string) result);
         SE.flush stream));
  run_ok w;
  (* Now broken; a further call must fail without creating anything. *)
  match
    SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 2) ~on_reply:(fun _ -> ())
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "call on broken stream should fail immediately"

let test_restart_reincarnates () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         (* Break it... *)
         Net.crash w.net w.node_b;
         ignore
           (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 1) ~on_reply:(fun _ -> ())
             : (int * int, string) result);
         SE.flush stream;
         (* wait for the break *)
         while SE.broken stream = None do
           S.sleep w.sched 50e-3
         done;
         (* ...then revive the node and restart the stream. *)
         Net.recover w.net w.node_b;
         SE.restart stream;
         (match
            SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 21)
              ~on_reply:(fun o -> got := Some o)
          with
         | Ok _ -> ()
         | Error e -> Alcotest.fail e);
         SE.flush stream));
  run_ok w;
  match !got with
  | Some (W.W_normal (Xdr.Int 42)) -> ()
  | Some o -> Alcotest.failf "unexpected %a" pp_routcome o
  | None -> Alcotest.fail "no reply after restart"

(* A restart breaks the incarnation's call channel, and a broken
   sending end leaves its hub's table: 200 call-and-restart cycles leave
   the client hub with the one live channel. *)
let test_restarts_leave_no_out_channels () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let outs () = (CH.table_sizes w.hub_a).CH.outs in
  let before = outs () in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to 200 do
           (match
              SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i) ~on_reply:(fun _ -> ())
            with
           | Ok _ -> ()
           | Error e -> Alcotest.fail e);
           (match SE.synch stream with Ok () -> () | Error _ -> Alcotest.fail "synch failed");
           SE.restart stream
         done));
  run_ok w;
  check Alcotest.int "one live sending end, as before the restarts" before (outs ());
  check Alcotest.int "it is the stream's" 1 before

let test_receiver_initiated_break () =
  let w = make_world () in
  (* A service that breaks the connection when asked. *)
  let dispatch conn ~seq:_ ~port ~kind:_ ~args:_ ~reply =
    match port with
    | "work" -> reply (W.W_normal Xdr.Unit)
    | "poison" ->
        reply (W.W_failure "could not decode");
        T.break_conn conn ~reason:"decode failure"
    | _ -> reply (W.W_failure "no such port")
  in
  ignore (T.create w.hub_b ~gid:"svc" dispatch : T.t);
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let outcomes = ref [] in
  let record tag o = outcomes := (tag, o) :: !outcomes in
  ignore
    (S.spawn w.sched (fun () ->
         ignore
           (SE.call stream ~port:"work" ~kind:W.Call ~args:Xdr.Unit ~on_reply:(record "ok1")
             : (int * int, string) result);
         ignore
           (SE.call stream ~port:"poison" ~kind:W.Call ~args:Xdr.Unit ~on_reply:(record "bad")
             : (int * int, string) result);
         ignore
           (SE.call stream ~port:"work" ~kind:W.Call ~args:Xdr.Unit ~on_reply:(record "after")
             : (int * int, string) result);
         SE.flush stream));
  run_ok w;
  let find tag = List.assoc tag !outcomes in
  (match find "ok1" with
  | W.W_normal _ -> ()
  | o -> Alcotest.failf "first call should succeed, got %a" pp_routcome o);
  (match find "bad" with
  | W.W_failure reason -> check Alcotest.string "failure reason" "could not decode" reason
  | o -> Alcotest.failf "poison should fail, got %a" pp_routcome o);
  (match find "after" with
  | W.W_unavailable _ -> ()
  | o -> Alcotest.failf "call after break should be unavailable, got %a" pp_routcome o);
  check Alcotest.bool "stream broken at sender" true (SE.broken stream <> None)

let test_stream_reliable_under_loss () =
  let w = make_world ~cfg:(Net.lossy ~loss:0.2 Net.default_config) () in
  let _target, _ = install_service w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let replies = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to 25 do
           ignore
             (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i)
                ~on_reply:(fun o -> replies := o :: !replies)
               : (int * int, string) result)
         done;
         match SE.synch stream with
         | Ok () -> ()
         | Error `Exception_reply -> Alcotest.fail "no exceptions expected"
         | Error (`Broken r) -> Alcotest.failf "stream broke: %s" r));
  run_ok w;
  let doubled =
    List.rev_map (function W.W_normal (Xdr.Int n) -> n | _ -> -1) !replies
  in
  check Alcotest.(list int) "all replies, in order, exactly once"
    (List.map (fun i -> 2 * i) (expected_ints 25))
    doubled

(* ------------------------------------------------------------------ *)
(* Partitions and restart *)

let fast_cfg = { CH.default_config with CH.retransmit_timeout = 5e-3; max_retries = 3 }

let test_partition_breaks_then_restart_works () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream =
    SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc"
      ~config:fast_cfg ()
  in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         (* first call works *)
         ignore
           (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 1) ~on_reply:(fun _ -> ())
             : (int * int, string) result);
         SE.flush stream;
         S.sleep w.sched 10e-3;
         (* partition: next call can never be delivered *)
         Net.partition w.net (Net.address w.node_a) (Net.address w.node_b);
         ignore
           (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 2) ~on_reply:(fun _ -> ())
             : (int * int, string) result);
         SE.flush stream;
         while SE.broken stream = None do
           S.sleep w.sched 5e-3
         done;
         (* heal and reincarnate *)
         Net.heal w.net (Net.address w.node_a) (Net.address w.node_b);
         SE.restart stream;
         match
           SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int 21)
             ~on_reply:(fun o -> got := Some o)
         with
         | Ok _ -> SE.flush stream
         | Error e -> Alcotest.fail e));
  run_ok w;
  match !got with
  | Some (W.W_normal (Xdr.Int 42)) -> ()
  | Some o -> Alcotest.failf "unexpected %a" pp_routcome o
  | None -> Alcotest.fail "no reply after heal+restart"

(* ------------------------------------------------------------------ *)
(* Supervision support: preserve-on-break, resubmission, dedup *)

let test_break_during_synch_observes_broken () =
  let w = make_world () in
  let _target, _ = install_service w in
  let stream =
    SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc"
      ~config:fast_cfg ()
  in
  let result = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         Net.crash w.net w.node_b;
         for i = 1 to 3 do
           ignore
             (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i)
                ~on_reply:(fun _ -> ())
               : (int * int, string) result)
         done;
         (* parks in synch; the retransmit-exhaustion break must wake it *)
         result := Some (SE.synch stream)));
  run_ok w;
  match !result with
  | Some (Error (`Broken _)) -> ()
  | Some (Ok ()) -> Alcotest.fail "synch should observe the break"
  | Some (Error `Exception_reply) -> Alcotest.fail "expected `Broken, got `Exception_reply"
  | None -> Alcotest.fail "synch never returned"

let test_restart_inflight_resolves_each_exactly_once () =
  let w = make_world () in
  (* Slow sequential service: all three calls are still in flight when
     the sender restarts. *)
  let _target, _ = install_service ~service:50e-3 w in
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let counts = Array.make 3 0 in
  let outcomes = Array.make 3 None in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 0 to 2 do
           ignore
             (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i)
                ~on_reply:(fun o ->
                  counts.(i) <- counts.(i) + 1;
                  outcomes.(i) <- Some o)
               : (int * int, string) result)
         done;
         SE.flush stream;
         S.sleep w.sched 10e-3;
         check Alcotest.int "all three in flight" 3 (SE.outstanding stream);
         SE.restart stream;
         check Alcotest.int "none outstanding after restart" 0 (SE.outstanding stream)));
  (* Let the run drain: the orphaned handlers still reply at 50/100/150
     ms on the dead incarnation; those stale replies must not re-resolve
     anything. *)
  run_ok w;
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "call %d resolved exactly once" i) 1 c)
    counts;
  Array.iter
    (function
      | Some (W.W_unavailable _) -> ()
      | Some o -> Alcotest.failf "expected unavailable, got %a" pp_routcome o
      | None -> Alcotest.fail "call never resolved")
    outcomes

let test_resubmit_preserves_and_replays_calls () =
  let w = make_world () in
  let _target, log = install_service w in
  let stream =
    SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc"
      ~config:fast_cfg ()
  in
  SE.set_preserve_on_break stream true;
  let counts = Array.make 4 0 in
  let normals = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         (* Crash before anything is delivered: every call survives the
            break as pending and is replayed on the next incarnation. *)
         Net.crash w.net w.node_b;
         for i = 0 to 3 do
           ignore
             (SE.call stream ~port:"double" ~kind:W.Call ~args:(Xdr.Int i)
                ~on_reply:(fun o ->
                  counts.(i) <- counts.(i) + 1;
                  match o with W.W_normal _ -> incr normals | _ -> ())
               : (int * int, string) result)
         done;
         SE.flush stream;
         while SE.broken stream = None do
           S.sleep w.sched 5e-3
         done;
         check Alcotest.int "calls preserved across break" 4 (SE.outstanding stream);
         Net.recover w.net w.node_b;
         check Alcotest.int "all four resubmitted" 4 (SE.restart_resubmit stream);
         check Alcotest.int "fresh incarnation" 1 (SE.incarnation stream);
         match SE.synch stream with
         | Ok () -> ()
         | Error `Exception_reply -> Alcotest.fail "unexpected exception reply"
         | Error (`Broken r) -> Alcotest.failf "stream broke again: %s" r));
  run_ok w;
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "call %d resolved exactly once" i) 1 c)
    counts;
  check Alcotest.int "all four terminated normally" 4 !normals;
  check Alcotest.int "each call executed exactly once" 4 (List.length !log)

let test_resubmit_dedups_already_executed_calls () =
  let w = make_world () in
  (* Count executions per argument; ~dedup:true must keep every count
     at one even though calls 0-2 are submitted twice (their replies
     were lost to the partition). *)
  let applied : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let dispatch _conn ~seq:_ ~port:_ ~kind:_ ~args ~reply =
    ignore
      (S.spawn w.sched (fun () ->
           (match args with
           | Xdr.Int i ->
               Hashtbl.replace applied i
                 (1 + Option.value ~default:0 (Hashtbl.find_opt applied i))
           | _ -> ());
           reply (W.W_normal args)))
  in
  ignore (T.create w.hub_b ~gid:"svc" ~config:GC.(default |> with_dedup) dispatch : T.t);
  let stream =
    SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc"
      ~config:fast_cfg ()
  in
  SE.set_preserve_on_break stream true;
  let counts = Array.make 4 0 in
  let normals = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 0 to 2 do
           ignore
             (SE.call stream ~port:"echo" ~kind:W.Call ~args:(Xdr.Int i)
                ~on_reply:(fun o ->
                  counts.(i) <- counts.(i) + 1;
                  match o with W.W_normal _ -> incr normals | _ -> ())
               : (int * int, string) result)
         done;
         SE.flush stream;
         (* 3 ms: the calls have been delivered, executed and acked, but
            their buffered replies have not been transmitted yet. *)
         S.sleep w.sched 3e-3;
         Net.partition w.net (Net.address w.node_a) (Net.address w.node_b);
         (* A fourth call cannot be delivered: its retransmissions are
            what detect the partition and break the stream. *)
         ignore
           (SE.call stream ~port:"echo" ~kind:W.Call ~args:(Xdr.Int 3)
              ~on_reply:(fun o ->
                counts.(3) <- counts.(3) + 1;
                match o with W.W_normal _ -> incr normals | _ -> ())
             : (int * int, string) result);
         SE.flush stream;
         while SE.broken stream = None do
           S.sleep w.sched 5e-3
         done;
         check Alcotest.int "all four preserved" 4 (SE.outstanding stream);
         Net.heal w.net (Net.address w.node_a) (Net.address w.node_b);
         check Alcotest.int "all four resubmitted" 4 (SE.restart_resubmit stream);
         match SE.synch stream with
         | Ok () -> ()
         | Error `Exception_reply -> Alcotest.fail "unexpected exception reply"
         | Error (`Broken r) -> Alcotest.failf "stream broke again: %s" r));
  run_ok w;
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "call %d resolved exactly once" i) 1 c)
    counts;
  check Alcotest.int "all four terminated normally" 4 !normals;
  for i = 0 to 3 do
    check Alcotest.int
      (Printf.sprintf "arg %d executed exactly once" i)
      1
      (Option.value ~default:0 (Hashtbl.find_opt applied i))
  done;
  let replays =
    Sim.Stats.count (Sim.Stats.counter (S.stats w.sched) "target_dedup_replays")
  in
  check Alcotest.bool "dedup store replayed the executed calls" true (replays >= 3)

(* After a restart the surviving calls take fresh positions 0.. on the
   new channel while keeping their stable cids, so every resubmitted
   item carries a cid that differs from its position. Replies are still
   matched by position — each call gets its own result — and the dedup
   cache keeps every execution at one. *)
let test_resubmit_with_cids_off_position () =
  let w = make_world () in
  let applied : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let dispatch _conn ~seq:_ ~port:_ ~kind:_ ~args ~reply =
    ignore
      (S.spawn w.sched (fun () ->
           match args with
           | Xdr.Int i ->
               Hashtbl.replace applied i (1 + Option.value ~default:0 (Hashtbl.find_opt applied i));
               reply (W.W_normal (Xdr.Int (1000 + i)))
           | _ -> reply (W.W_failure "bad args")))
  in
  ignore (T.create w.hub_b ~gid:"svc" ~config:GC.(default |> with_dedup) dispatch : T.t);
  let stream =
    SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc"
      ~config:fast_cfg ()
  in
  SE.set_preserve_on_break stream true;
  let n = 6 in
  let results = Array.make n [] in
  let call i =
    ignore
      (SE.call stream ~port:"echo" ~kind:W.Call ~args:(Xdr.Int i)
         ~on_reply:(fun o -> results.(i) <- o :: results.(i))
        : (int * int, string) result)
  in
  ignore
    (S.spawn w.sched (fun () ->
         (* Two calls complete on the first incarnation: the survivors'
            cids (2..5) then sit two above their new positions (0..3). *)
         call 0;
         call 1;
         (match SE.synch stream with Ok () -> () | Error _ -> Alcotest.fail "first synch");
         for i = 2 to 4 do
           call i
         done;
         SE.flush stream;
         S.sleep w.sched 3e-3;
         Net.partition w.net (Net.address w.node_a) (Net.address w.node_b);
         call 5;
         SE.flush stream;
         while SE.broken stream = None do
           S.sleep w.sched 5e-3
         done;
         Net.heal w.net (Net.address w.node_a) (Net.address w.node_b);
         check Alcotest.int "four survivors resubmitted" 4 (SE.restart_resubmit stream);
         match SE.synch stream with
         | Ok () -> ()
         | Error `Exception_reply -> Alcotest.fail "unexpected exception reply"
         | Error (`Broken r) -> Alcotest.failf "stream broke again: %s" r));
  run_ok w;
  Array.iteri
    (fun i outcomes ->
      match outcomes with
      | [ W.W_normal (Xdr.Int v) ] ->
          check Alcotest.int (Printf.sprintf "call %d's own result" i) (1000 + i) v
      | _ -> Alcotest.failf "call %d resolved %d times or abnormally" i (List.length outcomes))
    results;
  for i = 0 to n - 1 do
    check Alcotest.int
      (Printf.sprintf "arg %d executed exactly once" i)
      1
      (Option.value ~default:0 (Hashtbl.find_opt applied i))
  done;
  check Alcotest.bool "dedup store replayed the calls executed before the break" true
    (Sim.Stats.count (Sim.Stats.counter (S.stats w.sched) "target_dedup_replays") >= 3)

(* A peer that sends more replies than there are pending calls: the
   extra positions match nothing and are dropped as stale — no break,
   no exception, and the real replies still land on their calls. *)
let test_surplus_replies_are_stale () =
  let w = make_world () in
  CH.on_connect w.hub_b ~label:"svc" (fun in_chan ->
      let key = CH.in_key in_chan in
      let reply = CH.connect w.hub_b ~dst:key.CH.src ~label:key.CH.meta ~meta:"" CH.rpc_config in
      let seen = ref 0 in
      CH.set_deliver in_chan (fun seq items ->
          List.iteri
            (fun k _ ->
              let send v = ignore (CH.send reply v : (unit, string) result) in
              send (W.reply_item ~trace:None (W.W_normal (Xdr.Int (10 * (seq + k)))));
              incr seen;
              if !seen = 2 then begin
                send (W.reply_item ~trace:None (W.W_normal (Xdr.Int 99)));
                send (W.send_ok_item ~trace:None);
                send (W.reply_item ~trace:(Some 5) (W.W_signal ("late", Xdr.Unit)))
              end)
            items));
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let got = Array.make 2 [] in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 0 to 1 do
           ignore
             (SE.call stream ~port:"p" ~kind:W.Call ~args:Xdr.Unit
                ~on_reply:(fun o -> got.(i) <- o :: got.(i))
               : (int * int, string) result)
         done;
         match SE.synch stream with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "synch failed"));
  run_ok w;
  check Alcotest.bool "call 0 got position 0's reply" true (got.(0) = [ W.W_normal (Xdr.Int 0) ]);
  check Alcotest.bool "call 1 got position 1's reply" true (got.(1) = [ W.W_normal (Xdr.Int 10) ]);
  check Alcotest.(option string) "surplus replies did not break the stream" None
    (SE.broken stream);
  check Alcotest.int "nothing outstanding" 0 (SE.outstanding stream)

let test_two_channels_do_not_interfere () =
  let w = make_world () in
  let got1 = ref [] and got2 = ref [] in
  CH.on_connect w.hub_b ~label:"one" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items -> got1 := !got1 @ ints_of_views items));
  CH.on_connect w.hub_b ~label:"two" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items -> got2 := !got2 @ ints_of_views items));
  let c1 = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"one" ~meta:"" CH.rpc_config in
  let c2 = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"two" ~meta:"" CH.rpc_config in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to 5 do
           ignore (CH.send c1 (Xdr.Int i) : (unit, string) result);
           ignore (CH.send c2 (Xdr.Int (100 + i)) : (unit, string) result)
         done));
  run_ok w;
  check Alcotest.(list int) "channel one" [ 1; 2; 3; 4; 5 ] !got1;
  check Alcotest.(list int) "channel two" [ 101; 102; 103; 104; 105 ] !got2

(* ------------------------------------------------------------------ *)
(* Unordered execution (the §2.1 override) *)

let test_unordered_target_overlaps_but_replies_in_order () =
  let w = make_world () in
  (* first call is slow, later ones fast: with ordered execution the
     total is the sum, with the override the fast ones run during the
     slow one. *)
  let started = ref [] in
  let dispatch _conn ~seq ~port:_ ~kind:_ ~args:_ ~reply =
    started := seq :: !started;
    ignore
      (S.spawn w.sched (fun () ->
           S.sleep w.sched (if seq = 0 then 10e-3 else 5e-3);
           reply (W.W_normal (Xdr.Int seq))))
  in
  ignore (T.create w.hub_b ~gid:"svc" ~config:GC.(default |> with_ordered false) dispatch : T.t);
  let stream = SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"svc" () in
  let reply_order = ref [] in
  let done_at = ref 0.0 in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 0 to 4 do
           ignore
             (SE.call stream ~port:"p" ~kind:W.Call ~args:(Xdr.Int i) ~on_reply:(fun o ->
                  match o with
                  | W.W_normal (Xdr.Int v) ->
                      reply_order := v :: !reply_order;
                      done_at := S.now w.sched
                  | _ -> ())
               : (int * int, string) result)
         done;
         SE.flush stream));
  run_ok w;
  check Alcotest.(list int) "replies released in call order" [ 0; 1; 2; 3; 4 ]
    (List.rev !reply_order);
  (* overlapped: total ~ slowest single call (10 ms) plus transport,
     not the 30 ms sum of sequential execution *)
  check Alcotest.bool "calls overlapped" true (!done_at < 20e-3)

(* ------------------------------------------------------------------ *)
(* Port tables (docs/WIRE.md §1.2): a call names its port once per
   channel, and both ends index it in channel order. *)

(* A target on hub b whose every port echoes its own name. *)
let install_port_echo w =
  let bad_refs () = Sim.Stats.peek (S.stats w.sched) "target_bad_port_refs" in
  ignore
    (T.create w.hub_b ~gid:"echo" (fun _conn ~seq:_ ~port ~kind:_ ~args:_ ~reply ->
         reply (W.W_normal (Xdr.Str port)))
      : T.t);
  bad_refs

let prop_ports_reach_their_handlers =
  QCheck.Test.make ~name:"calls over up to 300 ports reach the port they name, lossy net"
    ~count:12
    QCheck.(
      triple (int_bound 10_000) (int_range 1 300) (list_of_size Gen.(int_range 0 200) small_nat))
    (fun (seed, k, picks) ->
      let w = make_world ~cfg:(Net.lossy ~loss:0.1 ~dup:0.1 Net.default_config) ~seed () in
      let bad_refs = install_port_echo w in
      let stream = SE.create w.hub_a ~agent:"c" ~dst:(Net.address w.node_b) ~gid:"echo" () in
      (* Every port once in order (so k > 256 runs past the cap), then
         random repeats. *)
      let ports = List.init k Fun.id @ List.map (fun p -> p mod k) picks in
      let wrong = ref 0 and right = ref 0 in
      ignore
        (S.spawn w.sched (fun () ->
             List.iter
               (fun p ->
                 let port = Printf.sprintf "port-%03d" p in
                 ignore
                   (SE.call stream ~port ~kind:W.Call ~args:(Xdr.Int p) ~on_reply:(function
                      | W.W_normal (Xdr.Str got) when got = port -> incr right
                      | _ -> incr wrong)
                     : (int * int, string) result))
               ports;
             ignore (SE.synch stream : (unit, [ `Broken of string | `Exception_reply ]) result)));
      run_ok w;
      if !wrong > 0 || !right <> List.length ports || bad_refs () > 0 then
        QCheck.Test.fail_reportf "k=%d: %d echoed, %d wrong of %d; %d bad refs" k !right !wrong
          (List.length ports) (bad_refs ())
      else true)

(* [make_world] with every frame hub a sends logged. *)
let recording_world () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched Net.default_config in
  let node_a = Net.add_node net ~name:"a" in
  let node_b = Net.add_node net ~name:"b" in
  let tr = Transport_sim.endpoint net node_a in
  let sent = ref [] in
  let send ~dst frame =
    sent := frame :: !sent;
    tr.Transport.send ~dst frame
  in
  let logged = { tr with Transport.send } in
  let hub_a = CH.create_hub ~transport:logged () in
  let hub_b = CH.create_hub ~net:(net, node_b) () in
  ({ sched; net; node_a; node_b; hub_a; hub_b }, fun () -> List.rev !sent)

(* (channel idx, port) for every port define in these frames, without
   repeats: a retransmit resends the same define. *)
let port_defines frames =
  List.concat_map
    (fun f ->
      match CH.decode_packet f with
      | Ok (CH.Data { idx; items; _ }) ->
          List.filter_map
            (function
              | Xdr.List (Xdr.Int head :: Xdr.Str port :: _) when head land 0x40 <> 0 ->
                  Some (idx, port)
              | _ -> None)
            items
      | Ok _ | Error _ -> [])
    frames
  |> List.sort_uniq compare

(* The resubmitted calls go out on a fresh channel whose tables start
   empty, so they define their ports again — including "a", which the
   first incarnation had already defined and referenced. *)
let test_resubmit_redefines_ports () =
  let w, sent = recording_world () in
  let bad_refs = install_port_echo w in
  let stream =
    SE.create w.hub_a ~agent:"client" ~dst:(Net.address w.node_b) ~gid:"echo"
      ~config:fast_cfg ()
  in
  SE.set_preserve_on_break stream true;
  let echoes = ref [] in
  let call port =
    ignore
      (SE.call stream ~port ~kind:W.Call ~args:Xdr.Unit ~on_reply:(fun o ->
           echoes := (port, o) :: !echoes)
        : (int * int, string) result)
  in
  ignore
    (S.spawn w.sched (fun () ->
         call "a";
         (match SE.synch stream with Ok () -> () | Error _ -> Alcotest.fail "first call failed");
         Net.crash w.net w.node_b;
         call "a";
         call "b";
         SE.flush stream;
         while SE.broken stream = None do
           S.sleep w.sched 5e-3
         done;
         Net.recover w.net w.node_b;
         check Alcotest.int "both resubmitted" 2 (SE.restart_resubmit stream);
         match SE.synch stream with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "resubmitted calls failed"));
  run_ok w;
  check Alcotest.int "no bad refs" 0 (bad_refs ());
  List.iter
    (fun (port, o) ->
      check Alcotest.bool (port ^ " echoed") true (o = W.W_normal (Xdr.Str port)))
    !echoes;
  check Alcotest.int "three calls answered" 3 (List.length !echoes);
  match port_defines (sent ()) with
  | [ (i0, "a"); (i0', "b"); (i1, "a"); (i1', "b") ] when i0 = i0' && i1 = i1' && i0 < i1 -> ()
  | defs ->
      Alcotest.failf "defines per channel: %s"
        (String.concat ", " (List.map (fun (i, p) -> Printf.sprintf "%d:%s" i p) defs))

let suite =
  [
    ( "wire",
      [
        Alcotest.test_case "call roundtrip" `Quick test_wire_call_roundtrip;
        Alcotest.test_case "send kind roundtrip" `Quick test_wire_send_kind_roundtrip;
        Alcotest.test_case "reply roundtrips" `Quick test_wire_reply_roundtrips;
        Alcotest.test_case "send_ok parses as normal unit" `Quick
          test_wire_send_ok_parses_as_normal_unit;
        Alcotest.test_case "send_ok is compact" `Quick test_wire_send_ok_is_small;
        Alcotest.test_case "malformed rejected" `Quick test_wire_malformed_rejected;
      ] );
    ( "chanhub",
      [
        Alcotest.test_case "in-order delivery" `Quick test_chan_in_order_delivery;
        Alcotest.test_case "batching reduces messages" `Quick test_chan_batching_message_count;
        Alcotest.test_case "no batching: one message per item" `Quick
          test_chan_no_batching_message_count;
        Alcotest.test_case "flush interval fires" `Quick test_chan_flush_interval_fires;
        Alcotest.test_case "reliable under loss" `Quick test_chan_reliable_under_loss;
        Alcotest.test_case "reliable under duplication" `Quick test_chan_reliable_under_duplication;
        Alcotest.test_case "break on unreachable peer" `Quick test_chan_break_on_unreachable_peer;
        Alcotest.test_case "unknown label resets" `Quick test_chan_unknown_label_resets;
        Alcotest.test_case "receiver break" `Quick test_chan_receiver_break;
        Alcotest.test_case "send after break returns Error" `Quick
          test_chan_send_after_break_errors;
        QCheck_alcotest.to_alcotest prop_chan_reliable_any_seed;
        QCheck_alcotest.to_alcotest prop_chan_random_flush_interleavings;
        Alcotest.test_case "positions across a gap, a duplicate and a lost opening" `Quick
          test_chan_positions_across_gap_dup_and_lost_opening;
        QCheck_alcotest.to_alcotest prop_chan_positions_any_arrivals;
      ] );
    ( "stream",
      [
        Alcotest.test_case "call/reply" `Quick test_stream_call_reply;
        Alcotest.test_case "replies in call order" `Quick test_stream_replies_in_call_order;
        Alcotest.test_case "target executes in call order" `Quick
          test_target_executes_in_call_order;
        Alcotest.test_case "streams processed concurrently" `Quick
          test_streams_processed_concurrently;
        Alcotest.test_case "signal propagates" `Quick test_stream_signal_propagates;
        Alcotest.test_case "send gets compact ok" `Quick test_send_kind_gets_compact_ok;
        Alcotest.test_case "synch ok / exception_reply" `Quick test_synch_ok_and_exception_reply;
        Alcotest.test_case "synch waits for completion" `Quick test_synch_waits_for_completion;
        Alcotest.test_case "crash breaks stream" `Quick test_crash_breaks_stream_unavailable;
        Alcotest.test_case "call on broken stream fails fast" `Quick
          test_call_on_broken_stream_fails_immediately;
        Alcotest.test_case "restart reincarnates" `Quick test_restart_reincarnates;
        Alcotest.test_case "restarts leave no sending ends behind" `Quick
          test_restarts_leave_no_out_channels;
        Alcotest.test_case "receiver-initiated break" `Quick test_receiver_initiated_break;
        Alcotest.test_case "stream reliable under loss" `Quick test_stream_reliable_under_loss;
        Alcotest.test_case "partition breaks; heal+restart recovers" `Quick
          test_partition_breaks_then_restart_works;
        Alcotest.test_case "channels do not interfere" `Quick
          test_two_channels_do_not_interfere;
        Alcotest.test_case "unordered override overlaps, replies ordered" `Quick
          test_unordered_target_overlaps_but_replies_in_order;
        Alcotest.test_case "surplus replies are stale" `Quick test_surplus_replies_are_stale;
      ] );
    ( "supervision",
      [
        Alcotest.test_case "break during synch observes `Broken" `Quick
          test_break_during_synch_observes_broken;
        Alcotest.test_case "restart resolves in-flight exactly once" `Quick
          test_restart_inflight_resolves_each_exactly_once;
        Alcotest.test_case "resubmit preserves and replays calls" `Quick
          test_resubmit_preserves_and_replays_calls;
        Alcotest.test_case "resubmit dedups already-executed calls" `Quick
          test_resubmit_dedups_already_executed_calls;
        Alcotest.test_case "resubmit with cids off position" `Quick
          test_resubmit_with_cids_off_position;
        Alcotest.test_case "resubmits re-define their ports" `Quick
          test_resubmit_redefines_ports;
      ] );
    ( "port tables",
      [ QCheck_alcotest.to_alcotest prop_ports_reach_their_handlers ] );
  ]

let () = Alcotest.run "cstream" suite

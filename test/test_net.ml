(* Tests for the simulated network: delivery, cost model, FIFO links,
   loss/duplication, crashes and partitions. *)

module S = Sched.Scheduler

let check = Alcotest.check

type msg = M of int

let make ?(cfg = Net.default_config) ?(seed = 1) () =
  let sched = S.create ~seed () in
  let net : msg Net.t = Net.create sched cfg in
  let a = Net.add_node net ~name:"a" in
  let b = Net.add_node net ~name:"b" in
  (sched, net, a, b)

let run sched = ignore (S.run sched : S.outcome)

let test_delivery () =
  let sched, net, a, b = make () in
  let got = ref [] in
  Net.set_receiver net b (fun ~src (M i) -> got := (src, i) :: !got);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:10 (M 1);
  run sched;
  check Alcotest.(list (pair int int)) "delivered with src" [ (Net.address a, 1) ] !got

let test_delivery_delay () =
  let cfg =
    { Net.default_config with Net.kernel_overhead = 1e-3; wire_latency = 5e-3; per_byte = 1e-4 }
  in
  let sched, net, a, b = make ~cfg () in
  let at = ref 0.0 in
  Net.set_receiver net b (fun ~src:_ _ -> at := S.now sched);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:10 (M 1);
  run sched;
  (* 2 * 1ms overhead + 5ms latency + 10 bytes * 0.1ms = 8ms *)
  check (Alcotest.float 1e-9) "cost model" 8e-3 !at

let test_fifo_no_overtaking () =
  (* A small message sent after a large one must not arrive first. *)
  let sched, net, a, b = make () in
  let got = ref [] in
  Net.set_receiver net b (fun ~src:_ (M i) -> got := i :: !got);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:100_000 (M 1);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 2);
  run sched;
  check Alcotest.(list int) "FIFO link" [ 1; 2 ] (List.rev !got)

let test_crash_drops () =
  let sched, net, a, b = make () in
  let got = ref 0 in
  Net.set_receiver net b (fun ~src:_ _ -> incr got);
  Net.crash net b;
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 1);
  run sched;
  check Alcotest.int "dropped at crashed node" 0 !got;
  check Alcotest.int "counted" 1
    (Sim.Stats.count (Sim.Stats.counter (Net.stats net) "msgs_dropped_crash"));
  Net.recover net b;
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 2);
  run sched;
  check Alcotest.int "delivered after recovery" 1 !got

let test_crashed_sender_drops () =
  let sched, net, a, b = make () in
  let got = ref 0 in
  Net.set_receiver net b (fun ~src:_ _ -> incr got);
  Net.crash net a;
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 1);
  run sched;
  check Alcotest.int "nothing sent from crashed node" 0 !got

let test_inflight_lost_on_crash () =
  (* A message in flight when the destination crashes is lost. *)
  let sched, net, a, b = make () in
  let got = ref 0 in
  Net.set_receiver net b (fun ~src:_ _ -> incr got);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 1);
  (* crash before the ~1.1ms delivery *)
  S.at sched 0.5e-3 (fun () -> Net.crash net b);
  run sched;
  check Alcotest.int "in-flight message dropped" 0 !got

let test_partition_blocks_both_ways () =
  let sched, net, a, b = make () in
  let got_b = ref 0 and got_a = ref 0 in
  Net.set_receiver net b (fun ~src:_ _ -> incr got_b);
  Net.set_receiver net a (fun ~src:_ _ -> incr got_a);
  Net.partition net (Net.address a) (Net.address b);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 1);
  Net.send net ~src:b ~dst:(Net.address a) ~bytes_:1 (M 2);
  run sched;
  check Alcotest.int "a->b blocked" 0 !got_b;
  check Alcotest.int "b->a blocked" 0 !got_a;
  Net.heal net (Net.address a) (Net.address b);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 3);
  run sched;
  check Alcotest.int "healed" 1 !got_b

let test_partition_mid_flight () =
  let sched, net, a, b = make () in
  let got = ref 0 in
  Net.set_receiver net b (fun ~src:_ _ -> incr got);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 1);
  S.at sched 0.5e-3 (fun () -> Net.partition net (Net.address a) (Net.address b));
  run sched;
  check Alcotest.int "in-flight message lost to partition" 0 !got

let test_loss_rate_statistics () =
  let cfg = Net.lossy ~loss:0.5 Net.default_config in
  let sched, net, a, b = make ~cfg () in
  let got = ref 0 in
  Net.set_receiver net b (fun ~src:_ _ -> incr got);
  let n = 2000 in
  for i = 1 to n do
    Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M i)
  done;
  run sched;
  let rate = float_of_int !got /. float_of_int n in
  check Alcotest.bool "about half arrive" true (rate > 0.44 && rate < 0.56)

let test_duplicates_delivered_twice () =
  let cfg = Net.lossy ~loss:0.0 ~dup:1.0 Net.default_config in
  let sched, net, a, b = make ~cfg () in
  let got = ref 0 in
  Net.set_receiver net b (fun ~src:_ _ -> incr got);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 1);
  run sched;
  check Alcotest.int "delivered twice" 2 !got

let test_stats_counters () =
  let sched, net, a, b = make () in
  Net.set_receiver net b (fun ~src:_ _ -> ());
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:25 (M 1);
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:15 (M 2);
  run sched;
  let c name = Sim.Stats.count (Sim.Stats.counter (Net.stats net) name) in
  check Alcotest.int "msgs_sent" 2 (c "msgs_sent");
  check Alcotest.int "msgs_delivered" 2 (c "msgs_delivered");
  check Alcotest.int "bytes_sent" 40 (c "bytes_sent")

let test_no_receiver_counted () =
  let sched, net, a, b = make () in
  Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M 1);
  run sched;
  check Alcotest.int "dropped (no receiver)" 1
    (Sim.Stats.count (Sim.Stats.counter (Net.stats net) "msgs_dropped_no_receiver"))

let test_deterministic_with_seed () =
  let deliveries seed =
    let cfg = Net.lossy ~loss:0.3 { Net.default_config with Net.jitter = 1e-3 } in
    let sched, net, a, b = make ~cfg ~seed () in
    let got = ref [] in
    Net.set_receiver net b (fun ~src:_ (M i) -> got := (i, S.now sched) :: !got);
    for i = 1 to 50 do
      Net.send net ~src:a ~dst:(Net.address b) ~bytes_:i (M i)
    done;
    run sched;
    !got
  in
  check Alcotest.bool "same seed, same run" true (deliveries 7 = deliveries 7);
  check Alcotest.bool "different seed, different run" true (deliveries 7 <> deliveries 8)

let prop_jitter_never_reorders =
  QCheck.Test.make ~name:"FIFO preserved under jitter for any seed" ~count:50 QCheck.small_int
    (fun seed ->
      let cfg = { Net.default_config with Net.jitter = 5e-3 } in
      let sched, net, a, b = make ~cfg ~seed () in
      let got = ref [] in
      Net.set_receiver net b (fun ~src:_ (M i) -> got := i :: !got);
      for i = 1 to 30 do
        Net.send net ~src:a ~dst:(Net.address b) ~bytes_:1 (M i)
      done;
      run sched;
      List.rev !got = List.init 30 (fun i -> i + 1))

let suite =
  [
    ( "delivery",
      [
        Alcotest.test_case "basic" `Quick test_delivery;
        Alcotest.test_case "cost model delay" `Quick test_delivery_delay;
        Alcotest.test_case "FIFO link" `Quick test_fifo_no_overtaking;
        QCheck_alcotest.to_alcotest prop_jitter_never_reorders;
      ] );
    ( "failures",
      [
        Alcotest.test_case "crash drops" `Quick test_crash_drops;
        Alcotest.test_case "crashed sender" `Quick test_crashed_sender_drops;
        Alcotest.test_case "in-flight lost on crash" `Quick test_inflight_lost_on_crash;
        Alcotest.test_case "partition both ways" `Quick test_partition_blocks_both_ways;
        Alcotest.test_case "partition mid-flight" `Quick test_partition_mid_flight;
        Alcotest.test_case "loss rate" `Quick test_loss_rate_statistics;
        Alcotest.test_case "duplication" `Quick test_duplicates_delivered_twice;
      ] );
    ( "accounting",
      [
        Alcotest.test_case "stats counters" `Quick test_stats_counters;
        Alcotest.test_case "no receiver counted" `Quick test_no_receiver_counted;
        Alcotest.test_case "deterministic per seed" `Quick test_deterministic_with_seed;
      ] );
  ]

let () = Alcotest.run "net" suite

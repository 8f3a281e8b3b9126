(* Tests for the simulation substrate: heap, rng, stats. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_empty () =
  let h : int Sim.Heap.t = Sim.Heap.create () in
  check Alcotest.bool "empty" true (Sim.Heap.is_empty h);
  check Alcotest.int "length" 0 (Sim.Heap.length h);
  check Alcotest.bool "pop none" true (Sim.Heap.pop h = None);
  check Alcotest.bool "peek none" true (Sim.Heap.peek h = None)

let test_heap_order () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~prio:3.0 "c";
  Sim.Heap.push h ~prio:1.0 "a";
  Sim.Heap.push h ~prio:2.0 "b";
  check Alcotest.(option (pair (float 0.0) string)) "peek" (Some (1.0, "a")) (Sim.Heap.peek h);
  check Alcotest.(option (pair (float 0.0) string)) "pop a" (Some (1.0, "a")) (Sim.Heap.pop h);
  check Alcotest.(option (pair (float 0.0) string)) "pop b" (Some (2.0, "b")) (Sim.Heap.pop h);
  check Alcotest.(option (pair (float 0.0) string)) "pop c" (Some (3.0, "c")) (Sim.Heap.pop h);
  check Alcotest.bool "drained" true (Sim.Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun s -> Sim.Heap.push h ~prio:5.0 s) [ "first"; "second"; "third" ];
  let order = List.map snd (Sim.Heap.to_list h) in
  check Alcotest.(list string) "insertion order on ties" [ "first"; "second"; "third" ] order

let test_heap_interleaved () =
  let h = Sim.Heap.create () in
  Sim.Heap.push h ~prio:2.0 2;
  Sim.Heap.push h ~prio:1.0 1;
  check Alcotest.(option (pair (float 0.0) int)) "pop min" (Some (1.0, 1)) (Sim.Heap.pop h);
  Sim.Heap.push h ~prio:0.5 0;
  check Alcotest.(option (pair (float 0.0) int)) "new min" (Some (0.5, 0)) (Sim.Heap.pop h);
  check Alcotest.(option (pair (float 0.0) int)) "rest" (Some (2.0, 2)) (Sim.Heap.pop h)

let test_heap_clear () =
  let h = Sim.Heap.create () in
  for i = 1 to 100 do
    Sim.Heap.push h ~prio:(float_of_int i) i
  done;
  check Alcotest.int "length 100" 100 (Sim.Heap.length h);
  Sim.Heap.clear h;
  check Alcotest.bool "cleared" true (Sim.Heap.is_empty h);
  Sim.Heap.push h ~prio:1.0 7;
  check Alcotest.(option (pair (float 0.0) int)) "usable after clear" (Some (1.0, 7))
    (Sim.Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in nondecreasing priority order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun prios ->
      let h = Sim.Heap.create () in
      List.iteri (fun i p -> Sim.Heap.push h ~prio:p i) prios;
      let rec drain last =
        match Sim.Heap.pop h with
        | None -> true
        | Some (p, _) -> p >= last && drain p
      in
      drain neg_infinity)

let prop_heap_preserves_elements =
  QCheck.Test.make ~name:"heap is a permutation" ~count:200
    QCheck.(list (pair (float_bound_exclusive 100.0) small_int))
    (fun entries ->
      let h = Sim.Heap.create () in
      List.iter (fun (p, v) -> Sim.Heap.push h ~prio:p v) entries;
      let popped = List.map snd (Sim.Heap.to_list h) in
      List.sort compare popped = List.sort compare (List.map snd entries))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Sim.Rng.create ~seed:7 and b = Sim.Rng.create ~seed:7 in
  for _ = 1 to 50 do
    check Alcotest.int "same stream" (Sim.Rng.int a 1000) (Sim.Rng.int b 1000)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create ~seed:1 and b = Sim.Rng.create ~seed:2 in
  let sa = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  check Alcotest.bool "different seeds differ" true (sa <> sb)

let test_rng_split_independence () =
  let a = Sim.Rng.create ~seed:3 in
  let b = Sim.Rng.split a in
  let sa = List.init 20 (fun _ -> Sim.Rng.int a 1_000_000) in
  let sb = List.init 20 (fun _ -> Sim.Rng.int b 1_000_000) in
  check Alcotest.bool "split streams differ" true (sa <> sb)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let r = Sim.Rng.create ~seed in
      let v = Sim.Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"rng float in bounds" ~count:500 QCheck.small_int (fun seed ->
      let r = Sim.Rng.create ~seed in
      let v = Sim.Rng.float r 3.5 in
      v >= 0.0 && v < 3.5)

let test_rng_chance_extremes () =
  let r = Sim.Rng.create ~seed:11 in
  for _ = 1 to 20 do
    check Alcotest.bool "p=0 never" false (Sim.Rng.chance r 0.0);
    check Alcotest.bool "p=1 always" true (Sim.Rng.chance r 1.0)
  done

let test_rng_chance_rate () =
  let r = Sim.Rng.create ~seed:12 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Sim.Rng.chance r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "rate near 0.3" true (rate > 0.27 && rate < 0.33)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_counters () =
  let t = Sim.Stats.create () in
  let c = Sim.Stats.counter t "msgs" in
  Sim.Stats.incr c;
  Sim.Stats.incr c;
  Sim.Stats.add c 5;
  check Alcotest.int "count" 7 (Sim.Stats.count c);
  let c' = Sim.Stats.counter t "msgs" in
  Sim.Stats.incr c';
  check Alcotest.int "same counter by name" 8 (Sim.Stats.count c)

let test_stats_quantile () =
  let samples = [| 3.0; 1.0; 4.0; 2.0 |] in
  let q = Sim.Stats.quantile samples in
  check (Alcotest.float 1e-9) "median" 2.0 (q 0.5);
  check (Alcotest.float 1e-9) "q1.0" 4.0 (q 1.0);
  check (Alcotest.float 1e-9) "q0.0" 1.0 (q 0.0);
  check Alcotest.(array (float 0.0)) "samples untouched" [| 3.0; 1.0; 4.0; 2.0 |] samples

let test_stats_empty_quantile () =
  check Alcotest.bool "quantile nan" true (Float.is_nan (Sim.Stats.quantile [||] 0.5))

let test_stats_listing () =
  let t = Sim.Stats.create () in
  ignore (Sim.Stats.counter t "b");
  ignore (Sim.Stats.counter t "a");
  check
    Alcotest.(list (pair string int))
    "sorted by name"
    [ ("a", 0); ("b", 0) ]
    (Sim.Stats.counters t)

let prop_quantile_monotone =
  QCheck.Test.make ~name:"quantiles are monotone in q" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 100.0))
    (fun samples ->
      let q = Sim.Stats.quantile (Array.of_list samples) in
      q 0.25 <= q 0.5 && q 0.5 <= q 0.9)

let suite =
  [
    ( "heap",
      [
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "pops in priority order" `Quick test_heap_order;
        Alcotest.test_case "FIFO on equal priorities" `Quick test_heap_fifo_ties;
        Alcotest.test_case "interleaved push/pop" `Quick test_heap_interleaved;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        QCheck_alcotest.to_alcotest prop_heap_sorts;
        QCheck_alcotest.to_alcotest prop_heap_preserves_elements;
      ] );
    ( "rng",
      [
        Alcotest.test_case "deterministic per seed" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independence;
        Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
        Alcotest.test_case "chance rate" `Quick test_rng_chance_rate;
        QCheck_alcotest.to_alcotest prop_rng_int_bounds;
        QCheck_alcotest.to_alcotest prop_rng_float_bounds;
      ] );
    ( "stats",
      [
        Alcotest.test_case "counters" `Quick test_stats_counters;
        Alcotest.test_case "quantile" `Quick test_stats_quantile;
        Alcotest.test_case "empty quantile" `Quick test_stats_empty_quantile;
        Alcotest.test_case "listing sorted" `Quick test_stats_listing;
        QCheck_alcotest.to_alcotest prop_quantile_monotone;
      ] );
  ]

let () = Alcotest.run "sim" suite

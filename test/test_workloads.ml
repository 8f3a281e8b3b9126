(* Tests for the experiment harness: the table renderer, the CPU
   model, the fixtures, and — most importantly — that each experiment
   runs and its results have the shape the paper claims (these are the
   reproduction's acceptance tests). *)

module S = Sched.Scheduler
module W = Workloads

let check = Alcotest.check

(* --- Table --------------------------------------------------------- *)

let test_table_render () =
  let t =
    W.Table.make ~id:"T" ~title:"demo" ~header:[ "a"; "bb" ]
      ~notes:[ "a note" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let s = Format.asprintf "%a" W.Table.render t in
  check Alcotest.bool "has title" true (String.length s > 0);
  check Alcotest.bool "aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "333  4 ") lines)

let test_table_cells () =
  check Alcotest.string "ms" "1.500 ms" (W.Table.cell_ms 1.5e-3);
  check Alcotest.string "int" "42" (W.Table.cell_i 42);
  check Alcotest.string "float whole" "3" (W.Table.cell_f 3.0);
  check Alcotest.string "nan" "-" (W.Table.cell_f nan)

(* --- Timeline ------------------------------------------------------ *)

let test_timeline_render () =
  let lines =
    W.Timeline.render ~width:10 ~t_end:1.0
      [ ("a", [ (0.0, 0.5) ]); ("b", [ (0.5, 1.0) ]) ]
  in
  check Alcotest.int "two rows + axis" 3 (List.length lines);
  let row0 = List.nth lines 0 in
  check Alcotest.bool "first half busy" true
    (String.length row0 > 12
    && String.sub row0 12 5 = "#####"
    && String.sub row0 18 4 = "....")

let test_timeline_utilisation () =
  check (Alcotest.float 1e-9) "half" 0.5 (W.Timeline.utilisation ~t_end:1.0 [ (0.0, 0.5) ]);
  check (Alcotest.float 1e-9) "overlaps merged" 0.6
    (W.Timeline.utilisation ~t_end:1.0 [ (0.0, 0.5); (0.3, 0.6) ]);
  check (Alcotest.float 1e-9) "clamped to window" 1.0
    (W.Timeline.utilisation ~t_end:1.0 [ (-1.0, 2.0) ]);
  check (Alcotest.float 1e-9) "empty" 0.0 (W.Timeline.utilisation ~t_end:1.0 [])

let test_grades_overlap_measured () =
  (* The §4 claim, measured on busy intervals: under the coenter, the
     db's and printer's busy time overlaps substantially; under the
     Figure 3-1 loops it barely does. *)
  let svc = 0.3e-3 and produce = 0.3e-3 and n = 150 in
  let students = W.Fixtures.students n in
  let measure body =
    let w = W.Fixtures.make_grades_world ~db_service:svc ~print_service:svc () in
    let t_end = W.Fixtures.timed_run w.W.Fixtures.g_sched (fun () -> body w) in
    let u xs = W.Timeline.utilisation ~t_end xs in
    let db = !(w.W.Fixtures.g_db_busy) and pr = !(w.W.Fixtures.g_print_busy) in
    u db +. u pr -. u (db @ pr)
  in
  let fig31 w =
    let record_grade = W.Fixtures.db_handle w ~agent:"c-db" () in
    let print = W.Fixtures.print_handle w ~agent:"c-pr" () in
    let ps =
      List.map
        (fun s ->
          S.sleep w.W.Fixtures.g_sched produce;
          Core.Remote.stream_call record_grade s)
        students
    in
    Core.Remote.flush record_grade;
    List.iter2
      (fun (stu, _) p ->
        let avg = Core.Promise.claim_normal p ~on_signal:(fun _ -> nan) in
        Core.Remote.Call.(detach (make print (Printf.sprintf "%s %.1f" stu avg))))
      students ps;
    match Core.Remote.synch print with Ok () -> () | Error _ -> failwith "print"
  in
  let fig42 w =
    let record_grade = W.Fixtures.db_handle w ~agent:"c-db" () in
    let print = W.Fixtures.print_handle w ~agent:"c-pr" () in
    Core.Compose.producer_consumer w.W.Fixtures.g_sched
      ~produce:(fun emit ->
        List.iter
          (fun (stu, g) ->
            S.sleep w.W.Fixtures.g_sched produce;
            emit (stu, Core.Remote.stream_call record_grade (stu, g)))
          students;
        Core.Remote.flush record_grade;
        match Core.Remote.synch record_grade with Ok () -> () | Error _ -> failwith "db")
      ~consume:(fun (stu, p) ->
        let avg = Core.Promise.claim_normal p ~on_signal:(fun _ -> nan) in
        Core.Remote.Call.(detach (make print (Printf.sprintf "%s %.1f" stu avg))))
      ();
    match Core.Remote.synch print with Ok () -> () | Error _ -> failwith "print"
  in
  let o31 = measure fig31 and o42 = measure fig42 in
  check Alcotest.bool "coenter overlaps db and printer much more" true (o42 > 2.0 *. o31)

(* --- Cpu ----------------------------------------------------------- *)

let test_cpu_serialises () =
  let sched = S.create () in
  let cpu = W.Cpu.create sched ~cores:1 in
  for _ = 1 to 3 do
    ignore (S.spawn sched (fun () -> W.Cpu.consume cpu 1.0))
  done;
  ignore (S.run sched : S.outcome);
  check (Alcotest.float 1e-9) "serialised" 3.0 (S.now sched)

let test_cpu_parallelises () =
  let sched = S.create () in
  let cpu = W.Cpu.create sched ~cores:3 in
  for _ = 1 to 3 do
    ignore (S.spawn sched (fun () -> W.Cpu.consume cpu 1.0))
  done;
  ignore (S.run sched : S.outcome);
  check (Alcotest.float 1e-9) "parallel" 1.0 (S.now sched)

let test_cpu_zero_cost_noop () =
  let sched = S.create () in
  let cpu = W.Cpu.create sched ~cores:1 in
  ignore (S.spawn sched (fun () -> W.Cpu.consume cpu 0.0));
  ignore (S.run sched : S.outcome);
  check (Alcotest.float 1e-9) "free" 0.0 (S.now sched)

(* --- Fixtures ------------------------------------------------------ *)

let test_fixture_pair_roundtrip () =
  let pair = W.Fixtures.make_pair ~service:1e-3 () in
  let h = W.Fixtures.work_handle pair ~agent:"t" () in
  let got = ref None in
  let time =
    W.Fixtures.timed_run pair.W.Fixtures.sched (fun () -> got := Some (Core.Remote.rpc h 7))
  in
  check Alcotest.bool "echoed" true (!got = Some (Core.Promise.Normal 7));
  check Alcotest.bool "took at least the service time" true (time >= 1e-3)

let test_fixture_students_sorted_deterministic () =
  let s1 = W.Fixtures.students 10 and s2 = W.Fixtures.students 10 in
  check Alcotest.bool "deterministic" true (s1 = s2);
  let names = List.map fst s1 in
  check Alcotest.bool "sorted" true (List.sort compare names = names)

let test_timed_run_detects_deadlock () =
  let pair = W.Fixtures.make_pair () in
  match
    W.Fixtures.timed_run pair.W.Fixtures.sched (fun () ->
        ignore (S.suspend pair.W.Fixtures.sched (fun _ -> ()) : unit))
  with
  | (_ : float) -> Alcotest.fail "expected Deadlock"
  | exception W.Fixtures.Deadlock _ -> ()

(* --- Experiments: shapes of the paper's claims --------------------- *)

let find_row table pred =
  match List.find_opt pred table.W.Table.rows with
  | Some r -> r
  | None -> Alcotest.failf "row not found in %s" table.W.Table.id

let cell row i = List.nth row i

let ms_of_cell s = Scanf.sscanf s "%f ms" Fun.id

let test_e1_streams_beat_rpc () =
  let t = W.Exp_streams.e1 ~n:100 () in
  (* at 1 ms latency, every stream mode beats RPC, and larger batches
     send fewer messages *)
  let rpc = find_row t (fun r -> cell r 0 = "1.0" && cell r 1 = "RPC") in
  let b16 = find_row t (fun r -> cell r 0 = "1.0" && cell r 1 = "stream B=16") in
  check Alcotest.bool "stream faster" true
    (ms_of_cell (cell b16 2) < ms_of_cell (cell rpc 2));
  check Alcotest.bool "fewer messages" true
    (int_of_string (cell b16 4) < int_of_string (cell rpc 4))

let test_e2_bytes_shrink () =
  let t = W.Exp_streams.e2 ~n:100 () in
  let rpc = find_row t (fun r -> cell r 0 = "RPC") in
  let stream = find_row t (fun r -> cell r 0 = "stream B=16") in
  let send = find_row t (fun r -> cell r 0 = "send B=16") in
  let bytes r = int_of_string (cell r 2) in
  check Alcotest.bool "stream < rpc bytes" true (bytes stream < bytes rpc);
  check Alcotest.bool "send <= stream bytes" true (bytes send <= bytes stream)

let test_e3_overlap_grows () =
  let t = W.Exp_compose.e3 ~svc:0.3e-3 ~produce_cost:0.3e-3 () in
  let speedup n =
    let r = find_row t (fun r -> cell r 0 = string_of_int n) in
    Scanf.sscanf (cell r 3) "%fx" Fun.id
  in
  check Alcotest.bool "500 students speedup > 1.3" true (speedup 500 > 1.3);
  check Alcotest.bool "overlap grows with N" true (speedup 500 >= speedup 10)

let test_e4_per_item_only_wins_on_multiprocessor () =
  let t = W.Exp_compose.e4 ~n:60 () in
  let time filter cpus structure =
    let r =
      find_row t (fun r -> cell r 0 = filter && cell r 1 = cpus && cell r 2 = structure)
    in
    ms_of_cell (cell r 3)
  in
  (* per-stream never loses to staged loops *)
  check Alcotest.bool "per-stream <= staged (cheap filters)" true
    (time "0.0" "1" "per-stream" <= time "0.0" "1" "staged loops");
  (* expensive filters + 4 CPUs: per-item wins *)
  check Alcotest.bool "per-item wins on multiprocessor" true
    (time "0.5" "4" "per-item" < time "0.5" "4" "per-stream");
  (* but not on one CPU *)
  check Alcotest.bool "per-item no better on 1 CPU" true
    (time "0.5" "1" "per-item" >= time "0.5" "1" "per-stream" -. 1e-9)

let test_e5_forked_tree_scales () =
  let t = W.Exp_fork.e5 ~n:63 ~searches:10 () in
  let time cpus variant =
    let r = find_row t (fun r -> cell r 0 = cpus && cell r 1 = variant) in
    ms_of_cell (cell r 2)
  in
  check Alcotest.bool "16 CPUs much faster than 1" true
    (time "16" "forked promises" *. 4.0 < time "1" "forked promises");
  check Alcotest.bool "sequential does not scale" true
    (abs_float (time "16" "sequential" -. time "1" "sequential") < 1e-9)

let test_e6_fork_hangs_coenter_does_not () =
  let t = W.Exp_failure.e6 ~n:60 ~crash_at:2e-3 () in
  let fork_row = find_row t (fun r -> cell r 0 = "forks (fig 4-1)") in
  let coenter_row = find_row t (fun r -> cell r 0 = "coenter (fig 4-2)") in
  check Alcotest.bool "fork version hangs" true
    (String.length (cell fork_row 1) >= 5 && String.sub (cell fork_row 1) 0 5 = "HANGS");
  check Alcotest.bool "coenter version raises" true
    (String.length (cell coenter_row 1) >= 9
    && String.sub (cell coenter_row 1) 0 9 = "exception")

let test_e8_throughput_comparable () =
  let t = W.Exp_sendrecv.e8 ~n:200 () in
  let raw = find_row t (fun r -> cell r 0 = "send/receive (by hand)") in
  let prom = find_row t (fun r -> cell r 0 = "streams + promises") in
  let t_raw = ms_of_cell (cell raw 1) and t_prom = ms_of_cell (cell prom 1) in
  check Alcotest.bool "same ballpark (within 2x)" true
    (t_prom < 2.0 *. t_raw && t_raw < 2.0 *. t_prom);
  check Alcotest.bool "promises keep no user table" true (cell prom 2 = "0");
  check Alcotest.bool "send/receive tracks every call" true
    (int_of_string (cell raw 2) = 200)

let test_e9_flush_beats_timer () =
  let t = W.Exp_streams.e9 () in
  let latency timer mode =
    let r = find_row t (fun r -> cell r 0 = timer && cell r 1 = mode) in
    ms_of_cell (cell r 2)
  in
  check Alcotest.bool "flush beats 20ms timer" true
    (latency "20" "flush" < latency "20" "buffered (timer)");
  check Alcotest.bool "timer latency grows with interval" true
    (latency "20" "buffered (timer)" > latency "1" "buffered (timer)")

let test_a1_override_trades_order_for_time () =
  let t = W.Exp_ablation.a1 ~n:30 () in
  let row name = find_row t (fun r -> cell r 0 = name) in
  let ordered = row "in order (paper default)" in
  let conc = row "concurrent (override)" in
  check Alcotest.bool "override faster" true
    (ms_of_cell (cell conc 1) < ms_of_cell (cell ordered 1));
  check Alcotest.int "ordered executes in order" 0 (int_of_string (cell ordered 2));
  check Alcotest.bool "override reorders execution" true (int_of_string (cell conc 2) > 0);
  check Alcotest.int "replies stay ordered (paper default)" 0
    (int_of_string (cell ordered 3));
  check Alcotest.int "replies stay ordered (override)" 0 (int_of_string (cell conc 3))

let test_a2_policies () =
  let t = W.Exp_ablation.a2 ~n:100 () in
  let msgs name = int_of_string (cell (find_row t (fun r -> cell r 0 = name)) 2) in
  check Alcotest.bool "timer-only batches more than size-only" true
    (msgs "timer only (1 ms)" <= msgs "size only (B=16)")

let test_registry_runs_everything () =
  check Alcotest.bool "ids" true (W.Experiments.all_ids <> []);
  (* only check id dispatch (full runs are covered above) *)
  match W.Experiments.run "nope" with
  | (_ : W.Table.t) -> Alcotest.fail "unknown id accepted"
  | exception Not_found -> ()

let suite =
  [
    ( "table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "cells" `Quick test_table_cells;
      ] );
    ( "timeline",
      [
        Alcotest.test_case "render" `Quick test_timeline_render;
        Alcotest.test_case "utilisation" `Quick test_timeline_utilisation;
        Alcotest.test_case "grades overlap measured" `Quick test_grades_overlap_measured;
      ] );
    ( "cpu",
      [
        Alcotest.test_case "serialises" `Quick test_cpu_serialises;
        Alcotest.test_case "parallelises" `Quick test_cpu_parallelises;
        Alcotest.test_case "zero cost" `Quick test_cpu_zero_cost_noop;
      ] );
    ( "fixtures",
      [
        Alcotest.test_case "pair roundtrip" `Quick test_fixture_pair_roundtrip;
        Alcotest.test_case "students deterministic" `Quick
          test_fixture_students_sorted_deterministic;
        Alcotest.test_case "timed_run detects deadlock" `Quick test_timed_run_detects_deadlock;
      ] );
    ( "experiment-shapes",
      [
        Alcotest.test_case "E1: streams beat RPC" `Quick test_e1_streams_beat_rpc;
        Alcotest.test_case "E2: bytes shrink" `Quick test_e2_bytes_shrink;
        Alcotest.test_case "E3: overlap grows" `Quick test_e3_overlap_grows;
        Alcotest.test_case "E4: per-item needs multiprocessor" `Quick
          test_e4_per_item_only_wins_on_multiprocessor;
        Alcotest.test_case "E5: forked tree scales" `Quick test_e5_forked_tree_scales;
        Alcotest.test_case "E6: fork hangs, coenter doesn't" `Quick
          test_e6_fork_hangs_coenter_does_not;
        Alcotest.test_case "E8: comparable throughput, no user table" `Quick
          test_e8_throughput_comparable;
        Alcotest.test_case "E9: flush beats timer" `Quick test_e9_flush_beats_timer;
        Alcotest.test_case "A1: ordering ablation" `Quick
          test_a1_override_trades_order_for_time;
        Alcotest.test_case "A2: buffering ablation" `Quick test_a2_policies;
        Alcotest.test_case "registry" `Quick test_registry_runs_everything;
      ] );
  ]

let () = Alcotest.run "workloads" suite

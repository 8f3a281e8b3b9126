(* Tests for the fiber scheduler: suspension, virtual time, groups,
   wounding/critical sections, and the synchronisation primitives. *)

module S = Sched.Scheduler

let check = Alcotest.check

let run_ok t =
  match S.run t with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock with %d live fibers" (List.length fs)
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* ------------------------------------------------------------------ *)
(* Basic fiber execution *)

let test_spawn_runs () =
  let t = S.create () in
  let hit = ref false in
  ignore (S.spawn t (fun () -> hit := true));
  run_ok t;
  check Alcotest.bool "body ran" true !hit

let test_spawn_order_fifo () =
  let t = S.create () in
  let order = ref [] in
  let note x = order := x :: !order in
  ignore (S.spawn t (fun () -> note "a"));
  ignore (S.spawn t (fun () -> note "b"));
  ignore (S.spawn t (fun () -> note "c"));
  run_ok t;
  check Alcotest.(list string) "FIFO" [ "a"; "b"; "c" ] (List.rev !order)

let test_yield_interleaves () =
  let t = S.create () in
  let order = ref [] in
  let worker name =
    S.yield t;
    order := (name ^ "1") :: !order;
    S.yield t;
    order := (name ^ "2") :: !order
  in
  ignore (S.spawn t (fun () -> worker "a"));
  ignore (S.spawn t (fun () -> worker "b"));
  run_ok t;
  check Alcotest.(list string) "interleaved" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !order)

let test_fiber_result_finished () =
  let t = S.create () in
  let f = S.spawn t (fun () -> ()) in
  check Alcotest.bool "alive before run" true (S.alive f);
  run_ok t;
  check Alcotest.bool "finished" true (S.fiber_result f = Some S.Finished)

let test_fiber_result_failed () =
  let t = S.create () in
  let f = S.spawn t (fun () -> failwith "boom") in
  ignore (S.run t);
  match S.fiber_result f with
  | Some (S.Failed (Failure msg)) -> check Alcotest.string "exn kept" "boom" msg
  | _ -> Alcotest.fail "expected Failed"

let test_on_exit_fires_once () =
  let t = S.create () in
  let fires = ref 0 in
  ignore (S.spawn t ~on_exit:(fun _ -> incr fires) (fun () -> S.yield t));
  run_ok t;
  check Alcotest.int "one exit hook call" 1 !fires

(* ------------------------------------------------------------------ *)
(* Virtual time *)

let test_sleep_advances_clock () =
  let t = S.create () in
  let seen = ref (-1.0) in
  ignore
    (S.spawn t (fun () ->
         S.sleep t 1.5;
         seen := S.now t));
  run_ok t;
  check (Alcotest.float 1e-9) "time advanced" 1.5 !seen

let test_sleep_ordering () =
  let t = S.create () in
  let order = ref [] in
  ignore
    (S.spawn t (fun () ->
         S.sleep t 2.0;
         order := "late" :: !order));
  ignore
    (S.spawn t (fun () ->
         S.sleep t 1.0;
         order := "early" :: !order));
  run_ok t;
  check Alcotest.(list string) "by wakeup time" [ "early"; "late" ] (List.rev !order)

let test_at_event_fires () =
  let t = S.create () in
  let fired_at = ref (-1.0) in
  S.at t 3.0 (fun () -> fired_at := S.now t);
  run_ok t;
  check (Alcotest.float 1e-9) "event time" 3.0 !fired_at

let test_at_past_clamped () =
  let t = S.create () in
  let order = ref [] in
  ignore
    (S.spawn t (fun () ->
         S.sleep t 5.0;
         (* schedule "in the past" *)
         S.at t 1.0 (fun () -> order := S.now t :: !order)));
  run_ok t;
  check Alcotest.(list (float 1e-9)) "clamped to now" [ 5.0 ] !order

let test_run_until () =
  let t = S.create () in
  let hits = ref 0 in
  ignore
    (S.spawn t (fun () ->
         let rec loop () =
           S.sleep t 1.0;
           incr hits;
           loop ()
         in
         loop ()));
  (match S.run ~until:10.5 t with
  | S.Time_limit -> ()
  | S.Completed | S.Deadlocked _ -> Alcotest.fail "expected time limit");
  check Alcotest.int "ten ticks" 10 !hits;
  check (Alcotest.float 1e-9) "clock at limit" 10.5 (S.now t)

let test_simultaneous_events_fifo () =
  let t = S.create () in
  let order = ref [] in
  S.at t 1.0 (fun () -> order := "first" :: !order);
  S.at t 1.0 (fun () -> order := "second" :: !order);
  run_ok t;
  check Alcotest.(list string) "scheduling order" [ "first"; "second" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Suspend / wake *)

let test_suspend_wake_value () =
  let t = S.create () in
  let got = ref 0 in
  let saved = ref None in
  ignore (S.spawn t (fun () -> got := S.suspend t (fun w -> saved := Some w)));
  ignore
    (S.spawn t (fun () ->
         match !saved with
         | Some w -> check Alcotest.bool "delivered" true (S.wake w 42)
         | None -> Alcotest.fail "waker not registered"));
  run_ok t;
  check Alcotest.int "value passed" 42 !got

let test_wake_twice_is_noop () =
  let t = S.create () in
  let saved = ref None in
  ignore (S.spawn t (fun () -> ignore (S.suspend t (fun w -> saved := Some w) : int)));
  ignore
    (S.spawn t (fun () ->
         let w = Option.get !saved in
         check Alcotest.bool "first wake ok" true (S.wake w 1);
         check Alcotest.bool "second wake refused" false (S.wake w 2)));
  run_ok t

let test_wake_exn () =
  let t = S.create () in
  let saved = ref None in
  let caught = ref "" in
  ignore
    (S.spawn t (fun () ->
         try ignore (S.suspend t (fun w -> saved := Some w) : int)
         with Failure m -> caught := m));
  ignore (S.spawn t (fun () -> ignore (S.wake_exn (Option.get !saved) (Failure "bang") : bool)));
  run_ok t;
  check Alcotest.string "exception delivered" "bang" !caught

(* ------------------------------------------------------------------ *)
(* Kill, wounding, critical sections *)

let test_kill_suspended_fiber () =
  let t = S.create () in
  let cleaned = ref false in
  let victim =
    S.spawn t (fun () ->
        match S.suspend t (fun _ -> ()) with
        | () -> ()
        | exception S.Terminated ->
            cleaned := true;
            raise S.Terminated)
  in
  ignore
    (S.spawn t (fun () ->
         S.yield t;
         S.kill t victim));
  run_ok t;
  check Alcotest.bool "observed Terminated" true !cleaned;
  check Alcotest.bool "killed result" true (S.fiber_result victim = Some S.Killed)

let test_kill_before_first_run () =
  let t = S.create () in
  let ran = ref false in
  let victim = S.spawn t (fun () -> ran := true) in
  S.kill t victim;
  run_ok t;
  check Alcotest.bool "never ran" false !ran;
  check Alcotest.bool "killed" true (S.fiber_result victim = Some S.Killed)

let test_kill_running_takes_effect_at_next_point () =
  let t = S.create () in
  let reached_after = ref false in
  let victim =
    S.spawn t (fun () ->
        S.yield t;
        (* killed while runnable: the yield return path raises *)
        reached_after := true)
  in
  ignore (S.spawn t (fun () -> S.kill t victim));
  run_ok t;
  check Alcotest.bool "did not continue" false !reached_after

let test_critical_section_delays_kill () =
  let t = S.create () in
  let order = ref [] in
  let victim =
    S.spawn t (fun () ->
        S.enter_critical t;
        S.yield t;
        (* killed here, but protected *)
        S.yield t;
        order := "still alive in critical" :: !order;
        (try S.exit_critical t
         with S.Terminated ->
           order := "died on exit" :: !order;
           raise S.Terminated);
        order := "unreachable" :: !order)
  in
  ignore
    (S.spawn t (fun () ->
         S.yield t;
         S.kill t victim));
  run_ok t;
  check
    Alcotest.(list string)
    "wound deferred to critical exit"
    [ "still alive in critical"; "died on exit" ]
    (List.rev !order)

let test_wounded_flag () =
  let t = S.create () in
  let observed = ref false in
  let victim =
    S.spawn t (fun () ->
        S.enter_critical t;
        S.yield t;
        observed := S.wounded t;
        S.exit_critical t)
  in
  ignore (S.spawn t (fun () -> S.kill t victim));
  ignore (S.run t);
  check Alcotest.bool "wounded observed" true !observed

let test_kill_finished_noop () =
  let t = S.create () in
  let f = S.spawn t (fun () -> ()) in
  run_ok t;
  S.kill t f;
  check Alcotest.bool "still finished" true (S.fiber_result f = Some S.Finished)

(* ------------------------------------------------------------------ *)
(* Deadlock detection *)

let test_deadlock_detected () =
  let t = S.create () in
  ignore (S.spawn t ~name:"stuck" (fun () -> ignore (S.suspend t (fun _ -> ()) : unit)));
  match S.run t with
  | S.Deadlocked [ f ] -> check Alcotest.string "the stuck fiber" "stuck" (S.fiber_name f)
  | S.Deadlocked fs -> Alcotest.failf "expected 1 stuck fiber, got %d" (List.length fs)
  | S.Completed | S.Time_limit -> Alcotest.fail "expected deadlock"

(* ------------------------------------------------------------------ *)
(* Groups *)

let test_group_wait () =
  let t = S.create () in
  let g = S.Group.create t in
  let done_count = ref 0 in
  for i = 1 to 3 do
    ignore
      (S.Group.add_spawn t g (fun () ->
           S.sleep t (float_of_int i);
           incr done_count))
  done;
  let waited = ref false in
  ignore
    (S.spawn t (fun () ->
         S.Group.wait t g;
         check Alcotest.int "all members done" 3 !done_count;
         waited := true));
  run_ok t;
  check Alcotest.bool "waiter resumed" true !waited

let test_group_wait_empty () =
  let t = S.create () in
  let g = S.Group.create t in
  let passed = ref false in
  ignore
    (S.spawn t (fun () ->
         S.Group.wait t g;
         passed := true));
  run_ok t;
  check Alcotest.bool "immediate return" true !passed

let test_group_terminate () =
  let t = S.create () in
  let g = S.Group.create t in
  let survivors = ref 0 in
  for _ = 1 to 3 do
    ignore
      (S.Group.add_spawn t g (fun () ->
           S.sleep t 100.0;
           incr survivors))
  done;
  ignore
    (S.spawn t (fun () ->
         S.yield t;
         S.Group.terminate t g;
         S.Group.wait t g));
  run_ok t;
  check Alcotest.int "no survivors" 0 !survivors

let test_group_terminate_except_self () =
  let t = S.create () in
  let g = S.Group.create t in
  let log = ref [] in
  let rec sibling () =
    S.sleep t 100.0;
    sibling ()
  in
  ignore (S.Group.add_spawn t g ~name:"sib1" sibling);
  ignore (S.Group.add_spawn t g ~name:"sib2" sibling);
  ignore
    (S.Group.add_spawn t g ~name:"killer" (fun () ->
         S.yield t;
         (match S.current t with
         | Some self -> S.Group.terminate ~except:self t g
         | None -> Alcotest.fail "no current fiber");
         log := "killer survived" :: !log));
  run_ok t;
  check Alcotest.(list string) "killer survives" [ "killer survived" ] !log

let test_group_members_shrink () =
  let t = S.create () in
  let g = S.Group.create t in
  ignore (S.Group.add_spawn t g (fun () -> ()));
  ignore (S.Group.add_spawn t g (fun () -> S.sleep t 1.0));
  check Alcotest.int "two live" 2 (S.Group.live_count g);
  run_ok t;
  check Alcotest.int "none live" 0 (S.Group.live_count g)

(* ------------------------------------------------------------------ *)
(* Mutex *)

let test_mutex_exclusion () =
  let t = S.create () in
  let m = Sched.Mutex.create t in
  let inside = ref 0 and max_inside = ref 0 in
  let worker () =
    Sched.Mutex.with_lock m (fun () ->
        incr inside;
        if !inside > !max_inside then max_inside := !inside;
        S.sleep t 1.0;
        decr inside)
  in
  for _ = 1 to 4 do
    ignore (S.spawn t worker)
  done;
  run_ok t;
  check Alcotest.int "never two holders" 1 !max_inside

let test_mutex_fifo () =
  let t = S.create () in
  let m = Sched.Mutex.create t in
  let order = ref [] in
  let worker name =
    Sched.Mutex.with_lock m (fun () ->
        order := name :: !order;
        S.sleep t 1.0)
  in
  List.iter (fun n -> ignore (S.spawn t (fun () -> worker n))) [ "a"; "b"; "c" ];
  run_ok t;
  check Alcotest.(list string) "FIFO handover" [ "a"; "b"; "c" ] (List.rev !order)

let test_mutex_unlock_unlocked () =
  let t = S.create () in
  let m = Sched.Mutex.create t in
  let raised = ref false in
  ignore
    (S.spawn t (fun () ->
         try Sched.Mutex.unlock m with Invalid_argument _ -> raised := true));
  run_ok t;
  check Alcotest.bool "invalid unlock rejected" true !raised

let test_mutex_protects_against_kill () =
  (* A fiber killed while holding the lock finishes its critical
     section first (the paper's data-safety rule). *)
  let t = S.create () in
  let m = Sched.Mutex.create t in
  let finished_critical = ref false in
  let victim =
    S.spawn t (fun () ->
        Sched.Mutex.lock m;
        S.yield t;
        (* killed here *)
        finished_critical := true;
        Sched.Mutex.unlock m)
  in
  ignore
    (S.spawn t (fun () ->
         S.yield t;
         S.kill t victim));
  run_ok t;
  check Alcotest.bool "critical work completed before death" true !finished_critical;
  check Alcotest.bool "lock released" false (Sched.Mutex.locked m)

(* ------------------------------------------------------------------ *)
(* Condition *)

let test_condition_signal () =
  let t = S.create () in
  let m = Sched.Mutex.create t in
  let c = Sched.Condition.create t in
  let ready = ref false and seen = ref false in
  ignore
    (S.spawn t (fun () ->
         Sched.Mutex.with_lock m (fun () ->
             while not !ready do
               Sched.Condition.wait c m
             done;
             seen := true)));
  ignore
    (S.spawn t (fun () ->
         S.sleep t 1.0;
         Sched.Mutex.with_lock m (fun () -> ready := true);
         Sched.Condition.signal c));
  run_ok t;
  check Alcotest.bool "woken after signal" true !seen

let test_condition_broadcast () =
  let t = S.create () in
  let m = Sched.Mutex.create t in
  let c = Sched.Condition.create t in
  let ready = ref false and woken = ref 0 in
  for _ = 1 to 3 do
    ignore
      (S.spawn t (fun () ->
           Sched.Mutex.with_lock m (fun () ->
               while not !ready do
                 Sched.Condition.wait c m
               done;
               incr woken)))
  done;
  ignore
    (S.spawn t (fun () ->
         S.sleep t 1.0;
         Sched.Mutex.with_lock m (fun () -> ready := true);
         Sched.Condition.broadcast c));
  run_ok t;
  check Alcotest.int "all woken" 3 !woken

(* ------------------------------------------------------------------ *)
(* Bqueue *)

let test_bqueue_fifo () =
  let t = S.create () in
  let q = Sched.Bqueue.create t in
  let got = ref [] in
  ignore (S.spawn t (fun () -> List.iter (Sched.Bqueue.enq q) [ 1; 2; 3 ]));
  ignore
    (S.spawn t (fun () ->
         for _ = 1 to 3 do
           got := Sched.Bqueue.deq q :: !got
         done));
  run_ok t;
  check Alcotest.(list int) "FIFO" [ 1; 2; 3 ] (List.rev !got)

let test_bqueue_deq_blocks () =
  let t = S.create () in
  let q = Sched.Bqueue.create t in
  let got_at = ref (-1.0) in
  ignore
    (S.spawn t (fun () ->
         ignore (Sched.Bqueue.deq q : int);
         got_at := S.now t));
  ignore
    (S.spawn t (fun () ->
         S.sleep t 2.0;
         Sched.Bqueue.enq q 7));
  run_ok t;
  check (Alcotest.float 1e-9) "consumer waited" 2.0 !got_at

let test_bqueue_capacity_blocks_producer () =
  let t = S.create () in
  let q = Sched.Bqueue.create ~capacity:2 t in
  let produced = ref 0 in
  ignore
    (S.spawn t (fun () ->
         for i = 1 to 4 do
           Sched.Bqueue.enq q i;
           produced := i
         done));
  ignore
    (S.spawn t (fun () ->
         S.yield t;
         check Alcotest.int "producer blocked at capacity" 2 !produced;
         for _ = 1 to 4 do
           ignore (Sched.Bqueue.deq q : int)
         done));
  run_ok t;
  check Alcotest.int "all produced eventually" 4 !produced

let test_bqueue_close_unblocks_consumer () =
  let t = S.create () in
  let q : int Sched.Bqueue.t = Sched.Bqueue.create t in
  let closed_seen = ref false in
  ignore
    (S.spawn t (fun () ->
         match Sched.Bqueue.deq q with
         | _ -> ()
         | exception Sched.Bqueue.Closed -> closed_seen := true));
  ignore
    (S.spawn t (fun () ->
         S.sleep t 1.0;
         Sched.Bqueue.close q));
  run_ok t;
  check Alcotest.bool "Closed raised" true !closed_seen

let test_bqueue_close_drains_remaining () =
  let t = S.create () in
  let q = Sched.Bqueue.create t in
  let got = ref [] in
  ignore
    (S.spawn t (fun () ->
         Sched.Bqueue.enq q 1;
         Sched.Bqueue.enq q 2;
         Sched.Bqueue.close q));
  ignore
    (S.spawn t (fun () ->
         let rec loop () =
           match Sched.Bqueue.deq q with
           | v ->
               got := v :: !got;
               loop ()
           | exception Sched.Bqueue.Closed -> ()
         in
         loop ()));
  run_ok t;
  check Alcotest.(list int) "existing elements still delivered" [ 1; 2 ] (List.rev !got)

let test_bqueue_killed_consumer_does_not_lose_element () =
  let t = S.create () in
  let q = Sched.Bqueue.create t in
  let got = ref [] in
  let victim = S.spawn t (fun () -> got := ("victim", Sched.Bqueue.deq q) :: !got) in
  ignore (S.spawn t (fun () -> got := ("other", Sched.Bqueue.deq q) :: !got));
  ignore
    (S.spawn t (fun () ->
         S.yield t;
         S.kill t victim;
         Sched.Bqueue.enq q 42));
  run_ok t;
  check
    Alcotest.(list (pair string int))
    "element went to the live consumer" [ ("other", 42) ] !got

(* ------------------------------------------------------------------ *)
(* Semaphore *)

let test_semaphore_limits_concurrency () =
  let t = S.create () in
  let sem = Sched.Semaphore.create t 2 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 5 do
    ignore
      (S.spawn t (fun () ->
           Sched.Semaphore.with_permit sem (fun () ->
               incr inside;
               if !inside > !max_inside then max_inside := !inside;
               S.sleep t 1.0;
               decr inside)))
  done;
  run_ok t;
  check Alcotest.int "at most 2 inside" 2 !max_inside

let test_semaphore_models_parallel_speedup () =
  (* 4 unit-time jobs: 2 CPUs finish at t=2, 1 CPU at t=4. *)
  let elapsed cpus =
    let t = S.create () in
    let sem = Sched.Semaphore.create t cpus in
    for _ = 1 to 4 do
      ignore
        (S.spawn t (fun () -> Sched.Semaphore.with_permit sem (fun () -> S.sleep t 1.0)))
    done;
    run_ok t;
    S.now t
  in
  check (Alcotest.float 1e-9) "1 cpu" 4.0 (elapsed 1);
  check (Alcotest.float 1e-9) "2 cpus" 2.0 (elapsed 2);
  check (Alcotest.float 1e-9) "4 cpus" 1.0 (elapsed 4)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_sleep_sum =
  QCheck.Test.make ~name:"sequential sleeps sum exactly" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 20) (float_bound_exclusive 10.0))
    (fun sleeps ->
      let t = S.create () in
      ignore (S.spawn t (fun () -> List.iter (S.sleep t) sleeps));
      (match S.run t with S.Completed -> () | _ -> failwith "not completed");
      let expect = List.fold_left ( +. ) 0.0 sleeps in
      abs_float (S.now t -. expect) < 1e-6)

let prop_random_fiber_programs_complete =
  (* Random forests of fibers doing random sleeps and yields: the run
     always completes, and the clock ends at the longest fiber's total
     sleep (fibers run concurrently from t=0). *)
  QCheck.Test.make ~name:"random fiber programs complete; clock = max total sleep" ~count:80
    QCheck.(list_of_size (Gen.int_range 1 8)
              (list_of_size (Gen.int_range 0 6) (int_range 0 100)))
    (fun programs ->
      let t = S.create () in
      List.iter
        (fun steps ->
          ignore
            (S.spawn t (fun () ->
                 List.iter
                   (fun ms ->
                     if ms mod 3 = 0 then S.yield t
                     else S.sleep t (float_of_int ms *. 1e-3))
                   steps)))
        programs;
      match S.run t with
      | S.Completed ->
          let expected =
            List.fold_left
              (fun acc steps ->
                let total =
                  List.fold_left
                    (fun acc ms ->
                      if ms mod 3 = 0 then acc else acc +. (float_of_int ms *. 1e-3))
                    0.0 steps
                in
                Float.max acc total)
              0.0 programs
          in
          abs_float (S.now t -. expected) < 1e-9
      | S.Deadlocked _ | S.Time_limit -> false)

let prop_bqueue_order_preserved =
  QCheck.Test.make ~name:"bqueue preserves order under concurrency" ~count:100
    QCheck.(list small_int)
    (fun items ->
      let t = S.create () in
      let q = Sched.Bqueue.create t in
      let out = ref [] in
      ignore
        (S.spawn t (fun () ->
             List.iter
               (fun v ->
                 Sched.Bqueue.enq q v;
                 S.yield t)
               items;
             Sched.Bqueue.close q));
      ignore
        (S.spawn t (fun () ->
             let rec loop () =
               match Sched.Bqueue.deq q with
               | v ->
                   out := v :: !out;
                   loop ()
               | exception Sched.Bqueue.Closed -> ()
             in
             loop ()));
      (match S.run t with S.Completed -> () | _ -> failwith "not completed");
      List.rev !out = items)

let suite =
  [
    ( "fibers",
      [
        Alcotest.test_case "spawn runs body" `Quick test_spawn_runs;
        Alcotest.test_case "spawn order FIFO" `Quick test_spawn_order_fifo;
        Alcotest.test_case "yield interleaves" `Quick test_yield_interleaves;
        Alcotest.test_case "result finished" `Quick test_fiber_result_finished;
        Alcotest.test_case "result failed keeps exn" `Quick test_fiber_result_failed;
        Alcotest.test_case "on_exit fires once" `Quick test_on_exit_fires_once;
      ] );
    ( "time",
      [
        Alcotest.test_case "sleep advances clock" `Quick test_sleep_advances_clock;
        Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
        Alcotest.test_case "at fires at time" `Quick test_at_event_fires;
        Alcotest.test_case "past events clamped" `Quick test_at_past_clamped;
        Alcotest.test_case "run until" `Quick test_run_until;
        Alcotest.test_case "simultaneous events FIFO" `Quick test_simultaneous_events_fifo;
        QCheck_alcotest.to_alcotest prop_sleep_sum;
        QCheck_alcotest.to_alcotest prop_random_fiber_programs_complete;
      ] );
    ( "suspend-wake",
      [
        Alcotest.test_case "value delivery" `Quick test_suspend_wake_value;
        Alcotest.test_case "double wake is no-op" `Quick test_wake_twice_is_noop;
        Alcotest.test_case "wake with exception" `Quick test_wake_exn;
      ] );
    ( "kill",
      [
        Alcotest.test_case "kill suspended" `Quick test_kill_suspended_fiber;
        Alcotest.test_case "kill before first run" `Quick test_kill_before_first_run;
        Alcotest.test_case "kill runnable" `Quick test_kill_running_takes_effect_at_next_point;
        Alcotest.test_case "critical section delays kill" `Quick test_critical_section_delays_kill;
        Alcotest.test_case "wounded flag" `Quick test_wounded_flag;
        Alcotest.test_case "kill finished no-op" `Quick test_kill_finished_noop;
        Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
      ] );
    ( "groups",
      [
        Alcotest.test_case "wait" `Quick test_group_wait;
        Alcotest.test_case "wait on empty" `Quick test_group_wait_empty;
        Alcotest.test_case "terminate" `Quick test_group_terminate;
        Alcotest.test_case "terminate except self" `Quick test_group_terminate_except_self;
        Alcotest.test_case "members shrink" `Quick test_group_members_shrink;
      ] );
    ( "mutex",
      [
        Alcotest.test_case "mutual exclusion" `Quick test_mutex_exclusion;
        Alcotest.test_case "FIFO handover" `Quick test_mutex_fifo;
        Alcotest.test_case "unlock when unlocked" `Quick test_mutex_unlock_unlocked;
        Alcotest.test_case "kill deferred while held" `Quick test_mutex_protects_against_kill;
      ] );
    ( "condition",
      [
        Alcotest.test_case "signal" `Quick test_condition_signal;
        Alcotest.test_case "broadcast" `Quick test_condition_broadcast;
      ] );
    ( "bqueue",
      [
        Alcotest.test_case "FIFO" `Quick test_bqueue_fifo;
        Alcotest.test_case "deq blocks" `Quick test_bqueue_deq_blocks;
        Alcotest.test_case "capacity blocks producer" `Quick test_bqueue_capacity_blocks_producer;
        Alcotest.test_case "close unblocks consumer" `Quick test_bqueue_close_unblocks_consumer;
        Alcotest.test_case "close drains remaining" `Quick test_bqueue_close_drains_remaining;
        Alcotest.test_case "killed consumer loses nothing" `Quick
          test_bqueue_killed_consumer_does_not_lose_element;
        QCheck_alcotest.to_alcotest prop_bqueue_order_preserved;
      ] );
    ( "semaphore",
      [
        Alcotest.test_case "limits concurrency" `Quick test_semaphore_limits_concurrency;
        Alcotest.test_case "models parallel speedup" `Quick test_semaphore_models_parallel_speedup;
      ] );
  ]

let () = Alcotest.run "sched" suite

(* Tests for the core promise library: promises, typed remote calls,
   fork, coenter, composition — and the guardian layer they run
   against. Includes the paper's grades example (Figures 3-1 and 4-2)
   and the fork-composition termination problem (Figure 4-1). *)

module S = Sched.Scheduler
module P = Core.Promise
module CH = Cstream.Chanhub

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* ------------------------------------------------------------------ *)
(* Promise basics *)

let test_promise_blocked_then_ready () =
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  check Alcotest.bool "blocked" false (P.ready p);
  check Alcotest.bool "peek none" true (P.peek p = None);
  P.resolve p (P.Normal 7);
  check Alcotest.bool "ready" true (P.ready p);
  check Alcotest.bool "peek" true (P.peek p = Some (P.Normal 7))

let test_promise_claim_blocks_until_ready () =
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  let got = ref 0 and at = ref 0.0 in
  ignore
    (S.spawn sched (fun () ->
         (match P.claim p with P.Normal v -> got := v | _ -> Alcotest.fail "not normal");
         at := S.now sched));
  ignore
    (S.spawn sched (fun () ->
         S.sleep sched 2.0;
         P.resolve p (P.Normal 9)));
  run_ok sched;
  check Alcotest.int "value" 9 !got;
  check (Alcotest.float 1e-9) "claim waited" 2.0 !at

let test_promise_multi_claim_same_outcome () =
  (* "A promise can be claimed multiple times; the same outcome will
     occur each time" (§3). *)
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  let results = ref [] in
  let claim_once () =
    (* Bind before consing: [claim] suspends, and the cons must read
       [results] after resumption, not before. *)
    let o = P.claim p in
    results := o :: !results
  in
  for _ = 1 to 3 do
    ignore (S.spawn sched claim_once)
  done;
  ignore (S.spawn sched (fun () -> P.resolve p (P.Normal 5)));
  run_ok sched;
  (* claim again after ready *)
  ignore (S.spawn sched claim_once);
  run_ok sched;
  check Alcotest.int "four claims" 4 (List.length !results);
  List.iter (fun o -> check Alcotest.bool "same" true (o = P.Normal 5)) !results

let test_promise_resolve_twice_rejected () =
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  P.resolve p (P.Normal 1);
  match P.resolve p (P.Normal 2) with
  | () -> Alcotest.fail "second resolve must be rejected"
  | exception Invalid_argument _ -> ()

let test_promise_claim_normal_dispatch () =
  let sched = S.create () in
  let trail = ref [] in
  ignore
    (S.spawn sched (fun () ->
         let normal : (int, string) P.t = P.resolved sched (P.Normal 1) in
         trail := ("normal", P.claim_normal normal ~on_signal:(fun _ -> -1)) :: !trail;
         let signaled : (int, string) P.t = P.resolved sched (P.Signal "boom") in
         trail := ("signal", P.claim_normal signaled ~on_signal:(fun _ -> 42)) :: !trail;
         let unavail : (int, string) P.t = P.resolved sched (P.Unavailable "down") in
         (try ignore (P.claim_normal unavail ~on_signal:(fun _ -> -1) : int)
          with P.Unavailable_exn r -> trail := ("unavailable:" ^ r, 0) :: !trail);
         let failed : (int, string) P.t = P.resolved sched (P.Failure "dead") in
         try ignore (P.claim_normal failed ~on_signal:(fun _ -> -1) : int)
         with P.Failure_exn r -> trail := ("failure:" ^ r, 0) :: !trail));
  run_ok sched;
  check
    Alcotest.(list (pair string int))
    "dispatch"
    [ ("normal", 1); ("signal", 42); ("unavailable:down", 0); ("failure:dead", 0) ]
    (List.rev !trail)

let test_promise_claim_timeout () =
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  let first = ref None and second = ref None and resolved_at = ref 0.0 in
  ignore
    (S.spawn sched (fun () ->
         (* Times out: the promise is still blocked at t=1. *)
         first := Some (P.claim_timeout p ~timeout:1.0);
         check Alcotest.bool "promise still blocked after timeout" false (P.ready p);
         (* The real outcome lands at t=2; this claim sees it at once. *)
         second := Some (P.claim_timeout p ~timeout:10.0);
         resolved_at := S.now sched));
  ignore
    (S.spawn sched (fun () ->
         S.sleep sched 2.0;
         P.resolve p (P.Normal 3)));
  run_ok sched;
  (match !first with
  | Some (P.Unavailable _) -> ()
  | _ -> Alcotest.fail "first claim should time out as Unavailable");
  (match !second with
  | Some (P.Normal 3) -> ()
  | _ -> Alcotest.fail "second claim should see the real outcome");
  check (Alcotest.float 1e-9) "woken by resolve, not the timer" 2.0 !resolved_at;
  (* A claim on an already-ready promise never invents a timeout. *)
  ignore
    (S.spawn sched (fun () ->
         match P.claim_timeout p ~timeout:0.0 with
         | P.Normal 3 -> ()
         | _ -> Alcotest.fail "ready promise must return its outcome"));
  run_ok sched

let test_promise_claim_timeout_racing_claimants () =
  (* Several fibers claim the same promise with staggered timeouts
     while the resolve lands in the middle of the stagger: claimants
     whose deadline passed first degrade to Unavailable, everyone still
     waiting at resolve time gets the real value at that instant, and a
     timed-out claimant's re-claim sees the real value too. First-wake-
     wins must hold per claimant — no outcome is delivered twice and
     the losing timer is a no-op. *)
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  let outcomes : (float * float * (int, Core.Sigs.nothing) P.outcome) list ref = ref [] in
  let claimant timeout =
    ignore
      (S.spawn sched (fun () ->
           let o = P.claim_timeout p ~timeout in
           outcomes := (timeout, S.now sched, o) :: !outcomes))
  in
  List.iter claimant [ 1.0; 2.0; 4.0; 6.0; 9.0 ];
  let reclaim = ref None in
  ignore
    (S.spawn sched (fun () ->
         (* The same fiber that timed out comes back for the value. *)
         (match P.claim_timeout p ~timeout:2.0 with
         | P.Unavailable _ -> ()
         | _ -> Alcotest.fail "short claim should have timed out");
         (* Bind before reading the clock: the claim suspends first. *)
         let o = P.claim_timeout p ~timeout:60.0 in
         reclaim := Some (o, S.now sched)));
  ignore
    (S.spawn sched (fun () ->
         S.sleep sched 5.0;
         P.resolve p (P.Normal 42)));
  run_ok sched;
  List.iter
    (fun (timeout, at, o) ->
      if timeout < 5.0 then begin
        check (Alcotest.float 1e-9) (Printf.sprintf "timeout %.0f fired on time" timeout)
          timeout at;
        match o with
        | P.Unavailable _ -> ()
        | _ -> Alcotest.failf "timeout %.0f should degrade to Unavailable" timeout
      end
      else begin
        check (Alcotest.float 1e-9)
          (Printf.sprintf "timeout %.0f woken by the resolve" timeout)
          5.0 at;
        check Alcotest.bool
          (Printf.sprintf "timeout %.0f sees the value" timeout)
          true
          (o = P.Normal 42)
      end)
    !outcomes;
  check Alcotest.int "every claimant completed exactly once" 5 (List.length !outcomes);
  (match !reclaim with
  | Some (P.Normal 42, at) -> check (Alcotest.float 1e-9) "re-claim woken by resolve" 5.0 at
  | _ -> Alcotest.fail "timed-out claimant's re-claim must get the real value");
  check Alcotest.bool "promise ready exactly once" true (P.peek p = Some (P.Normal 42))

let test_promise_claim_deadline_expired () =
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  ignore
    (S.spawn sched (fun () ->
         S.sleep sched 5.0;
         (* Deadline already in the past: degrade immediately. *)
         match P.claim_deadline p ~deadline:1.0 with
         | P.Unavailable _ -> check (Alcotest.float 1e-9) "no wait" 5.0 (S.now sched)
         | _ -> Alcotest.fail "expired deadline should be Unavailable"));
  run_ok sched

let test_promise_map_all_both () =
  let sched = S.create () in
  ignore
    (S.spawn sched (fun () ->
         let p : (int, string) P.t = P.resolved sched (P.Normal 10) in
         let doubled = P.map sched (fun x -> 2 * x) p in
         check Alcotest.bool "map" true (P.claim doubled = P.Normal 20);
         let q = P.resolved sched (P.Normal 5) in
         check Alcotest.bool "both" true (P.claim (P.both sched p q) = P.Normal (10, 5));
         let bad : (int, string) P.t = P.resolved sched (P.Signal "s") in
         check Alcotest.bool "both failure" true (P.claim (P.both sched p bad) = P.Signal "s");
         let xs = List.map (fun i -> P.resolved sched (P.Normal i)) [ 1; 2; 3 ] in
         check Alcotest.bool "all" true
           (P.claim (P.all sched xs) = (P.Normal [ 1; 2; 3 ] : (int list, string) P.outcome));
         check Alcotest.bool "all empty" true
           (P.claim (P.all sched ([] : (int, string) P.t list)) = P.Normal [])));
  run_ok sched

let test_promise_on_ready_after_resolve () =
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  P.resolve p (P.Normal 3);
  let hits = ref 0 in
  P.on_ready p (fun _ -> incr hits);
  P.on_ready p (fun _ -> incr hits);
  check Alcotest.int "hooks fire immediately when ready" 2 !hits

let test_promise_hooks_fire_in_registration_order () =
  let sched = S.create () in
  let p : (int, Core.Sigs.nothing) P.t = P.create sched in
  let order = ref [] in
  P.on_ready p (fun _ -> order := 1 :: !order);
  P.on_ready p (fun _ -> order := 2 :: !order);
  P.resolve p (P.Normal 0);
  check Alcotest.(list int) "registration order" [ 1; 2 ] (List.rev !order)

let test_promise_all_reports_first_failure () =
  let sched = S.create () in
  ignore
    (S.spawn sched (fun () ->
         let ps : (int, string) P.t list =
           [
             P.resolved sched (P.Normal 1);
             P.resolved sched (P.Unavailable "down");
             P.resolved sched (P.Signal "later");
           ]
         in
         match P.claim (P.all sched ps) with
         | P.Unavailable "down" -> ()
         | _ -> Alcotest.fail "first non-normal outcome should win"));
  run_ok sched

(* ------------------------------------------------------------------ *)
(* Fork *)

let test_fork_normal () =
  let sched = S.create () in
  let got = ref None in
  ignore
    (S.spawn sched (fun () ->
         let p = Core.Fork.fork sched (fun () -> Ok (6 * 7)) in
         got := Some (P.claim p)));
  run_ok sched;
  check Alcotest.bool "normal result" true (!got = Some (P.Normal 42))

let test_fork_runs_in_parallel () =
  let sched = S.create () in
  let finished_at = ref 0.0 in
  ignore
    (S.spawn sched (fun () ->
         let slow () =
           S.sleep sched 5.0;
           Ok ()
         in
         let p1 = Core.Fork.fork sched slow in
         let p2 = Core.Fork.fork sched slow in
         ignore (P.claim p1 : (unit, Core.Sigs.nothing) P.outcome);
         ignore (P.claim p2 : (unit, Core.Sigs.nothing) P.outcome);
         finished_at := S.now sched));
  run_ok sched;
  check (Alcotest.float 1e-9) "parallel, not sequential" 5.0 !finished_at

let test_fork_signal () =
  let sched = S.create () in
  let got = ref None in
  ignore
    (S.spawn sched (fun () ->
         let p = Core.Fork.fork sched (fun () -> Error `Cannot_record) in
         got := Some (P.claim p)));
  run_ok sched;
  check Alcotest.bool "signal propagated" true (!got = Some (P.Signal `Cannot_record))

let test_fork_crash_is_failure () =
  let sched = S.create () in
  let got = ref None in
  ignore
    (S.spawn sched (fun () ->
         let p : (unit, Core.Sigs.nothing) P.t =
           Core.Fork.fork sched (fun () -> failwith "bug in fork body")
         in
         got := Some (P.claim p)));
  run_ok sched;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    scan 0
  in
  match !got with
  | Some (P.Failure reason) ->
      check Alcotest.bool "mentions the bug" true (contains reason "bug in fork body")
  | _ -> Alcotest.fail "expected Failure"

let test_fork_killed_is_failure () =
  let sched = S.create () in
  let got = ref None in
  ignore
    (S.spawn sched (fun () ->
         let group = S.Group.create sched in
         let p : (unit, Core.Sigs.nothing) P.t =
           Core.Fork.fork sched ~group (fun () ->
               S.sleep sched 100.0;
               Ok ())
         in
         S.sleep sched 1.0;
         S.Group.terminate sched group;
         got := Some (P.claim p)));
  run_ok sched;
  check Alcotest.bool "terminated fork resolves its promise" true
    (!got = Some (P.Failure "process terminated"))

(* Promise-tree search: §3.2's example of forked promises in recursive
   data structures. *)
type ptree = T of ((int * ptree * ptree) option, Core.Sigs.nothing) P.t

let test_fork_promise_tree () =
  let sched = S.create () in
  let found = ref [] in
  ignore
    (S.spawn sched (fun () ->
         (* Build a binary search tree whose nodes are promises computed
            by forked insertions. *)
         let rec build lo hi =
           if lo > hi then T (P.resolved sched (P.Normal None))
           else
             T
               (Core.Fork.fork sched (fun () ->
                    let mid = (lo + hi) / 2 in
                    S.sleep sched 0.001;
                    Ok (Some (mid, build lo (mid - 1), build (mid + 1) hi))))
         in
         let tree = build 0 31 in
         let rec search (T p) key =
           match P.claim p with
           | P.Normal None -> false
           | P.Normal (Some (k, l, r)) ->
               if key = k then true else if key < k then search l key else search r key
           | P.Signal _ | P.Unavailable _ | P.Failure _ -> false
         in
         found := List.map (search tree) [ 0; 13; 31; 99 ]));
  run_ok sched;
  check Alcotest.(list bool) "searches" [ true; true; true; false ] !found

(* ------------------------------------------------------------------ *)
(* Coenter *)

let test_coenter_waits_for_all_arms () =
  let sched = S.create () in
  let finished = ref 0 and after = ref (-1) in
  ignore
    (S.spawn sched (fun () ->
         Core.Coenter.coenter sched
           [
             (fun () ->
               S.sleep sched 1.0;
               incr finished);
             (fun () ->
               S.sleep sched 3.0;
               incr finished);
           ];
         after := !finished));
  run_ok sched;
  check Alcotest.int "both arms done before continuing" 2 !after

let test_coenter_exception_terminates_siblings () =
  let sched = S.create () in
  let sibling_done = ref false and caught = ref "" in
  ignore
    (S.spawn sched (fun () ->
         (try
            Core.Coenter.coenter sched
              [
                (fun () ->
                  S.sleep sched 100.0;
                  sibling_done := true);
                (fun () ->
                  S.sleep sched 1.0;
                  failwith "arm failed");
              ]
          with Failure m -> caught := m);
         check Alcotest.bool "sibling was terminated" false !sibling_done));
  run_ok sched;
  check Alcotest.string "exception propagated to parent" "arm failed" !caught

let test_coenter_empty () =
  let sched = S.create () in
  let passed = ref false in
  ignore
    (S.spawn sched (fun () ->
         Core.Coenter.coenter sched [];
         passed := true));
  run_ok sched;
  check Alcotest.bool "empty coenter returns" true !passed

let test_coenter_foreach_dynamic () =
  let sched = S.create () in
  let total = ref 0 in
  ignore
    (S.spawn sched (fun () ->
         Core.Coenter.coenter_foreach sched [ 1; 2; 3; 4 ] (fun i ->
             S.sleep sched (float_of_int i);
             total := !total + i)));
  run_ok sched;
  check Alcotest.int "all items processed" 10 !total

let test_coenter_termination_respects_critical_sections () =
  let sched = S.create () in
  let mutex = Sched.Mutex.create sched in
  let protected_completed = ref false in
  ignore
    (S.spawn sched (fun () ->
         try
           Core.Coenter.coenter sched
             [
               (fun () ->
                 Sched.Mutex.lock mutex;
                 S.sleep sched 5.0;
                 (* kill arrives at t=1 but we hold the lock *)
                 protected_completed := true;
                 Sched.Mutex.unlock mutex);
               (fun () ->
                 S.sleep sched 1.0;
                 failwith "die");
             ]
         with Failure _ -> ()));
  run_ok sched;
  check Alcotest.bool "critical work finished before termination" true !protected_completed;
  check Alcotest.bool "mutex released" false (Sched.Mutex.locked mutex)

(* ------------------------------------------------------------------ *)
(* Sequencer / per-item composition *)

let test_sequencer_orders_turns () =
  let sched = S.create () in
  let order = ref [] in
  ignore
    (S.spawn sched (fun () ->
         let seq = Core.Sequencer.create sched in
         Core.Coenter.coenter_foreach sched [ 3; 0; 2; 1 ] (fun i ->
             (* arrive in scrambled order, pass in index order *)
             S.sleep sched (float_of_int (4 - i) *. 0.01);
             Core.Sequencer.with_turn seq i (fun () -> order := i :: !order))));
  run_ok sched;
  check Alcotest.(list int) "turn order" [ 0; 1; 2; 3 ] (List.rev !order)

let test_sequencer_releases_turn_on_failure () =
  let sched = S.create () in
  let reached = ref false in
  ignore
    (S.spawn sched (fun () ->
         let seq = Core.Sequencer.create sched in
         (try
            Core.Sequencer.with_turn seq 0 (fun () -> failwith "stage failed")
          with Failure _ -> ());
         Core.Sequencer.with_turn seq 1 (fun () -> reached := true)));
  run_ok sched;
  check Alcotest.bool "turn 1 still reachable" true !reached

(* ------------------------------------------------------------------ *)
(* Compose *)

let test_producer_consumer_overlaps () =
  let sched = S.create () in
  let consumed = ref [] in
  let first_consumed_at = ref infinity in
  let producer_done_at = ref 0.0 in
  ignore
    (S.spawn sched (fun () ->
         Core.Compose.producer_consumer sched
           ~produce:(fun emit ->
             for i = 1 to 5 do
               S.sleep sched 1.0;
               emit i
             done;
             producer_done_at := S.now sched)
           ~consume:(fun i ->
             if !first_consumed_at = infinity then first_consumed_at := S.now sched;
             consumed := i :: !consumed)
           ()));
  run_ok sched;
  check Alcotest.(list int) "order preserved" [ 1; 2; 3; 4; 5 ] (List.rev !consumed);
  check Alcotest.bool "consumption started before production finished" true
    (!first_consumed_at < !producer_done_at)

let test_producer_exception_stops_consumer () =
  let sched = S.create () in
  let caught = ref false in
  ignore
    (S.spawn sched (fun () ->
         try
           Core.Compose.producer_consumer sched
             ~produce:(fun emit ->
               emit 1;
               failwith "producer broke")
             ~consume:(fun _ -> ())
             ()
         with Failure _ -> caught := true));
  run_ok sched;
  check Alcotest.bool "composition terminated as a group" true !caught

let test_pipeline3_flows () =
  let sched = S.create () in
  let out = ref [] in
  ignore
    (S.spawn sched (fun () ->
         Core.Compose.pipeline3 sched
           ~stage1:(fun emit -> List.iter emit [ 1; 2; 3 ])
           ~stage2:(fun x emit -> emit (x * 10))
           ~stage3:(fun y -> out := y :: !out)
           ()));
  run_ok sched;
  check Alcotest.(list int) "cascade output" [ 10; 20; 30 ] (List.rev !out)

let test_per_item_keeps_stage_order () =
  let sched = S.create () in
  let stage_log = Array.make 2 [] in
  ignore
    (S.spawn sched (fun () ->
         Core.Compose.per_item sched
           ~items:[ "a"; "b"; "c"; "d" ]
           ~nstages:2
           ~stages:(fun item i seqs ->
             (* Random-ish per-item delays try to scramble the order. *)
             S.sleep sched (float_of_int ((7 * i) mod 5) *. 0.01);
             Core.Sequencer.with_turn seqs.(0) i (fun () ->
                 stage_log.(0) <- item :: stage_log.(0));
             S.sleep sched (float_of_int ((3 * i) mod 4) *. 0.01);
             Core.Sequencer.with_turn seqs.(1) i (fun () ->
                 stage_log.(1) <- item :: stage_log.(1)))));
  run_ok sched;
  check Alcotest.(list string) "stage 0 in item order" [ "a"; "b"; "c"; "d" ]
    (List.rev stage_log.(0));
  check Alcotest.(list string) "stage 1 in item order" [ "a"; "b"; "c"; "d" ]
    (List.rev stage_log.(1))

(* ------------------------------------------------------------------ *)
(* Compose extras *)

let test_producer_consumer_bounded_backpressure () =
  let sched = S.create () in
  let max_gap = ref 0 in
  let produced = ref 0 and consumed = ref 0 in
  ignore
    (S.spawn sched (fun () ->
         Core.Compose.producer_consumer sched ~capacity:3
           ~produce:(fun emit ->
             for i = 1 to 20 do
               emit i;
               incr produced;
               let gap = !produced - !consumed in
               if gap > !max_gap then max_gap := gap
             done)
           ~consume:(fun _ ->
             S.sleep sched 1.0;
             incr consumed)
           ()));
  run_ok sched;
  check Alcotest.int "all consumed" 20 !consumed;
  (* capacity 3 plus the element in the consumer's hands *)
  check Alcotest.bool "bounded gap" true (!max_gap <= 4)

let test_consumer_exception_stops_producer () =
  let sched = S.create () in
  let produced = ref 0 and caught = ref false in
  ignore
    (S.spawn sched (fun () ->
         try
           Core.Compose.producer_consumer sched ~capacity:2
             ~produce:(fun emit ->
               for i = 1 to 1000 do
                 emit i;
                 incr produced
               done)
             ~consume:(fun i -> if i = 3 then failwith "consumer died")
             ()
         with Failure _ -> caught := true));
  run_ok sched;
  check Alcotest.bool "propagated" true !caught;
  check Alcotest.bool "producer was terminated early" true (!produced < 1000)

let suite =
  [
    ( "promise",
      [
        Alcotest.test_case "blocked then ready" `Quick test_promise_blocked_then_ready;
        Alcotest.test_case "claim blocks until ready" `Quick test_promise_claim_blocks_until_ready;
        Alcotest.test_case "multi-claim same outcome" `Quick test_promise_multi_claim_same_outcome;
        Alcotest.test_case "resolve twice rejected" `Quick test_promise_resolve_twice_rejected;
        Alcotest.test_case "claim_normal dispatch" `Quick test_promise_claim_normal_dispatch;
        Alcotest.test_case "claim_timeout degrades to Unavailable" `Quick
          test_promise_claim_timeout;
        Alcotest.test_case "claim_timeout racing claimants vs late resolve" `Quick
          test_promise_claim_timeout_racing_claimants;
        Alcotest.test_case "claim_deadline in the past" `Quick
          test_promise_claim_deadline_expired;
        Alcotest.test_case "map/all/both" `Quick test_promise_map_all_both;
        Alcotest.test_case "on_ready after resolve" `Quick test_promise_on_ready_after_resolve;
        Alcotest.test_case "hooks in registration order" `Quick
          test_promise_hooks_fire_in_registration_order;
        Alcotest.test_case "all reports first failure" `Quick
          test_promise_all_reports_first_failure;
      ] );
    ( "fork",
      [
        Alcotest.test_case "normal result" `Quick test_fork_normal;
        Alcotest.test_case "runs in parallel" `Quick test_fork_runs_in_parallel;
        Alcotest.test_case "signal" `Quick test_fork_signal;
        Alcotest.test_case "crash is failure" `Quick test_fork_crash_is_failure;
        Alcotest.test_case "killed is failure" `Quick test_fork_killed_is_failure;
        Alcotest.test_case "promise tree (§3.2)" `Quick test_fork_promise_tree;
      ] );
    ( "coenter",
      [
        Alcotest.test_case "waits for all arms" `Quick test_coenter_waits_for_all_arms;
        Alcotest.test_case "exception terminates siblings" `Quick
          test_coenter_exception_terminates_siblings;
        Alcotest.test_case "empty" `Quick test_coenter_empty;
        Alcotest.test_case "foreach (dynamic arms)" `Quick test_coenter_foreach_dynamic;
        Alcotest.test_case "respects critical sections" `Quick
          test_coenter_termination_respects_critical_sections;
      ] );
    ( "sequencer",
      [
        Alcotest.test_case "orders turns" `Quick test_sequencer_orders_turns;
        Alcotest.test_case "releases turn on failure" `Quick
          test_sequencer_releases_turn_on_failure;
      ] );
    ( "compose",
      [
        Alcotest.test_case "producer/consumer overlaps" `Quick test_producer_consumer_overlaps;
        Alcotest.test_case "producer exception stops consumer" `Quick
          test_producer_exception_stops_consumer;
        Alcotest.test_case "three-stage cascade" `Quick test_pipeline3_flows;
        Alcotest.test_case "per-item keeps stage order" `Quick test_per_item_keeps_stage_order;
        Alcotest.test_case "bounded queue back-pressure" `Quick
          test_producer_consumer_bounded_backpressure;
        Alcotest.test_case "consumer exception stops producer" `Quick
          test_consumer_exception_stops_producer;
      ] );
  ]

let () = Alcotest.run "core" suite

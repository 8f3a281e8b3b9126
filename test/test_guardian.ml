(* End-to-end tests through the typed layer: guardians + typed remote
   calls + promises, including the paper's running example (grades) in
   its three forms: Figure 3-1 (two sequential loops), Figure 4-1
   (forks — with its termination problem), Figure 4-2 (coenter). *)

module S = Sched.Scheduler
module P = Core.Promise
module R = Core.Remote
module CH = Cstream.Chanhub
module G = Argus.Guardian
module GC = Cstream.Group_config

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* ------------------------------------------------------------------ *)
(* Fixture: a grades database guardian and a printer guardian. *)

type db_err = No_such_student of string

let db_err_codec =
  Core.Sigs.(
    empty_signals
    |> signal_case ~name:"no_such_student" Xdr.string
         ~inj:(fun s -> No_such_student s)
         ~proj:(fun (No_such_student s) -> Some s))

(* record_grade: port (string, int) returns (real) signals (no_such_student) *)
let record_grade_sig =
  Core.Sigs.hsig "record_grade"
    ~arg:(Xdr.pair Xdr.string Xdr.int)
    ~res:Xdr.real ~signals_c:db_err_codec ()

(* print: port (string) returns () *)
let print_sig = Core.Sigs.hsig0 "print" ~arg:Xdr.string ~res:Xdr.unit

type world = {
  sched : S.t;
  net : CH.frame Net.t;
  client_node : Net.node;
  db_node : Net.node;
  printer_node : Net.node;
  client_hub : CH.hub;
  db : G.t;
  printer : G.t;
  printed : string list ref;
  recorded : (string, int list) Hashtbl.t;
}

let make_world ?(cfg = Net.default_config) ?(db_service = 0.0) ?(print_service = 0.0) () =
  let sched = S.create () in
  let net = Net.create sched cfg in
  let client_node = Net.add_node net ~name:"client" in
  let db_node = Net.add_node net ~name:"db" in
  let printer_node = Net.add_node net ~name:"printer" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let db_hub = CH.create_hub ~net:(net, db_node) () in
  let printer_hub = CH.create_hub ~net:(net, printer_node) () in
  let db = G.create db_hub ~name:"grades-db" in
  let printer = G.create printer_hub ~name:"printer" in
  let recorded : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  G.register db ~group:"grades" record_grade_sig (fun ctx (stu, grade) ->
      if db_service > 0.0 then S.sleep ctx.G.sched db_service;
      if stu = "" then Error (No_such_student stu)
      else begin
        let old = Option.value ~default:[] (Hashtbl.find_opt recorded stu) in
        Hashtbl.replace recorded stu (grade :: old);
        let grades = grade :: old in
        let avg =
          float_of_int (List.fold_left ( + ) 0 grades) /. float_of_int (List.length grades)
        in
        Ok avg
      end);
  let printed = ref [] in
  G.register printer ~group:"output" print_sig (fun ctx line ->
      if print_service > 0.0 then S.sleep ctx.G.sched print_service;
      printed := line :: !printed;
      Ok ());
  {
    sched; net; client_node; db_node; printer_node; client_hub; db; printer; printed; recorded;
  }

let agent w name = Core.Agent.create w.client_hub ~name ()

let db_handle w ag = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" record_grade_sig

let print_handle w ag = R.bind ag ~dst:(Net.address w.printer_node) ~gid:"output" print_sig

(* ------------------------------------------------------------------ *)
(* Typed calls *)

let test_rpc_normal () =
  let w = make_world () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = db_handle w (agent w "c") in
         got := Some (R.rpc h ("ben", 90))));
  run_ok w.sched;
  match !got with
  | Some (P.Normal avg) -> check (Alcotest.float 1e-9) "average" 90.0 avg
  | _ -> Alcotest.fail "expected Normal"

let test_rpc_signal_typed () =
  let w = make_world () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = db_handle w (agent w "c") in
         got := Some (R.rpc h ("", 50))));
  run_ok w.sched;
  match !got with
  | Some (P.Signal (No_such_student "")) -> ()
  | _ -> Alcotest.fail "expected typed signal"

let test_promises_ready_in_order () =
  (* "if the i+1st result is ready, then so is the ith" (§3). Checked
     at every scheduling point by a monitor fiber. *)
  let w = make_world ~db_service:1e-3 () in
  let violations = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         let h = db_handle w (agent w "c") in
         let promises = Array.init 10 (fun i -> R.stream_call h ("stu", i)) in
         R.flush h;
         (* monitor: scan for readiness inversions until all ready *)
         let rec monitor () =
           let all_ready = ref true in
           for i = 0 to 8 do
             if P.ready promises.(i + 1) && not (P.ready promises.(i)) then incr violations;
             if not (P.ready promises.(i)) then all_ready := false
           done;
           if not (P.ready promises.(9)) then all_ready := false;
           if not !all_ready then begin
             S.sleep w.sched 1e-4;
             monitor ()
           end
         in
         monitor ()));
  run_ok w.sched;
  check Alcotest.int "no readiness inversions" 0 !violations

let test_encode_failure_no_promise () =
  let w = make_world () in
  let bad_sig =
    {
      record_grade_sig with
      Core.Sigs.arg_c = Xdr.failing_encode ~every:1 (Xdr.pair Xdr.string Xdr.int);
    }
  in
  let raised = ref false in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" bad_sig in
         try ignore (R.stream_call h ("x", 1) : (float, db_err) P.t)
         with P.Failure_exn _ -> raised := true));
  run_ok w.sched;
  check Alcotest.bool "raised immediately, no promise" true !raised

let test_decode_failure_breaks_stream () =
  (* The receiver fails to decode the argument: the call gets failure
     "could not decode" and the stream breaks; a later call gets
     unavailable (§3, stream-call semantics step 3/4). *)
  let w = make_world () in
  let bad_sig =
    {
      record_grade_sig with
      Core.Sigs.arg_c =
        {
          (Xdr.pair Xdr.string Xdr.int) with
          Xdr.decode = (fun _ -> Error "user decode bug");
        };
    }
  in
  G.register w.db ~group:"grades" bad_sig (fun _ _ -> Ok 0.0);
  let o1 = ref None and o2 = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" bad_sig in
         let p1 = R.stream_call h ("a", 1) in
         let p2 = R.stream_call h ("b", 2) in
         R.flush h;
         o1 := Some (P.claim p1);
         o2 := Some (P.claim p2)));
  run_ok w.sched;
  (match !o1 with
  | Some (P.Failure reason) ->
      check Alcotest.bool "mentions decode" true
        (String.length reason >= 16 && String.sub reason 0 16 = "could not decode")
  | _ -> Alcotest.fail "expected decode failure");
  match !o2 with
  | Some (P.Unavailable _) -> ()
  | _ -> Alcotest.fail "expected unavailable after break"

let test_result_encode_failure_breaks_stream () =
  let w = make_world () in
  let bad_sig =
    { record_grade_sig with Core.Sigs.res_c = Xdr.failing_encode ~every:1 Xdr.real }
  in
  G.register w.db ~group:"grades" bad_sig (fun _ _ -> Ok 1.0);
  let o1 = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" bad_sig in
         o1 := Some (R.rpc h ("a", 1))));
  run_ok w.sched;
  match !o1 with
  | Some (P.Failure _) -> ()
  | _ -> Alcotest.fail "expected failure for unencodable result"

let test_handler_does_not_exist () =
  let w = make_world () in
  let ghost_sig = Core.Sigs.hsig0 "no_such_port" ~arg:Xdr.unit ~res:Xdr.unit in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" ghost_sig in
         got := Some (R.rpc h ())));
  run_ok w.sched;
  match !got with
  | Some (P.Failure "handler does not exist") -> ()
  | _ -> Alcotest.fail "expected failure(handler does not exist)"

let test_handler_crash_is_failure_not_break () =
  let w = make_world () in
  let crash_sig = Core.Sigs.hsig0 "crash" ~arg:Xdr.unit ~res:Xdr.unit in
  G.register w.db ~group:"grades" crash_sig (fun _ () -> failwith "handler bug");
  let o1 = ref None and o2 = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let hc = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" crash_sig in
         let hg = db_handle w ag in
         o1 := Some (R.rpc hc ());
         (* the stream survives a handler crash *)
         o2 := Some (R.rpc hg ("ben", 80))));
  run_ok w.sched;
  (match !o1 with
  | Some (P.Failure _) -> ()
  | _ -> Alcotest.fail "crash should be failure");
  match !o2 with
  | Some (P.Normal _) -> ()
  | _ -> Alcotest.fail "stream should survive a handler crash"

let test_wounded_fiber_cannot_call () =
  let w = make_world () in
  let observed = ref false in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let h = db_handle w ag in
         try
           Core.Coenter.coenter w.sched
             [
               (fun () ->
                 S.enter_critical w.sched;
                 S.sleep w.sched 2.0;
                 (* wounded by the sibling's failure at t=1 *)
                 (try ignore (R.stream_call h ("x", 1) : (float, db_err) P.t)
                  with S.Terminated ->
                    observed := true;
                    S.exit_critical w.sched;
                    raise S.Terminated);
                 S.exit_critical w.sched);
               (fun () ->
                 S.sleep w.sched 1.0;
                 failwith "make sibling wounded");
             ]
         with Failure _ -> ()));
  ignore (S.run w.sched);
  check Alcotest.bool "wounded process may not make remote calls" true !observed

let test_orphan_destroyed_on_stream_restart () =
  let w = make_world ~db_service:10.0 () in
  let started = ref false in
  let slow_sig = Core.Sigs.hsig0 "slow" ~arg:Xdr.unit ~res:Xdr.unit in
  let handler_fate = ref None in
  G.register w.db ~group:"grades" slow_sig (fun ctx () ->
      started := true;
      match S.sleep ctx.G.sched 1000.0 with
      | () -> Ok ()
      | exception S.Terminated ->
          handler_fate := Some "destroyed";
          raise S.Terminated);
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" slow_sig in
         ignore (R.stream_call h () : (unit, Core.Sigs.nothing) P.t);
         R.flush h;
         S.sleep w.sched 1.0;
         (* abandon the computation: restart the stream *)
         Cstream.Stream_end.restart (R.stream h)));
  ignore (S.run ~until:50.0 w.sched);
  check Alcotest.bool "handler had started" true !started;
  check Alcotest.(option string) "orphan destroyed" (Some "destroyed") !handler_fate

(* ------------------------------------------------------------------ *)
(* Supervision: dedup + circuit breaker *)

module Sup = Core.Supervisor

let bump_sig = Core.Sigs.hsig0 "bump" ~arg:Xdr.int ~res:Xdr.int

(* Fast break detection so outages turn into supervisor work quickly. *)
let fast_chan_cfg =
  { CH.default_config with CH.max_batch = 4; flush_interval = 0.5e-3; retransmit_timeout = 4e-3; max_retries = 3 }

let fast_sup_cfg =
  {
    Sup.backoff_base = 5e-3;
    backoff_factor = 2.0;
    backoff_max = 0.05;
    backoff_jitter = 0.2;
    retry_budget = 20;
    open_timeout = 0.1;
  }

let test_dedup_exactly_once_under_dup_and_crash () =
  (* The transport duplicates aggressively AND the guardian's node
     crashes mid-run: between chanhub-level dup suppression and the
     target's cross-incarnation call-id cache, the handler still
     observes each op at most once — and every op acknowledged Normal
     exactly once. *)
  let w = make_world ~cfg:(Net.lossy ~loss:0.0 ~dup:0.3 Net.default_config) () in
  G.register_group w.db ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  let seen : (int, int) Hashtbl.t = Hashtbl.create 64 in
  G.register w.db ~group:"ctr" bump_sig (fun ctx op ->
      S.sleep ctx.G.sched 0.2e-3;
      Hashtbl.replace seen op (1 + Option.value ~default:0 (Hashtbl.find_opt seen op));
      Ok op);
  S.at w.sched 10e-3 (fun () -> Net.crash w.net w.db_node);
  S.at w.sched 30e-3 (fun () -> Net.recover w.net w.db_node);
  let n = 30 in
  let outcomes : (int, (int, Core.Sigs.nothing) P.outcome) Hashtbl.t = Hashtbl.create 64 in
  let rejected = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = Core.Agent.create w.client_hub ~name:"c" ~config:fast_chan_cfg () in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"ctr" bump_sig in
         let sup =
           Sup.supervise_agent ~config:fast_sup_cfg ag ~dst:(Net.address w.db_node) ~gid:"ctr"
         in
         let promises = ref [] in
         for op = 0 to n - 1 do
           (match R.stream_call h op with
           | p -> promises := (op, p) :: !promises
           | exception P.Unavailable_exn _ -> incr rejected);
           S.sleep w.sched 2e-3
         done;
         R.flush h;
         List.iter
           (fun (op, p) -> Hashtbl.replace outcomes op (P.claim p))
           (List.rev !promises);
         Sup.stop sup));
  run_ok w.sched;
  Hashtbl.iter
    (fun op c -> check Alcotest.int (Printf.sprintf "op %d executed once" op) 1 c)
    seen;
  let normal = ref 0 in
  Hashtbl.iter
    (fun op o ->
      match o with
      | P.Normal _ ->
          incr normal;
          check Alcotest.int
            (Printf.sprintf "acknowledged op %d applied exactly once" op)
            1
            (Option.value ~default:0 (Hashtbl.find_opt seen op))
      | P.Signal _ | P.Unavailable _ | P.Failure _ -> ())
    outcomes;
  check Alcotest.bool "calls succeeded around the outage" true (!normal > 0);
  check Alcotest.int "every op accounted for" n (Hashtbl.length outcomes + !rejected)

let test_supervisor_circuit_opens_then_recovers () =
  let w = make_world () in
  G.register_group w.db ~group:"ctr"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  G.register w.db ~group:"ctr" bump_sig (fun _ op -> Ok op);
  ignore
    (S.spawn w.sched (fun () ->
         let ag = Core.Agent.create w.client_hub ~name:"c" ~config:fast_chan_cfg () in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"ctr" bump_sig in
         let sup =
           Sup.supervise_agent
             ~config:{ fast_sup_cfg with Sup.retry_budget = 2; open_timeout = 50e-3 }
             ag ~dst:(Net.address w.db_node) ~gid:"ctr"
         in
         Net.crash w.net w.db_node;
         (* Undeliverable call: two restarts spend the budget, then the
            breaker opens and the pending call degrades. *)
         (match R.rpc h 1 with
         | P.Unavailable _ -> ()
         | _ -> Alcotest.fail "call into the outage should be unavailable");
         (match Sup.state sup with
         | Sup.Open -> ()
         | Sup.Closed | Sup.Half_open -> Alcotest.fail "expected Open");
         (* fail-fast while open: refused at submission *)
         (match R.stream_call h 2 with
         | _ -> Alcotest.fail "open breaker should refuse new calls"
         | exception P.Unavailable_exn _ -> ());
         Net.recover w.net w.db_node;
         (* The half-open probe must restore service on its own. *)
         let ok = ref false and attempts = ref 0 in
         while (not !ok) && !attempts < 50 do
           incr attempts;
           match R.rpc h 3 with
           | P.Normal _ -> ok := true
           | P.Signal _ | P.Unavailable _ | P.Failure _ -> S.sleep w.sched 10e-3
           | exception P.Unavailable_exn _ -> S.sleep w.sched 10e-3
         done;
         check Alcotest.bool "service restored without manual restart" true !ok;
         (match Sup.state sup with
         | Sup.Closed -> ()
         | Sup.Open | Sup.Half_open -> Alcotest.fail "expected Closed");
         Sup.stop sup));
  run_ok w.sched;
  let transitions name = Sim.Stats.peek (S.stats w.sched) name in
  check Alcotest.bool "breaker opened" true (transitions "sup_opens" >= 1);
  check Alcotest.bool "breaker probed" true (transitions "sup_probes" >= 1);
  check Alcotest.bool "breaker closed again" true (transitions "sup_closes" >= 1)

let test_port_ref_dynamic_binding () =
  (* Transmit a port reference (window-system style, §2) and call
     through it. *)
  let w = make_world () in
  let give_port_sig =
    Core.Sigs.hsig0 "give_port" ~arg:Xdr.unit ~res:Core.Sigs.port_ref_codec
  in
  G.register w.db ~group:"grades" give_port_sig (fun ctx () ->
      Ok (G.port_ref ctx.G.guardian ~group:"grades" ~port:"record_grade"));
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let hp = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" give_port_sig in
         match R.rpc hp () with
         | P.Normal pref ->
             let h = R.bind_ref ag pref record_grade_sig in
             got := Some (R.rpc h ("dyn", 70))
         | _ -> Alcotest.fail "could not fetch port ref"));
  run_ok w.sched;
  match !got with
  | Some (P.Normal avg) -> check (Alcotest.float 1e-9) "avg through port ref" 70.0 avg
  | _ -> Alcotest.fail "call through port ref failed"

let test_guardian_destroy_breaks_clients () =
  let w = make_world () in
  let got = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         let h = db_handle w (agent w "c") in
         (match R.rpc h ("a", 1) with
         | P.Normal _ -> ()
         | _ -> Alcotest.fail "first call should work");
         G.destroy w.db;
         got := Some (R.rpc h ("b", 2))));
  run_ok w.sched;
  match !got with
  | Some (P.Unavailable _) | Some (P.Failure _) -> ()
  | _ -> Alcotest.fail "calls after destroy should not succeed"

let test_unordered_group_via_guardian () =
  (* register_group ~ordered:false: calls on ONE stream run
     concurrently (§2.1's footnoted override). *)
  let w = make_world () in
  G.register_group w.db ~group:"par" ~config:GC.(default |> with_ordered false) ();
  let slow_sig = Core.Sigs.hsig0 "job" ~arg:Xdr.int ~res:Xdr.int in
  G.register w.db ~group:"par" slow_sig (fun ctx n ->
      S.sleep ctx.G.sched 5e-3;
      Ok n);
  let finished_at = ref 0.0 in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"par" slow_sig in
         let ps = List.init 6 (fun i -> R.stream_call h i) in
         R.flush h;
         List.iter (fun p -> ignore (P.claim p : (int, _) P.outcome)) ps;
         finished_at := S.now w.sched));
  run_ok w.sched;
  (* sequential would be >= 30 ms; concurrent is ~5 ms + transport *)
  check Alcotest.bool "six 5ms calls overlapped" true (!finished_at < 15e-3)

let test_unordered_decode_failure_orphans_queue () =
  (* An unordered lane dispatches without parking, so an argument that
     fails to decode breaks the stream while later calls of the same
     packet are still queued behind it. Those calls are orphans before
     they start: none of them may run. *)
  let w = make_world () in
  G.register_group w.db ~group:"par" ~config:GC.(default |> with_ordered false) ();
  let picky =
    {
      Xdr.int with
      Xdr.decode =
        (fun v ->
          match Xdr.int.Xdr.decode v with Ok n when n < 0 -> Error "negative" | r -> r);
    }
  in
  let job_sig = Core.Sigs.hsig0 "job" ~arg:picky ~res:Xdr.int in
  let ran = ref [] in
  G.register w.db ~group:"par" job_sig (fun _ n ->
      ran := n :: !ran;
      Ok n);
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "c" in
         let h = R.bind ag ~dst:(Net.address w.db_node) ~gid:"par" job_sig in
         let ps = List.map (R.stream_call h) [ 1; -1; 2; 3 ] in
         R.flush h;
         List.iter (fun p -> ignore (P.claim p : (int, _) P.outcome)) ps));
  run_ok w.sched;
  check Alcotest.(list int) "no call behind the break ran" []
    (List.filter (fun n -> n > 1) !ran)

let test_agent_reuses_stream_and_restart_to () =
  let w = make_world () in
  let ag = agent w "c" in
  let h1 = db_handle w ag in
  (* binding again through the same agent reuses the stream: sequence
     numbers continue, replies ordered across both handles *)
  let h2 = R.bind ag ~dst:(Net.address w.db_node) ~gid:"grades" record_grade_sig in
  check Alcotest.bool "same stream object" true (R.stream h1 == R.stream h2);
  ignore
    (S.spawn w.sched (fun () ->
         (match R.rpc h1 ("a", 1) with P.Normal _ -> () | _ -> Alcotest.fail "h1");
         Cstream.Stream_end.restart
           (Core.Agent.stream_to ag ~dst:(Net.address w.db_node) ~gid:"grades");
         match R.rpc h2 ("b", 2) with
         | P.Normal _ -> ()
         | _ -> Alcotest.fail "h2 after restart"));
  run_ok w.sched

let test_stream_call_statement_form () =
  (* stream as a statement: reply decoded and discarded, no promise *)
  let w = make_world () in
  ignore
    (S.spawn w.sched (fun () ->
         let h = db_handle w (agent w "c") in
         R.Call.(detach (make h ("a", 10)));
         R.Call.(detach (make h ("a", 20)));
         match R.synch h with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "synch"));
  run_ok w.sched;
  check Alcotest.(list int) "both calls executed" [ 20; 10 ]
    (Hashtbl.find w.recorded "a")

(* ------------------------------------------------------------------ *)
(* Actions *)

let test_action_commits () =
  let sched = S.create () in
  let log = ref [] in
  ignore
    (S.spawn sched (fun () ->
         let r =
           Argus.Action.run sched (fun act ->
               log := "step1" :: !log;
               Argus.Action.on_abort act (fun () -> log := "undo1" :: !log);
               41 + 1)
         in
         check Alcotest.int "result" 42 r));
  run_ok sched;
  check Alcotest.(list string) "no undo ran" [ "step1" ] !log

let test_action_aborts_in_reverse () =
  let sched = S.create () in
  let log = ref [] in
  ignore
    (S.spawn sched (fun () ->
         try
           Argus.Action.run sched (fun act ->
               Argus.Action.on_abort act (fun () -> log := "undo1" :: !log);
               Argus.Action.on_abort act (fun () -> log := "undo2" :: !log);
               failwith "abort me")
         with Failure _ -> ()));
  run_ok sched;
  check Alcotest.(list string) "reverse order undo" [ "undo2"; "undo1" ] (List.rev !log)

let test_action_nested_independent () =
  let sched = S.create () in
  let log = ref [] in
  ignore
    (S.spawn sched (fun () ->
         Argus.Action.run sched (fun outer ->
             Argus.Action.on_abort outer (fun () -> log := "outer-undo" :: !log);
             (* inner action aborts; outer continues and commits *)
             (try
                Argus.Action.run sched (fun inner ->
                    Argus.Action.on_abort inner (fun () -> log := "inner-undo" :: !log);
                    failwith "inner only")
              with Failure _ -> ());
             log := "outer-continues" :: !log)));
  run_ok sched;
  check Alcotest.(list string) "inner abort does not abort outer"
    [ "inner-undo"; "outer-continues" ]
    (List.rev !log)

let test_action_aborts_on_termination () =
  (* A coenter terminating an arm mid-action must roll the action
     back: "if it is not possible to record all grades, none will be
     recorded" (§4.2). *)
  let sched = S.create () in
  let recorded = ref [] in
  ignore
    (S.spawn sched (fun () ->
         try
           Core.Coenter.coenter sched
             [
               (fun () ->
                 Argus.Action.run sched (fun act ->
                     recorded := 1 :: !recorded;
                     Argus.Action.on_abort act (fun () ->
                         recorded := List.filter (fun x -> x <> 1) !recorded);
                     S.sleep sched 10.0;
                     recorded := 2 :: !recorded));
               (fun () ->
                 S.sleep sched 1.0;
                 failwith "stop everything");
             ]
         with Failure _ -> ()));
  run_ok sched;
  check Alcotest.(list int) "partial work rolled back" [] !recorded

(* ------------------------------------------------------------------ *)
(* The grades example, three ways *)

let students = [ ("alice", 81); ("ben", 77); ("carol", 93); ("dan", 68); ("erin", 88) ]

let expect_lines =
  List.map (fun (stu, grade) -> Printf.sprintf "%s: %.1f" stu (float_of_int grade)) students

(* Figure 3-1: two sequential loops — stream all record_grade calls,
   collect promises in an array, then claim in order and stream to the
   printer. *)
let run_grades_fig31 w =
  let finished = ref false in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = agent w "client" in
         let record_grade = db_handle w ag in
         let print = print_handle w ag in
         (* first loop: stream calls, keep promises *)
         let averages = List.map (fun s -> R.stream_call record_grade s) students in
         R.flush record_grade;
         (* second loop: claim in (alphabetical) order and stream print *)
         List.iter2
           (fun (stu, _) avg_p ->
             let avg = P.claim_normal avg_p ~on_signal:(fun (No_such_student _) -> nan) in
             R.Call.(detach (make print (Printf.sprintf "%s: %.1f" stu avg))))
           students averages;
         (match R.synch print with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "print synch failed");
         finished := true));
  run_ok w.sched;
  check Alcotest.bool "program completed" true !finished

let test_grades_fig31 () =
  let w = make_world ~db_service:1e-3 ~print_service:1e-3 () in
  run_grades_fig31 w;
  check Alcotest.(list string) "printed alphabetically with averages" expect_lines
    (List.rev !(w.printed));
  check Alcotest.int "all grades recorded" (List.length students) (Hashtbl.length w.recorded)

(* Figure 4-2: coenter — one arm records and enqueues promises, the
   other claims from the queue and prints concurrently. *)
let run_grades_fig42 w =
  ignore
    (S.spawn w.sched (fun () ->
         let ag_db = agent w "client-db" in
         let ag_pr = agent w "client-pr" in
         let record_grade = db_handle w ag_db in
         let print = print_handle w ag_pr in
         Core.Compose.producer_consumer w.sched
           ~produce:(fun emit ->
             List.iter (fun (stu, g) -> emit (stu, R.stream_call record_grade (stu, g))) students;
             R.flush record_grade;
             match R.synch record_grade with
             | Ok () -> ()
             | Error _ -> failwith "cannot_record")
           ~consume:(fun (stu, avg_p) ->
             let avg = P.claim_normal avg_p ~on_signal:(fun (No_such_student _) -> nan) in
             R.Call.(detach (make print (Printf.sprintf "%s: %.1f" stu avg))))
           ();
         match R.synch print with
         | Ok () -> ()
         | Error _ -> failwith "cannot_print"))

let test_grades_fig42 () =
  let w = make_world ~db_service:1e-3 ~print_service:1e-3 () in
  run_grades_fig42 w;
  run_ok w.sched;
  check Alcotest.(list string) "printed alphabetically with averages" expect_lines
    (List.rev !(w.printed))

(* Figure 4-1's termination problem: with plain forks and an unbounded
   queue, a broken stream in the recording process leaves the printing
   process waiting forever. Our scheduler detects the deadlock; the
   coenter version instead terminates the group (next test). *)
let test_fig41_termination_problem () =
  let w = make_world () in
  Net.crash w.net w.db_node;
  ignore
    (S.spawn w.sched ~name:"main" (fun () ->
         let ag_db = agent w "client-db" in
         let ag_pr = agent w "client-pr" in
         let record_grade = db_handle w ag_db in
         let print = print_handle w ag_pr in
         (* Provoke the break first so the recording process will
            terminate early — "because of a communication problem". *)
         (try ignore (R.rpc record_grade ("probe", 0) : (float, db_err) P.outcome)
          with P.Unavailable_exn _ -> ());
         let aveq = Sched.Bqueue.create w.sched in
         let p1 =
           Core.Fork.fork w.sched ~name:"use_db" (fun () ->
               try
                 List.iter
                   (fun (stu, g) -> Sched.Bqueue.enq aveq (stu, R.stream_call record_grade (stu, g)))
                   students;
                 Ok ()
               with P.Unavailable_exn _ | P.Failure_exn _ ->
                 (* Terminates early with the signal — but never tells
                    the printing process (Figure 4-1's flaw). *)
                 Error `Cannot_record)
         in
         let p2 =
           Core.Fork.fork w.sched ~name:"do_print" (fun () ->
               (* Expects exactly as many items as students. *)
               List.iter
                 (fun _ ->
                   let stu, avg_p = Sched.Bqueue.deq aveq in
                   let avg =
                     match P.claim avg_p with
                     | P.Normal v -> v
                     | P.Signal _ | P.Unavailable _ | P.Failure _ -> nan
                   in
                   R.Call.(detach (make print (Printf.sprintf "%s: %.1f" stu avg))))
                 students;
               Ok ())
         in
         (match P.claim p1 with
         | P.Signal `Cannot_record -> ()
         | _ -> Alcotest.fail "recording should have failed");
         (* ... and now the parent waits forever for the printer. *)
         ignore (P.claim p2 : (unit, Core.Sigs.nothing) P.outcome)));
  match S.run w.sched with
  | S.Deadlocked fibers ->
      let names = List.sort compare (List.map S.fiber_name fibers) in
      check Alcotest.bool "printer (and main) hang forever" true
        (List.mem "do_print" names && List.mem "main" names)
  | S.Completed -> Alcotest.fail "expected the termination problem to bite"
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* Same failure under coenter: group termination rescues the printer. *)
let test_fig42_group_termination_rescues () =
  let w = make_world () in
  Net.crash w.net w.db_node;
  let outcome = ref "" in
  ignore
    (S.spawn w.sched ~name:"main" (fun () ->
         let ag_db = agent w "client-db" in
         let ag_pr = agent w "client-pr" in
         let record_grade = db_handle w ag_db in
         let print = print_handle w ag_pr in
         let aveq = Sched.Bqueue.create w.sched in
         try
           Core.Coenter.coenter w.sched
             [
               (fun () ->
                 List.iter
                   (fun (stu, g) -> Sched.Bqueue.enq aveq (stu, R.stream_call record_grade (stu, g)))
                   students;
                 R.flush record_grade;
                 match R.synch record_grade with
                 | Ok () -> ()
                 | Error _ -> failwith "cannot_record");
               (fun () ->
                 List.iter
                   (fun _ ->
                     let stu, avg_p = Sched.Bqueue.deq aveq in
                     let avg = P.claim_normal avg_p ~on_signal:(fun _ -> nan) in
                     R.Call.(detach (make print (Printf.sprintf "%s: %.1f" stu avg))))
                   students);
             ]
         with
         | Failure m -> outcome := m
         | P.Unavailable_exn _ -> outcome := "cannot_record"));
  run_ok w.sched;
  check Alcotest.string "failure propagated, no hang" "cannot_record" !outcome

let suite =
  [
    ( "typed-calls",
      [
        Alcotest.test_case "rpc normal" `Quick test_rpc_normal;
        Alcotest.test_case "rpc typed signal" `Quick test_rpc_signal_typed;
        Alcotest.test_case "promises ready in order" `Quick test_promises_ready_in_order;
        Alcotest.test_case "encode failure: no promise" `Quick test_encode_failure_no_promise;
        Alcotest.test_case "decode failure breaks stream" `Quick test_decode_failure_breaks_stream;
        Alcotest.test_case "result encode failure breaks stream" `Quick
          test_result_encode_failure_breaks_stream;
        Alcotest.test_case "handler does not exist" `Quick test_handler_does_not_exist;
        Alcotest.test_case "handler crash is failure, not break" `Quick
          test_handler_crash_is_failure_not_break;
        Alcotest.test_case "wounded fiber cannot call" `Quick test_wounded_fiber_cannot_call;
        Alcotest.test_case "orphan destroyed on restart" `Quick
          test_orphan_destroyed_on_stream_restart;
        Alcotest.test_case "port refs bind dynamically" `Quick test_port_ref_dynamic_binding;
        Alcotest.test_case "guardian destroy breaks clients" `Quick
          test_guardian_destroy_breaks_clients;
        Alcotest.test_case "unordered group overlaps" `Quick test_unordered_group_via_guardian;
        Alcotest.test_case "unordered decode failure orphans the queue" `Quick
          test_unordered_decode_failure_orphans_queue;
        Alcotest.test_case "agent reuses stream; restart_to" `Quick
          test_agent_reuses_stream_and_restart_to;
        Alcotest.test_case "stream call statement form" `Quick test_stream_call_statement_form;
      ] );
    ( "supervision",
      [
        Alcotest.test_case "dedup exactly-once under dup + crash" `Quick
          test_dedup_exactly_once_under_dup_and_crash;
        Alcotest.test_case "circuit opens, probes, recovers" `Quick
          test_supervisor_circuit_opens_then_recovers;
      ] );
    ( "action",
      [
        Alcotest.test_case "commits" `Quick test_action_commits;
        Alcotest.test_case "aborts in reverse order" `Quick test_action_aborts_in_reverse;
        Alcotest.test_case "nested actions independent" `Quick test_action_nested_independent;
        Alcotest.test_case "aborts on termination" `Quick test_action_aborts_on_termination;
      ] );
    ( "grades-example",
      [
        Alcotest.test_case "figure 3-1 (sequential loops)" `Quick test_grades_fig31;
        Alcotest.test_case "figure 4-2 (coenter)" `Quick test_grades_fig42;
        Alcotest.test_case "figure 4-1 termination problem" `Quick
          test_fig41_termination_problem;
        Alcotest.test_case "figure 4-2 rescues via group termination" `Quick
          test_fig42_group_termination_rescues;
      ] );
  ]

let () = Alcotest.run "guardian" suite

(* The transport seam (docs/TRANSPORT.md): one conformance suite run
   against both backends — Transport_sim over the simulated Net and
   Transport_tcp over real loopback sockets — plus the TCP-only framing
   and break cases, and the regression that pins Transport_sim to the
   published E12 byte figures (BENCH_wire.json), i.e. the seam refactor
   changed nothing below the stream layer.

   Every TCP test is guarded: if the sandbox forbids loopback sockets
   the test prints a SKIP line and passes. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module GC = Cstream.Group_config
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise
module Sup = Core.Supervisor
module T = Transport_tcp

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* --- sandbox guard -------------------------------------------------- *)

let tcp_available =
  lazy
    (match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> false
    | fd -> (
        match
          Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          Unix.listen fd 1
        with
        | () ->
            Unix.close fd;
            true
        | exception Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            false))

let with_tcp name f =
  if Lazy.force tcp_available then f ()
  else Printf.printf "SKIP %s: loopback sockets unavailable in this sandbox\n%!" name

(* --- rigs: two connected endpoints on one scheduler ----------------- *)

type rig = {
  rg_sched : S.t;
  rg_a : Transport.t;
  rg_b : Transport.t;
  rg_fab : T.fabric option; (* Some for tcp *)
  rg_close : unit -> unit;
}

let sim_rig () =
  let sched = S.create () in
  let net = Net.create sched Net.default_config in
  let na = Net.add_node net ~name:"a" in
  let nb = Net.add_node net ~name:"b" in
  {
    rg_sched = sched;
    rg_a = Transport_sim.endpoint net na;
    rg_b = Transport_sim.endpoint net nb;
    rg_fab = None;
    rg_close = (fun () -> ());
  }

let tcp_rig () =
  let sched = S.create () in
  let fab = T.create sched in
  let a = T.endpoint fab ~addr:0 ~name:"a" () in
  let b = T.endpoint fab ~addr:1 ~name:"b" () in
  T.set_peer fab ~addr:0 (T.listen_loopback fab ~addr:0);
  T.set_peer fab ~addr:1 (T.listen_loopback fab ~addr:1);
  { rg_sched = sched; rg_a = a; rg_b = b; rg_fab = Some fab; rg_close = (fun () -> T.close fab) }

let with_rig make f =
  let rig = make () in
  Fun.protect ~finally:rig.rg_close (fun () -> f rig)

(* --- raw interface conformance -------------------------------------- *)

(* Frames of assorted sizes, including ones far larger than the 3-byte
   chunk cap used by the framing test. *)
let mk_frame i = Printf.sprintf "frame-%04d-%s" i (String.make (i * 13 mod 577) 'x')

let ordered_delivery ?(n = 50) rig =
  let got = ref [] in
  let waiter = ref None in
  rig.rg_b.Transport.set_receiver (fun ~src frame ->
      check Alcotest.int "src address" rig.rg_a.Transport.addr src;
      got := frame :: !got;
      if List.length !got = n then
        match !waiter with Some w -> ignore (S.wake w () : bool) | None -> ());
  ignore
    (S.spawn rig.rg_sched ~name:"sender" (fun () ->
         for i = 0 to n - 1 do
           rig.rg_a.Transport.send ~dst:rig.rg_b.Transport.addr (mk_frame i)
         done;
         if List.length !got < n then S.suspend rig.rg_sched (fun w -> waiter := Some w)));
  run_ok rig.rg_sched;
  let got = List.rev !got in
  check Alcotest.int "frames delivered" n (List.length got);
  List.iteri
    (fun i f -> check Alcotest.string (Printf.sprintf "frame %d in order, intact" i) (mk_frame i) f)
    got

let test_ordered_sim () = with_rig sim_rig (ordered_delivery ?n:None)

let test_ordered_tcp () =
  with_tcp "ordered tcp" (fun () -> with_rig tcp_rig (ordered_delivery ?n:None))

(* Replies must ride the accepted connection: b answers a without any
   address-book entry for a (pure-client case). *)
let test_tcp_reply_rides_accepted_conn () =
  with_tcp "reply conn reuse" @@ fun () ->
  let sched = S.create () in
  let fab = T.create sched in
  Fun.protect ~finally:(fun () -> T.close fab) @@ fun () ->
  let a = T.endpoint fab ~addr:7 ~name:"client" () in
  let b = T.endpoint fab ~addr:8 ~name:"server" () in
  T.set_peer fab ~addr:8 (T.listen_loopback fab ~addr:8);
  (* no set_peer for 7: the only way back is the accepted connection *)
  b.Transport.set_receiver (fun ~src frame -> b.Transport.send ~dst:src ("echo:" ^ frame));
  let answer = ref None in
  let waiter = ref None in
  a.Transport.set_receiver (fun ~src:_ frame ->
      answer := Some frame;
      match !waiter with Some w -> ignore (S.wake w () : bool) | None -> ());
  ignore
    (S.spawn sched (fun () ->
         a.Transport.send ~dst:8 "ping";
         if !answer = None then S.suspend sched (fun w -> waiter := Some w)));
  run_ok sched;
  check Alcotest.(option string) "echoed over the accepted conn" (Some "echo:ping") !answer

(* Length-prefix framing must survive 3-byte reads and writes. *)
let test_tcp_partial_io () =
  with_tcp "partial io" @@ fun () ->
  with_rig tcp_rig @@ fun rig ->
  (match rig.rg_fab with Some fab -> T.set_max_chunk fab 3 | None -> assert false);
  ordered_delivery ~n:12 rig

(* Byte accounting on the TCP fabric. *)
let test_tcp_accounting () =
  with_tcp "accounting" @@ fun () ->
  with_rig tcp_rig @@ fun rig ->
  let n = 20 in
  let expected_bytes = ref 0 in
  for i = 0 to n - 1 do
    expected_bytes := !expected_bytes + String.length (mk_frame i)
  done;
  ordered_delivery ~n rig;
  let stats = match rig.rg_fab with Some fab -> T.stats fab | None -> assert false in
  check Alcotest.int "frames sent" n (Sim.Stats.peek stats "transport_frames_sent");
  check Alcotest.int "frames received" n (Sim.Stats.peek stats "transport_frames_received");
  check Alcotest.int "bytes sent" !expected_bytes (Sim.Stats.peek stats "transport_bytes_sent");
  check Alcotest.int "bytes received" !expected_bytes
    (Sim.Stats.peek stats "transport_bytes_received")

(* --- stream-layer conformance over both backends -------------------- *)

(* Window back-pressure: a 100-byte in-flight window against ~40-byte
   items must block the sender repeatedly, and acks must release it —
   on either substrate — until everything is delivered in order. *)
let backpressure rig =
  let hub_a = CH.create_hub ~transport:rig.rg_a () in
  let hub_b = CH.create_hub ~transport:rig.rg_b () in
  let delivered = ref [] in
  CH.on_connect hub_b ~label:"bp" (fun ic ->
      CH.set_deliver ic (fun items ->
          let values = List.map (fun vw -> Result.get_ok (Xdr.View.materialize vw)) items in
          delivered := List.rev_append values !delivered));
  let cfg = { CH.default_config with CH.max_batch = 1; max_inflight_bytes = 100 } in
  let n = 25 in
  let over_window = ref 0 in
  ignore
    (S.spawn rig.rg_sched ~name:"bp-sender" (fun () ->
         let o = CH.connect hub_a ~dst:rig.rg_b.Transport.addr ~label:"bp" ~meta:"" cfg in
         for i = 1 to n do
           let item = Xdr.Str (Printf.sprintf "%02d|%s" i (String.make 32 'p')) in
           (match CH.await_window o ~bytes:40 with
           | Ok () -> ()
           | Error e -> Alcotest.failf "await_window: %s" e);
           if CH.inflight_bytes o + 40 > 100 then incr over_window;
           match CH.send o item with
           | Ok () -> ()
           | Error e -> Alcotest.failf "send: %s" e
         done));
  run_ok rig.rg_sched;
  check Alcotest.int "no admission over the window" 0 !over_window;
  let delivered = List.rev !delivered in
  check Alcotest.int "all items delivered" n (List.length delivered);
  List.iteri
    (fun idx item ->
      match item with
      | Xdr.Str s ->
          check Alcotest.int
            (Printf.sprintf "item %d in order" idx)
            (idx + 1)
            (int_of_string (String.sub s 0 2))
      | _ -> Alcotest.fail "unexpected item shape")
    delivered

let test_backpressure_sim () = with_rig sim_rig backpressure

let test_backpressure_tcp () = with_tcp "backpressure tcp" (fun () -> with_rig tcp_rig backpressure)

(* --- break -> resubmit -> dedup exactly-once over a real socket ----- *)

let work_sig = Core.Sigs.hsig0 "work" ~arg:Xdr.int ~res:Xdr.int

(* The TCP peer watch makes breaks instantaneous, but keep retransmits
   snappy too so any frame lost to a dying socket is resent quickly. *)
let fast_chan_cfg =
  {
    CH.default_config with
    CH.max_batch = 4;
    flush_interval = 0.5e-3;
    retransmit_timeout = 4e-3;
    max_retries = 8;
  }

let fast_sup_cfg =
  {
    Sup.default_config with
    Sup.backoff_base = 2e-3;
    backoff_max = 20e-3;
    backoff_jitter = 0.0;
    retry_budget = 16;
  }

let test_tcp_exactly_once_across_break () =
  with_tcp "exactly-once" @@ fun () ->
  let sched = S.create () in
  let fab = T.create sched in
  Fun.protect ~finally:(fun () -> T.close fab) @@ fun () ->
  let a = T.endpoint fab ~addr:0 ~name:"client" () in
  let b = T.endpoint fab ~addr:1 ~name:"server" () in
  let hub_a = CH.create_hub ~transport:a () in
  let hub_b = CH.create_hub ~transport:b () in
  let server = G.create hub_b ~name:"server" in
  let n = 30 in
  let execs = Array.make n 0 in
  G.register_group server ~group:"main"
    ~config:GC.(default |> with_reply_config fast_chan_cfg |> with_dedup)
    ();
  G.register server ~group:"main" work_sig (fun _ctx i ->
      execs.(i) <- execs.(i) + 1;
      Ok (i + 1));
  T.set_peer fab ~addr:1 (T.listen_loopback fab ~addr:1);
  let breaks_observed = ref 0 in
  ignore
    (S.spawn sched ~name:"client" (fun () ->
         let ag = Core.Agent.create hub_a ~name:"eo" ~config:fast_chan_cfg () in
         let sup = Sup.supervise_agent ~config:fast_sup_cfg ag ~dst:1 ~gid:"main" in
         let h = R.bind ag ~dst:1 ~gid:"main" work_sig in
         let ps = List.init n (fun i -> R.stream_call h i) in
         R.flush h;
         List.iteri
           (fun i p ->
             (* Cut every socket mid-stream, once a third of the replies
                are in hand: client side (dialed, peer=1) and server side
                (accepted, peer=0). Supervision must reincarnate the
                stream over a fresh dial and resubmit what was in
                flight; dedup keeps re-executions at zero. *)
             if i = n / 3 then begin
               T.drop_peer_connections fab ~addr:1;
               T.drop_peer_connections fab ~addr:0;
               incr breaks_observed
             end;
             match P.claim p with
             | P.Normal v when v = i + 1 -> ()
             | P.Normal v -> Alcotest.failf "call %d returned %d" i v
             | P.Signal _ -> Alcotest.failf "call %d signalled" i
             | P.Unavailable r | P.Failure r -> Alcotest.failf "call %d failed: %s" i r)
           ps;
         Sup.stop sup));
  run_ok sched;
  check Alcotest.int "the break actually happened" 1 !breaks_observed;
  check Alcotest.bool "stream was reincarnated" true
    (Sim.Stats.peek (S.stats sched) "sup_restarts" >= 1);
  Array.iteri
    (fun i c -> check Alcotest.int (Printf.sprintf "call %d executed exactly once" i) 1 c)
    execs

(* --- regression: Transport_sim is byte-identical -------------------- *)

(* The sim backend must reproduce the pinned E12 table exactly; if any
   cell moves, the transport seam changed wire behavior. *)
let test_sim_byte_identical () =
  check Alcotest.(list string) "E12 matches its goldens" []
    (Workloads.Exp_wire.golden_mismatches (Workloads.Exp_wire.e12_rows ~n:400 ()))

(* E17's own invariant: whenever TCP runs, its frame/byte counts equal
   the sim prediction exactly. *)
let test_e17_counts_agree () =
  let rows = Workloads.Exp_transport.e17_rows ~n:60 ~depth:4 () in
  let by_backend w b =
    List.find_opt
      (fun r -> r.Workloads.Exp_transport.r_workload = w && r.Workloads.Exp_transport.r_backend = b)
      rows
  in
  List.iter
    (fun r ->
      let open Workloads.Exp_transport in
      if r.r_backend = "sim" then
        match by_backend r.r_workload "tcp" with
        | Some t when t.r_ok ->
            check Alcotest.int (r.r_workload ^ " msgs agree") r.r_msgs t.r_msgs;
            check Alcotest.int (r.r_workload ^ " bytes agree") r.r_bytes t.r_bytes
        | Some _ | None -> Printf.printf "SKIP %s: tcp row skipped\n%!" r.r_workload)
    rows

let () =
  Alcotest.run "transport"
    [
      ( "conformance",
        [
          Alcotest.test_case "ordered delivery (sim)" `Quick test_ordered_sim;
          Alcotest.test_case "ordered delivery (tcp)" `Quick test_ordered_tcp;
          Alcotest.test_case "reply rides accepted conn (tcp)" `Quick
            test_tcp_reply_rides_accepted_conn;
          Alcotest.test_case "framing under 3-byte partial io (tcp)" `Quick test_tcp_partial_io;
          Alcotest.test_case "frame/byte accounting (tcp)" `Quick test_tcp_accounting;
          Alcotest.test_case "window back-pressure (sim)" `Quick test_backpressure_sim;
          Alcotest.test_case "window back-pressure (tcp)" `Quick test_backpressure_tcp;
        ] );
      ( "exactly-once",
        [
          Alcotest.test_case "break -> resubmit -> dedup over a real socket" `Quick
            test_tcp_exactly_once_across_break;
        ] );
      ( "sim-regression",
        [
          Alcotest.test_case "E12 byte figures match BENCH_wire.json" `Quick
            test_sim_byte_identical;
          Alcotest.test_case "E17 sim and tcp counts agree" `Quick test_e17_counts_agree;
        ] );
    ]

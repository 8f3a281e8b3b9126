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
      CH.set_deliver ic (fun _ items ->
          let values = List.map (fun vw -> Result.get_ok (Xdr.View.materialize vw)) items in
          delivered := List.rev_append values !delivered));
  let cfg = { CH.default_config with CH.max_batch = 1; max_inflight_bytes = 100 } in
  let n = 25 in
  let over_window = ref 0 in
  ignore
    (S.spawn rig.rg_sched ~name:"bp-sender" (fun () ->
         let o = CH.connect hub_a ~dst:rig.rg_b.Transport.addr ~label:"bp" ~meta:"" cfg in
         let rec send item =
           match CH.offer o item with
           | Ok true ->
               if CH.inflight_bytes o > 100 then incr over_window;
               CH.commit o
           | Ok false -> send item
           | Error e -> Alcotest.failf "offer: %s" e
         in
         for i = 1 to n do
           send (Xdr.Str (Printf.sprintf "%02d|%s" i (String.make 32 'p')))
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

(* --- acks ride RPC traffic over a real socket ------------------------ *)

(* [tr] with every frame it sends logged, oldest first. *)
let recording tr =
  let sent = ref [] in
  let send ~dst frame =
    sent := frame :: !sent;
    tr.Transport.send ~dst frame
  in
  ({ tr with Transport.send }, fun () -> List.rev !sent)

(* [n] sequential RPCs of [hs] on one stream over loopback; [k] then
   reads the run's scheduler and fabric and every frame the client
   sent. *)
let tcp_rpc_loop hs ~n k =
  let sched = S.create () in
  let fab = T.create sched in
  Fun.protect ~finally:(fun () -> T.close fab) @@ fun () ->
  let a, sent = recording (T.endpoint fab ~addr:0 ~name:"client" ()) in
  let b = T.endpoint fab ~addr:1 ~name:"server" () in
  let hub_a = CH.create_hub ~transport:a () in
  let server = G.create (CH.create_hub ~transport:b ()) ~name:"server" in
  G.register_group server ~group:"main" ~config:GC.(default |> with_reply_config CH.rpc_config) ();
  G.register server ~group:"main" hs (fun _ctx i -> Ok (i + 1));
  T.set_peer fab ~addr:1 (T.listen_loopback fab ~addr:1);
  ignore
    (S.spawn sched ~name:"client" (fun () ->
         let ag = Core.Agent.create hub_a ~name:"rpc" ~config:CH.rpc_config () in
         let h = R.bind ag ~dst:1 ~gid:"main" hs in
         for i = 1 to n do
           match R.rpc h i with
           | P.Normal v when v = i + 1 -> ()
           | _ -> Alcotest.failf "rpc %d failed" i
         done));
  run_ok sched;
  k sched fab (sent ())

(* A TCP reply leaves in the scheduler turn its call arrived in, so the
   call's ack rides the reply and the reply's ack rides the next call:
   two frames per RPC. One Ack frame per packet would double both
   counts. *)
let test_tcp_rpc_acks_ride () =
  with_tcp "rpc acks ride" @@ fun () ->
  let n = 200 in
  tcp_rpc_loop work_sig ~n @@ fun sched fab _ ->
  let acks = Sim.Stats.peek (S.stats sched) "chan_ack_packets" in
  let frames = Sim.Stats.peek (T.stats fab) "transport_frames_sent" in
  check Alcotest.bool (Printf.sprintf "%d standalone acks <= 2" acks) true (acks <= 2);
  check Alcotest.bool
    (Printf.sprintf "%d frames <= 2 x %d + 4" frames n)
    true
    (frames <= (2 * n) + 4)

(* --- a stream's stable id names the hub that accepts it -------------- *)

(* [tr] with the sender and reply label of every channel-opening Data
   packet it receives logged. *)
let opening_spy tr =
  let seen = ref [] in
  let set_receiver f =
    tr.Transport.set_receiver (fun ~src frame ->
        (match CH.decode_packet frame with
        | Ok (CH.Data { opening = Some o; _ }) -> seen := (src, o.CH.open_meta) :: !seen
        | Ok _ | Error _ -> ());
        f ~src frame)
  in
  ({ tr with Transport.set_receiver }, fun () -> List.rev !seen)

(* Every stream a hub accepts names that hub's own address in its
   stable id (the reply label's destination segment): two agents
   calling two groups, on both backends. The pipelining scope check
   (docs/PIPELINE.md) relies on it to refuse references to streams
   sent to another node. *)
let accepted_streams_name_their_hub rig =
  let b, opened = opening_spy rig.rg_b in
  let server = G.create (CH.create_hub ~transport:b ()) ~name:"server" in
  let hub_a = CH.create_hub ~transport:rig.rg_a () in
  let dst = rig.rg_b.Transport.addr in
  List.iter
    (fun gid ->
      G.register_group server ~group:gid ~config:GC.(default |> with_reply_config CH.rpc_config) ();
      G.register server ~group:gid work_sig (fun _ctx i -> Ok (i + 1)))
    [ "main"; "aux" ];
  ignore
    (S.spawn rig.rg_sched ~name:"client" (fun () ->
         List.iter
           (fun agent ->
             let ag = Core.Agent.create hub_a ~name:agent ~config:CH.rpc_config () in
             List.iter
               (fun gid ->
                 match R.rpc (R.bind ag ~dst ~gid work_sig) 1 with
                 | P.Normal 2 -> ()
                 | _ -> Alcotest.failf "%s -> %s failed" agent gid)
               [ "main"; "aux" ])
           [ "a1"; "a2" ]));
  run_ok rig.rg_sched;
  let streams =
    List.filter (fun (_, meta) -> String.starts_with ~prefix:"~r/" meta) (opened ())
  in
  check Alcotest.int "streams accepted" 4 (List.length streams);
  List.iter
    (fun (src, meta) ->
      let id = Cstream.Wire.stable_stream_id ~src ~reply_label:meta in
      check
        Alcotest.(option int)
        (Printf.sprintf "%s names the accepting hub" id)
        (Some dst) (Cstream.Wire.stream_id_dst id))
    streams

let test_sim_streams_name_their_hub () = with_rig sim_rig accepted_streams_name_their_hub

let test_tcp_streams_name_their_hub () =
  with_tcp "streams name their hub" (fun () -> with_rig tcp_rig accepted_streams_name_their_hub)

(* --- a restarted peer reopens its channels ------------------------- *)

(* A hub that comes back at the same address numbers its channels from
   0 again; the tombstones of its predecessor's channels died with the
   connection, so its first call is accepted, not Reset. *)
let test_tcp_restarted_peer_reopens () =
  with_tcp "restarted peer reopens" @@ fun () ->
  let sched = S.create () in
  let fab = T.create sched in
  Fun.protect ~finally:(fun () -> T.close fab) @@ fun () ->
  let b = T.endpoint fab ~addr:1 ~name:"server" () in
  let server = G.create (CH.create_hub ~transport:b ()) ~name:"server" in
  G.register_group server ~group:"main" ~config:GC.(default |> with_reply_config CH.rpc_config) ();
  G.register server ~group:"main" work_sig (fun _ctx i -> Ok (i + 1));
  T.set_peer fab ~addr:1 (T.listen_loopback fab ~addr:1);
  let call_once i =
    let hub = CH.create_hub ~transport:(T.endpoint fab ~addr:0 ~name:"client" ()) () in
    let ag = Core.Agent.create hub ~name:"client" ~config:CH.rpc_config () in
    R.rpc (R.bind ag ~dst:1 ~gid:"main" work_sig) i
  in
  let outcomes = ref [] in
  ignore
    (S.spawn sched ~name:"client" (fun () ->
         let first = call_once 1 in
         T.drop_peer_connections fab ~addr:1;
         T.drop_peer_connections fab ~addr:0;
         let second = call_once 2 in
         outcomes := [ first; second ]));
  run_ok sched;
  List.iteri
    (fun k o ->
      match o with
      | P.Normal v -> check Alcotest.int (Printf.sprintf "call %d" k) (k + 2) v
      | P.Unavailable r | P.Failure r -> Alcotest.failf "call %d failed: %s" k r
      | P.Signal _ -> Alcotest.failf "call %d signalled" k)
    !outcomes;
  check Alcotest.int "both calls returned" 2 (List.length !outcomes)

(* --- a port is named once per channel -------------------------------- *)

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let probe_port = "port-table-probe"

let probe_sig = Core.Sigs.hsig0 probe_port ~arg:Xdr.int ~res:Xdr.int

(* 200 sequential RPCs on one stream: only the first call spells the
   port, every later one names it by its table index. *)
let test_tcp_port_named_once () =
  with_tcp "port named once" @@ fun () ->
  let n = 200 in
  tcp_rpc_loop probe_sig ~n @@ fun _ _ frames ->
  check Alcotest.bool "every call left in a frame" true (List.length frames >= n);
  check Alcotest.int "frames spelling the port" 1
    (List.length (List.filter (contains ~sub:probe_port) frames))

(* The sim twin, per channel incarnation: a stream calling three ports
   in turn, restarted twice, spells each port in exactly one frame of
   each incarnation's call channel. *)
let test_sim_ports_named_once_per_incarnation () =
  let sched = S.create ~seed:7 () in
  let net = Net.create sched Net.default_config in
  let na = Net.add_node net ~name:"a" and nb = Net.add_node net ~name:"b" in
  let tr, sent = recording (Transport_sim.endpoint net na) in
  let hub_a = CH.create_hub ~transport:tr () in
  let hub_b = CH.create_hub ~net:(net, nb) () in
  ignore
    (Cstream.Target.create hub_b ~gid:"echo" (fun _conn ~seq:_ ~port ~kind:_ ~args:_ ~reply ->
         reply (Cstream.Wire.W_normal (Xdr.Str port)))
      : Cstream.Target.t);
  let ports = [ "port-alpha"; "port-beta"; "port-gamma" ] in
  let se =
    Cstream.Stream_end.create hub_a ~agent:"c" ~dst:(Net.address nb) ~gid:"echo"
      ~config:{ CH.default_config with CH.max_batch = 4 } ()
  in
  let incarnations = 3 and rounds = 20 in
  ignore
    (S.spawn sched ~name:"client" (fun () ->
         for inc = 1 to incarnations do
           for r = 1 to rounds do
             List.iter
               (fun port ->
                 ignore
                   (Cstream.Stream_end.call se ~port ~kind:Cstream.Wire.Call ~args:(Xdr.Int r)
                      ~on_reply:(fun o ->
                        if o <> Cstream.Wire.W_normal (Xdr.Str port) then
                          Alcotest.failf "%s: wrong reply" port)
                     : (int * int, string) result))
               ports
           done;
           (match Cstream.Stream_end.synch se with
           | Ok () -> ()
           | Error _ -> Alcotest.failf "incarnation %d failed" inc);
           if inc < incarnations then Cstream.Stream_end.restart se
         done));
  run_ok sched;
  (* Call frames by channel index: one index per incarnation. *)
  let by_idx = Hashtbl.create 4 in
  List.iter
    (fun f ->
      match CH.decode_packet f with
      | Ok (CH.Data { idx; _ }) ->
          let earlier = Option.value ~default:[] (Hashtbl.find_opt by_idx idx) in
          Hashtbl.replace by_idx idx (f :: earlier)
      | Ok _ | Error _ -> ())
    (sent ());
  check Alcotest.int "one call channel per incarnation" incarnations (Hashtbl.length by_idx);
  Hashtbl.iter
    (fun idx frames ->
      List.iter
        (fun port ->
          check Alcotest.int
            (Printf.sprintf "channel %d: frames spelling %s" idx port)
            1
            (List.length (List.filter (contains ~sub:port) frames)))
        ports)
    by_idx

(* --- regression: Transport_sim is byte-identical -------------------- *)

(* The sim backend must reproduce the pinned E12 table exactly; if any
   cell moves, the transport seam changed wire behavior. *)
let test_sim_byte_identical () =
  check Alcotest.(list string) "E12 matches its goldens" []
    (Workloads.Exp_wire.golden_mismatches (Workloads.Exp_wire.e12_rows ~n:400 ()))

(* E17's own invariant: whenever TCP runs, its Data frames and the
   items they carry equal the sim prediction exactly, and it sends no
   more standalone Acks than the sim (a TCP reply leaves in the turn
   its call's ack was parked and carries it; a simulated one leaves a
   turn later, behind the modelled receive overhead). *)
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
            check Alcotest.int (r.r_workload ^ " data frames agree") r.r_data_frames
              t.r_data_frames;
            check Alcotest.int (r.r_workload ^ " items agree") r.r_items t.r_items;
            check Alcotest.bool
              (Printf.sprintf "%s: tcp ack frames %d <= sim %d" r.r_workload t.r_ack_frames
                 r.r_ack_frames)
              true
              (t.r_ack_frames <= r.r_ack_frames)
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
      ( "stream ids",
        [
          Alcotest.test_case "accepted streams name their hub (sim)" `Quick
            test_sim_streams_name_their_hub;
          Alcotest.test_case "accepted streams name their hub (tcp)" `Quick
            test_tcp_streams_name_their_hub;
        ] );
      ( "reconnect",
        [
          Alcotest.test_case "a restarted peer reopens its channels (tcp)" `Quick
            test_tcp_restarted_peer_reopens;
        ] );
      ( "port table",
        [
          Alcotest.test_case "200 rpcs spell the port in one frame (tcp)" `Quick
            test_tcp_port_named_once;
          Alcotest.test_case "three ports, one spelling per incarnation (sim)" `Quick
            test_sim_ports_named_once_per_incarnation;
        ] );
      ( "ack hold",
        [ Alcotest.test_case "rpc acks ride calls and replies (tcp)" `Quick test_tcp_rpc_acks_ride ]
      );
      ( "sim-regression",
        [
          Alcotest.test_case "E12 byte figures match BENCH_wire.json" `Quick
            test_sim_byte_identical;
          Alcotest.test_case "E17 sim and tcp counts agree" `Quick test_e17_counts_agree;
        ] );
    ]

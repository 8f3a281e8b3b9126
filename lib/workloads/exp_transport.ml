(* Experiment E17: the simulator as a predictor. The same two
   workloads — E12's batched stream calls and E13's pipelined
   dependent-call chain — run twice from one binary: over the simulated
   net (Transport_sim, virtual time = the model's prediction) and over
   real loopback TCP sockets (Transport_tcp, wall-clock time = the
   measurement). Frame and byte counts must agree exactly — the stream
   layer is byte-identical above the seam — while the time columns
   compare the cost model against a real kernel (docs/TRANSPORT.md). *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise
module T = Transport_tcp

type row = {
  r_workload : string;
  r_backend : string;  (** ["sim"] or ["tcp"] *)
  r_calls : int;
  r_ok : bool;  (** [false]: TCP unavailable (sandbox), row is a skip *)
  r_time : float;  (** completion, seconds: sim = predicted, tcp = measured *)
  r_msgs : int;
  r_bytes : int;
}

(* Same shapes as E12 "stream B=16" / E13 "pipelined". *)
let batch_config = { CH.default_config with CH.max_batch = 16; flush_interval = 1e-3 }

let group_config = Cstream.Group_config.(default |> with_reply_config batch_config)

type world = {
  w_sched : S.t;
  w_hub : CH.hub;  (* client side *)
  w_server_addr : int;
  w_msgs : unit -> int;
  w_bytes : unit -> int;
  w_close : unit -> unit;
}

let register_server server =
  G.register_group server ~group:"main" ~config:group_config ();
  (* Chain link n -> n + 1, so a depth-k chain from 0 must claim k. *)
  G.register server ~group:"main" Fixtures.work_sig (fun _ctx n -> Ok (n + 1))

let make_sim_world () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched { Net.default_config with Net.wire_latency = 1e-3 } in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  register_server (G.create server_hub ~name:"server");
  let stats = Net.stats net in
  {
    w_sched = sched;
    w_hub = client_hub;
    w_server_addr = Net.address server_node;
    w_msgs = (fun () -> Sim.Stats.peek stats "msgs_sent");
    w_bytes = (fun () -> Sim.Stats.peek stats "bytes_sent");
    w_close = (fun () -> ());
  }

(* Both endpoints live in one process on one fabric, but every frame
   crosses the kernel through a real loopback TCP connection. *)
let make_tcp_world () =
  let sched = S.create ~seed:42 () in
  let fab = T.create sched in
  match
    let client_tr = T.endpoint fab ~addr:0 ~name:"client" () in
    let server_tr = T.endpoint fab ~addr:1 ~name:"server" () in
    let client_hub = CH.create_hub ~transport:client_tr () in
    let server_hub = CH.create_hub ~transport:server_tr () in
    register_server (G.create server_hub ~name:"server");
    let sa = T.listen_loopback fab ~addr:1 in
    T.set_peer fab ~addr:1 sa;
    client_hub
  with
  | client_hub ->
      let stats = T.stats fab in
      Ok
        {
          w_sched = sched;
          w_hub = client_hub;
          w_server_addr = 1;
          w_msgs = (fun () -> Sim.Stats.peek stats "transport_frames_sent");
          w_bytes = (fun () -> Sim.Stats.peek stats "transport_bytes_sent");
          w_close = (fun () -> T.close fab);
        }
  | exception Unix.Unix_error (e, _, _) ->
      T.close fab;
      Error (Unix.error_message e)

(* Like Fixtures.timed_run, but measuring from body start to body end
   inside the fiber: in TCP mode stray timers (retransmit arming) may
   keep the heap busy for a few wall milliseconds after the workload is
   done, and those must not pollute the measurement. *)
let timed_body world body =
  let t0 = ref nan and t1 = ref nan in
  let failed = ref None in
  ignore
    (S.spawn world.w_sched ~name:"e17-main" (fun () ->
         t0 := S.now world.w_sched;
         (match body () with () -> () | exception e -> failed := Some e);
         t1 := S.now world.w_sched));
  (match S.run world.w_sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      failwith ("E17: deadlock: " ^ String.concat ", " (List.map S.fiber_name fs))
  | S.Time_limit -> failwith "E17: unexpected time limit");
  (match !failed with Some e -> raise e | None -> ());
  if Float.is_nan !t1 then failwith "E17: body did not finish";
  !t1 -. !t0

(* Polymorphic in the signal type so the matches stay exhaustive. *)
let check ~what ~expect = function
  | P.Normal v when v = expect -> ()
  | P.Normal v -> Fmt.failwith "E17: %s returned %d, expected %d" what v expect
  | P.Signal _ -> Fmt.failwith "E17: %s signalled" what
  | P.Unavailable r | P.Failure r -> Fmt.failwith "E17: %s failed: %s" what r

let stream_workload ~n world () =
  let ag = Core.Agent.create world.w_hub ~name:"e17-stream" ~config:batch_config () in
  let h = R.bind ag ~dst:world.w_server_addr ~gid:"main" Fixtures.work_sig in
  let ps = List.init n (fun i -> R.stream_call h i) in
  R.flush h;
  List.iteri
    (fun i p -> check ~what:(Printf.sprintf "stream call %d" i) ~expect:(i + 1) (P.claim p))
    ps

let chain_workload ~depth world () =
  let ag = Core.Agent.create world.w_hub ~name:"e17-chain" ~config:batch_config () in
  let h = R.bind ag ~dst:world.w_server_addr ~gid:"main" Fixtures.work_sig in
  let p = ref (R.stream_call h 0) in
  for _ = 2 to depth do
    p := R.Call.(submit (piped h (R.pipe !p)))
  done;
  R.flush h;
  check ~what:"chain" ~expect:depth (P.claim !p)

let run_workload ~workload ~calls body =
  let sim =
    let w = make_sim_world () in
    let time = timed_body w (body w) in
    {
      r_workload = workload;
      r_backend = "sim";
      r_calls = calls;
      r_ok = true;
      r_time = time;
      r_msgs = w.w_msgs ();
      r_bytes = w.w_bytes ();
    }
  in
  let skip reason =
    {
      r_workload = workload;
      r_backend = "tcp: skipped (" ^ reason ^ ")";
      r_calls = calls;
      r_ok = false;
      r_time = nan;
      r_msgs = 0;
      r_bytes = 0;
    }
  in
  let tcp =
    match make_tcp_world () with
    | Error reason -> skip reason
    | Ok w -> (
        match timed_body w (body w) with
        | time ->
            let msgs = w.w_msgs () and bytes = w.w_bytes () in
            w.w_close ();
            {
              r_workload = workload;
              r_backend = "tcp";
              r_calls = calls;
              r_ok = true;
              r_time = time;
              r_msgs = msgs;
              r_bytes = bytes;
            }
        | exception Unix.Unix_error (e, _, _) ->
            w.w_close ();
            skip (Unix.error_message e))
  in
  [ sim; tcp ]

let e17_rows ?(n = 400) ?(depth = 4) () =
  run_workload ~workload:(Printf.sprintf "stream B=16 x%d" n) ~calls:n (stream_workload ~n)
  @ run_workload ~workload:(Printf.sprintf "pipelined chain d=%d" depth) ~calls:depth
      (chain_workload ~depth)

let e17 ?(n = 400) ?(depth = 4) () =
  let rows = e17_rows ~n ~depth () in
  (* predicted time per workload, for the wall/sim column on tcp rows *)
  let predicted =
    List.filter_map (fun r -> if r.r_backend = "sim" then Some (r.r_workload, r.r_time) else None) rows
  in
  let render r =
    [
      r.r_workload;
      r.r_backend;
      Table.cell_i r.r_calls;
      (if r.r_ok then Table.cell_ms r.r_time else "-");
      (if r.r_ok then Table.cell_i r.r_msgs else "-");
      (if r.r_ok then Table.cell_i r.r_bytes else "-");
      (if r.r_ok && r.r_backend = "tcp" then
         match List.assoc_opt r.r_workload predicted with
         | Some p when p > 0.0 -> Table.cell_f (r.r_time /. p)
         | _ -> "-"
       else "-");
    ]
  in
  Table.make ~id:"E17"
    ~title:"real transport: simulated prediction vs loopback-TCP wall clock"
    ~header:[ "workload"; "backend"; "calls"; "completion"; "msgs"; "bytes"; "wall/sim" ]
    ~notes:
      [
        "the identical codec, batching, windows and supervision run over both backends \
         (docs/TRANSPORT.md); 'sim' rows are virtual-time predictions on the cost model (1 ms \
         wire latency), 'tcp' rows are wall-clock measurements over real loopback sockets in \
         real time";
        "msgs/bytes count what actually crossed each substrate (Net counters vs TCP frame \
         counters) and agree exactly: the stream layer above the transport seam is \
         byte-identical";
        "'wall/sim' below 1 means loopback beats the modelled 1 ms-latency LAN — expected; \
         the point is that packet counts transfer and times stay the same order of magnitude";
        "tcp rows print '-' and a skip reason when the sandbox forbids sockets";
      ]
    (List.map render rows)

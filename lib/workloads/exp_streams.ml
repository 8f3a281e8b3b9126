(* Experiments E1, E2, E9: the call-stream performance claims of §2.

   E1 — throughput of N calls: RPC vs stream calls at several batch
   sizes and network latencies. The paper claims streams beat RPC
   because (a) the caller does not wait per call and (b) buffering
   amortises the per-message kernel overhead.

   E2 — messages and bytes on the wire for RPC / stream / send.

   E9 — reply latency under passive buffering vs flush vs synch. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module R = Core.Remote
module P = Core.Promise

open Fixtures

(* One run: N calls of the given mode; returns (completion time, msgs,
   bytes). *)
let run_calls ~latency ~mode ~n ~service =
  let cfg = { Net.default_config with Net.wire_latency = latency } in
  let ccfg = chan_config mode in
  let pair =
    Fixtures.make_pair ~cfg ~service
      ~group_config:Cstream.Group_config.(default |> with_reply_config ccfg)
      ()
  in
  let h = Fixtures.work_handle pair ~config:ccfg ~agent:"bench" () in
  let time =
    Fixtures.timed_run pair.Fixtures.sched (fun () ->
        match mode with
        | Rpc ->
            for i = 1 to n do
              match R.rpc h i with
              | P.Normal _ -> ()
              | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "rpc failed"
            done
        | Stream _ | Adaptive ->
            for i = 1 to n do
              ignore (R.stream_call h i : (int, Core.Sigs.nothing) P.t)
            done;
            (match R.synch h with
            | Ok () -> ()
            | Error _ -> failwith "stream broke")
        | Send_mode _ ->
            for i = 1 to n do
              R.send h i
            done;
            (match R.synch h with
            | Ok () -> ()
            | Error _ -> failwith "stream broke"))
  in
  let stats = Net.stats pair.Fixtures.net in
  let msgs = Sim.Stats.count (Sim.Stats.counter stats "msgs_sent") in
  let bytes = Sim.Stats.count (Sim.Stats.counter stats "bytes_sent") in
  (time, msgs, bytes)

let e1 ?(n = 400) ?(service = 50e-6) () =
  let latencies = [ 0.1e-3; 1e-3; 10e-3 ] in
  let modes = [ Rpc; Stream 1; Stream 4; Stream 16; Stream 64 ] in
  let rows = ref [] in
  List.iter
    (fun latency ->
      let rpc_time = ref nan in
      List.iter
        (fun mode ->
          let time, msgs, _ = run_calls ~latency ~mode ~n ~service in
          if mode = Rpc then rpc_time := time;
          let speedup = !rpc_time /. time in
          rows :=
            [
              Printf.sprintf "%.1f" (latency *. 1e3);
              mode_name mode;
              Table.cell_ms time;
              Table.cell_f (float_of_int n /. time);
              Table.cell_i msgs;
              Printf.sprintf "%.1fx" speedup;
            ]
            :: !rows)
        modes)
    latencies;
  Table.make ~id:"E1" ~title:(Printf.sprintf "%d calls: RPC vs stream calls (service %.0f us)" n (service *. 1e6))
    ~header:[ "latency"; "mode"; "completion"; "calls/s"; "msgs"; "vs RPC" ]
    ~notes:
      [
        "paper claim (§2, §5): streams allow the caller to run in parallel with the call and \
         amortise kernel overhead over several calls; the gap over RPC grows with latency and \
         batch size";
      ]
    (List.rev !rows)

let e2 ?(n = 400) () =
  let latency = 1e-3 in
  let modes = [ Rpc; Stream 16; Send_mode 16 ] in
  let rows =
    List.map
      (fun mode ->
        let _, msgs, bytes = run_calls ~latency ~mode ~n ~service:0.0 in
        [
          mode_name mode;
          Table.cell_i msgs;
          Table.cell_i bytes;
          Table.cell_f (float_of_int msgs /. float_of_int n);
          Table.cell_f (float_of_int bytes /. float_of_int n);
        ])
      modes
  in
  Table.make ~id:"E2" ~title:(Printf.sprintf "wire cost of %d calls" n)
    ~header:[ "mode"; "msgs"; "bytes"; "msgs/call"; "bytes/call" ]
    ~notes:
      [
        "paper claim (§2): buffering amortises message overheads over several calls; sends \
         omit normal reply values";
      ]
    rows

let e9 () =
  let rows = ref [] in
  List.iter
    (fun flush_interval ->
      List.iter
        (fun mode ->
          let ccfg =
            { CH.default_config with CH.max_batch = 1000; flush_interval }
          in
          let pair =
            Fixtures.make_pair
              ~group_config:Cstream.Group_config.(default |> with_reply_config CH.rpc_config)
              ()
          in
          let h = Fixtures.work_handle pair ~config:ccfg ~agent:"bench" () in
          let ready_at = ref nan in
          let time =
            Fixtures.timed_run pair.Fixtures.sched (fun () ->
                let p = R.stream_call h 1 in
                (match mode with
                | `Passive -> ()
                | `Flush -> R.flush h
                | `Synch -> (
                    match R.synch h with Ok () -> () | Error _ -> failwith "broke"));
                ignore (P.claim p : (int, Core.Sigs.nothing) P.outcome);
                ready_at := S.now pair.Fixtures.sched)
          in
          ignore time;
          rows :=
            [
              Printf.sprintf "%.0f" (flush_interval *. 1e3);
              (match mode with `Passive -> "buffered (timer)" | `Flush -> "flush" | `Synch -> "synch");
              Table.cell_ms !ready_at;
            ]
            :: !rows)
        [ `Passive; `Flush; `Synch ])
    [ 1e-3; 5e-3; 20e-3 ];
  Table.make ~id:"E9" ~title:"reply latency of one stream call: passive buffering vs flush vs synch"
    ~header:[ "flush timer (ms)"; "mode"; "reply ready at" ]
    ~notes:
      [
        "paper claim (§2): the system sends buffered calls eventually; flush merely speeds \
         this up, synch additionally waits for completion";
      ]
    (List.rev !rows)

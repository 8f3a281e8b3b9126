(* Experiment E13: promise pipelining. A k-deep chain of dependent
   calls — each call's argument is the previous call's result — costs k
   round trips if every link is claimed before the next call is made,
   but only about one round trip if the dependent calls are transmitted
   immediately with promise-reference arguments and the receiver
   substitutes results locally (docs/PIPELINE.md). The wire columns
   show why: pipelined, the whole chain leaves in one batch, and its
   replies in one more. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise

type mode = Single | Claim_each | Pipelined | Pipelined_adaptive

let mode_name = function
  | Single -> "single call"
  | Claim_each -> "claim each"
  | Pipelined -> "pipelined"
  | Pipelined_adaptive -> "pipelined (adaptive)"

type row = {
  r_mode : string;
  r_depth : int;  (** calls in the dependency chain *)
  r_time : float;  (** completion (simulated seconds) *)
  r_msgs : int;  (** network messages of any kind *)
  r_bytes : int;  (** actual encoded bytes on the wire *)
  r_data_pkts : int;
  r_pipelined : int;  (** calls transmitted with a promise-ref argument *)
  r_substitutions : int;  (** references substituted at the receiver *)
}

(* Batching stream config: calls issued back-to-back coalesce into one
   message, which is what lets a pipelined chain travel as one packet. *)
let chain_config = Fixtures.chan_config (Stream 16)

let run_mode ~depth ~mode () =
  let chan_cfg, ordered =
    match mode with
    | Pipelined_adaptive ->
        (* The loadbench [pipeline_chain] set-up: Nagle-style channels
           both ways, and an unordered group, so a dependent call can
           reach the handler stage before its producer finishes and
           parks. *)
        (CH.adaptive_config, false)
    | Single | Claim_each | Pipelined -> (chain_config, true)
  in
  let group_config =
    Cstream.Group_config.(default |> with_reply_config chan_cfg |> with_ordered ordered)
  in
  let pair =
    Fixtures.make_pair ~cfg:{ Net.default_config with Net.wire_latency = 1e-3 } ~group_config ()
  in
  (* Chain link: n -> n + 1, so a depth-k chain from 0 must claim k —
     proof every substitution carried the real produced value. *)
  G.register pair.Fixtures.server ~group:"main" Fixtures.work_sig (fun _ctx n -> Ok (n + 1));
  let h = Fixtures.work_handle pair ~config:chan_cfg ~agent:"chain" () in
  let check ~expect = function
    | P.Normal v when v = expect -> ()
    | P.Normal v -> Fmt.failwith "E13: chain returned %d, expected %d" v expect
    | P.Signal _ -> failwith "E13: chain signalled"
    | P.Unavailable r | P.Failure r -> failwith ("E13: chain failed: " ^ r)
  in
  let time =
    Fixtures.timed_run pair.Fixtures.sched (fun () ->
        match mode with
        | Single -> check ~expect:1 (R.rpc h 0)
        | Claim_each ->
            (* The baseline the paper's stream calls cannot beat: each
               link needs its predecessor's value at the caller, so each
               link is a full round trip. *)
            let v = ref 0 in
            for _ = 1 to depth do
              match R.rpc h !v with
              | P.Normal r -> v := r
              | o -> check ~expect:(!v + 1) o
            done;
            if !v <> depth then Fmt.failwith "E13: chain ended at %d, expected %d" !v depth
        | Pipelined | Pipelined_adaptive ->
            (* All [depth] calls leave together; only the last promise
               is ever claimed here — the intermediate values never
               visit this node. *)
            let p = ref (R.stream_call h 0) in
            for _ = 2 to depth do
              p := R.Call.(submit (piped h (R.pipe !p)))
            done;
            R.flush h;
            check ~expect:depth (P.claim !p))
  in
  let net_stats = Net.stats pair.Fixtures.net in
  let sched_stats = S.stats pair.Fixtures.sched in
  {
    r_mode = mode_name mode;
    r_depth = (match mode with Single -> 1 | Claim_each | Pipelined | Pipelined_adaptive -> depth);
    r_time = time;
    r_msgs = Sim.Stats.peek net_stats "msgs_sent";
    r_bytes = Sim.Stats.peek net_stats "bytes_sent";
    r_data_pkts = Sim.Stats.peek sched_stats "chan_data_packets";
    r_pipelined = Sim.Stats.peek sched_stats "pipelined_calls";
    r_substitutions = Sim.Stats.peek sched_stats "ref_substitutions";
  }

let e13_rows ?(depth = 4) () =
  List.map
    (fun mode -> run_mode ~depth ~mode ())
    [ Single; Claim_each; Pipelined; Pipelined_adaptive ]

let e13 ?(depth = 4) () =
  let rows = e13_rows ~depth () in
  let rtt =
    match rows with
    | { r_mode = "single call"; r_time; _ } :: _ -> r_time
    | _ -> assert false
  in
  let render r =
    [
      r.r_mode;
      Table.cell_i r.r_depth;
      Table.cell_ms r.r_time;
      Table.cell_f (r.r_time /. rtt);
      Table.cell_i r.r_msgs;
      Table.cell_i r.r_bytes;
      Table.cell_i r.r_data_pkts;
      Table.cell_i r.r_pipelined;
      Table.cell_i r.r_substitutions;
    ]
  in
  Table.make ~id:"E13"
    ~title:
      (Printf.sprintf "promise pipelining: %d-deep dependent-call chain (1 ms latency)" depth)
    ~header:
      [
        "mode"; "depth"; "completion"; "x RTT"; "msgs"; "bytes"; "data pkts"; "pipelined";
        "substituted";
      ]
    ~notes:
      [
        "each call's argument is the previous call's result; 'claim each' waits for every \
         link's reply before the next call, 'pipelined' transmits promise-reference arguments \
         (Xdr.Pref) immediately and the receiver substitutes results locally \
         (docs/PIPELINE.md)";
        "'x RTT' is completion relative to the single-call round trip measured in the same \
         configuration; a pipelined chain rides one batch, so it stays near 1 while 'claim \
         each' grows linearly with depth";
        "'pipelined (adaptive)' is the loadbench pipeline_chain set-up: adaptive channels \
         (Chanhub.adaptive_config) both ways and an unordered group; idle channels flush at \
         the end of the turn, so it waits on no flush timer and its x RTT falls below 1";
      ]
    (List.map render rows)

(* Experiment E19: third-party handoff (docs/HANDOFF.md). A three-node
   delegation — A asks B for a blob, then asks C to consume it — run
   two ways on both backends (sim and loopback TCP):

   - proxy: the pre-handoff shape. A claims B's blob, then ships it to
     C itself: the payload crosses the wire twice (B->A, A->C) and the
     dependent call cannot leave before the producer's reply lands.
   - handoff: A defers B's result, forwards the dependent call straight
     to C with a handoff-annotated reference, and tells B to push the
     blob to C directly: the payload crosses once (B->C) and one full
     hop of latency disappears from every delegation.

   A third leg repeats the handoff run while the A<->B link is cut mid
   flight and the stream resubmitted: receiver dedup plus push dedup
   must keep every handler execution at exactly one ("dup execs" 0). *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module G = Argus.Guardian
module GC = Cstream.Group_config
module R = Core.Remote
module P = Core.Promise
module Sup = Core.Supervisor
module T = Transport_tcp

type row = {
  r_mode : string;  (** ["proxy"], ["handoff"] or ["handoff+break"] *)
  r_backend : string;  (** ["sim"] or ["tcp"] *)
  r_calls : int;
  r_ok : bool;  (** [false]: TCP unavailable (sandbox), row is a skip *)
  r_time : float;  (** measured span of the delegation loop, seconds *)
  r_msgs : int;
  r_bytes : int;
  r_forwards : int;  (** producer-side outcome pushes (handoff_forwards) *)
  r_fallbacks : int;  (** refused handoffs that fell back to proxying *)
  r_dup_execs : int;  (** handler executions beyond the first, per key *)
}

let blob_bytes = 256

let blob_of i =
  let tag = Printf.sprintf "%04d|" i in
  tag ^ String.make (blob_bytes - String.length tag) 'x'

let blob_sig = Core.Sigs.hsig0 "blob" ~arg:Xdr.int ~res:Xdr.string

let consume_sig = Core.Sigs.hsig0 "consume" ~arg:Xdr.string ~res:Xdr.int

(* Small batches, fast retransmit: break detection inside the
   experiment's few simulated milliseconds. *)
let chan_cfg =
  {
    CH.default_config with
    CH.max_batch = 16;
    flush_interval = 0.5e-3;
    retransmit_timeout = 4e-3;
    max_retries = 3;
  }

let group_config = GC.(default |> with_reply_config chan_cfg |> with_dedup)

type world = {
  w_sched : S.t;
  w_hub : CH.hub;  (* A, the delegating client *)
  w_mid_addr : int;  (* B, the blob producer *)
  w_sink_addr : int;  (* C, the consumer / owner *)
  w_mid_execs : (int, int) Hashtbl.t;
  w_sink_execs : (string, int) Hashtbl.t;
  w_msgs : unit -> int;
  w_bytes : unit -> int;
  w_partition : (unit -> unit) option;  (* cut A<->B (sim) *)
  w_heal : (unit -> unit) option;
  w_drop_mid : (unit -> unit) option;  (* cut B's sockets (tcp) *)
  w_close : unit -> unit;
}

let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let register_servers w ~mid ~sink =
  G.register_group mid ~group:"main" ~config:group_config ();
  G.register mid ~group:"main" blob_sig (fun _ctx n ->
      bump w.w_mid_execs n;
      Ok (blob_of n));
  G.register_group sink ~group:"main" ~config:group_config ();
  G.register sink ~group:"main" consume_sig (fun _ctx s ->
      bump w.w_sink_execs s;
      Ok (String.length s))

let make_sim_world () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched { Net.default_config with Net.wire_latency = 1e-3 } in
  let a = Net.add_node net ~name:"client" in
  let b = Net.add_node net ~name:"mid" in
  let c = Net.add_node net ~name:"sink" in
  let hub_a = CH.create_hub ~net:(net, a) () in
  let hub_b = CH.create_hub ~net:(net, b) () in
  let hub_c = CH.create_hub ~net:(net, c) () in
  let stats = Net.stats net in
  let w =
    {
      w_sched = sched;
      w_hub = hub_a;
      w_mid_addr = Net.address b;
      w_sink_addr = Net.address c;
      w_mid_execs = Hashtbl.create 16;
      w_sink_execs = Hashtbl.create 16;
      w_msgs = (fun () -> Sim.Stats.peek stats "msgs_sent");
      w_bytes = (fun () -> Sim.Stats.peek stats "bytes_sent");
      w_partition = Some (fun () -> Net.partition net (Net.address a) (Net.address b));
      w_heal = Some (fun () -> Net.heal net (Net.address a) (Net.address b));
      w_drop_mid = None;
      w_close = (fun () -> ());
    }
  in
  register_servers w ~mid:(G.create hub_b ~name:"mid") ~sink:(G.create hub_c ~name:"sink");
  w

let make_tcp_world () =
  let sched = S.create ~seed:42 () in
  let fab = T.create sched in
  match
    let tr_a = T.endpoint fab ~addr:0 ~name:"client" () in
    let tr_b = T.endpoint fab ~addr:1 ~name:"mid" () in
    let tr_c = T.endpoint fab ~addr:2 ~name:"sink" () in
    let hub_a = CH.create_hub ~transport:tr_a () in
    let hub_b = CH.create_hub ~transport:tr_b () in
    let hub_c = CH.create_hub ~transport:tr_c () in
    T.set_peer fab ~addr:1 (T.listen_loopback fab ~addr:1);
    T.set_peer fab ~addr:2 (T.listen_loopback fab ~addr:2);
    (hub_a, hub_b, hub_c)
  with
  | hub_a, hub_b, hub_c ->
      let stats = T.stats fab in
      let w =
        {
          w_sched = sched;
          w_hub = hub_a;
          w_mid_addr = 1;
          w_sink_addr = 2;
          w_mid_execs = Hashtbl.create 16;
          w_sink_execs = Hashtbl.create 16;
          w_msgs = (fun () -> Sim.Stats.peek stats "transport_frames_sent");
          w_bytes = (fun () -> Sim.Stats.peek stats "transport_bytes_sent");
          w_partition = None;
          w_heal = None;
          w_drop_mid = Some (fun () -> T.drop_peer_connections fab ~addr:1);
          w_close = (fun () -> T.close fab);
        }
      in
      register_servers w ~mid:(G.create hub_b ~name:"mid") ~sink:(G.create hub_c ~name:"sink");
      Ok w
  | exception Unix.Unix_error (e, _, _) ->
      T.close fab;
      Error (Unix.error_message e)

let run_world world body =
  let failed = ref None and out = ref None in
  ignore
    (S.spawn world.w_sched ~name:"e19-main" (fun () ->
         match body () with v -> out := Some v | exception e -> failed := Some e));
  (match S.run world.w_sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      failwith ("E19: deadlock: " ^ String.concat ", " (List.map S.fiber_name fs))
  | S.Time_limit -> failwith "E19: unexpected time limit");
  (match !failed with Some e -> raise e | None -> ());
  match !out with Some v -> v | None -> failwith "E19: body did not finish"

let expect_len ~what = function
  | P.Normal v when v = blob_bytes -> ()
  | P.Normal v -> Fmt.failwith "E19: %s returned %d, expected %d" what v blob_bytes
  | P.Signal _ -> Fmt.failwith "E19: %s signalled" what
  | P.Unavailable r | P.Failure r -> Fmt.failwith "E19: %s failed: %s" what r

let dup_execs w =
  let extra count = max 0 (count - 1) in
  Hashtbl.fold (fun _ c acc -> acc + extra c) w.w_mid_execs 0
  + Hashtbl.fold (fun _ c acc -> acc + extra c) w.w_sink_execs 0

(* One delegation, proxied: claim the blob here, ship it onward. *)
let delegate_proxy ~hB ~hC i =
  match R.Call.(sync (make hB i)) with
  | P.Normal blob -> expect_len ~what:(Printf.sprintf "proxy %d" i) (R.Call.(sync (make hC blob)))
  | P.Signal _ -> failwith "E19: producer signalled"
  | P.Unavailable r | P.Failure r -> failwith ("E19: producer failed: " ^ r)

(* One delegation, handed off: the blob never comes here. *)
let delegate_handoff ~hB ~hC i =
  let pf = R.Call.(submit (defer_result (make hB i))) in
  let pg = R.Call.(submit (piped hC (R.pipe pf))) in
  R.flush hC;
  expect_len ~what:(Printf.sprintf "handoff %d" i) (P.claim pg)

(* The measured loop: one warmup delegation (stream setup, handoff
   push-channel dial), then [n] timed ones. *)
let measured world ~mode ~n =
  let ag_b = Core.Agent.create world.w_hub ~name:"e19-b" ~config:chan_cfg () in
  let ag_c = Core.Agent.create world.w_hub ~name:"e19-c" ~config:chan_cfg () in
  let hB = R.bind ag_b ~dst:world.w_mid_addr ~gid:"main" blob_sig in
  let hC = R.bind ag_c ~dst:world.w_sink_addr ~gid:"main" consume_sig in
  let delegate = match mode with `Proxy -> delegate_proxy | `Handoff -> delegate_handoff in
  delegate ~hB ~hC 0;
  let m0 = world.w_msgs () and b0 = world.w_bytes () and t0 = S.now world.w_sched in
  for i = 1 to n do
    delegate ~hB ~hC i
  done;
  (S.now world.w_sched -. t0, world.w_msgs () - m0, world.w_bytes () - b0)

(* The forced-break leg: [n] handed-off delegations all in flight, the
   A<->B path cut mid-flight, then resubmitted (manually on sim, by a
   supervisor on tcp). Exactly-once must hold at both servers. *)
let break_body world ~n () =
  let sched = world.w_sched in
  let ag_b = Core.Agent.create world.w_hub ~name:"e19-bb" ~config:chan_cfg () in
  let ag_c = Core.Agent.create world.w_hub ~name:"e19-bc" ~config:chan_cfg () in
  let hB = R.bind ag_b ~dst:world.w_mid_addr ~gid:"main" blob_sig in
  let hC = R.bind ag_c ~dst:world.w_sink_addr ~gid:"main" consume_sig in
  let m0 = world.w_msgs () and b0 = world.w_bytes () and t0 = S.now sched in
  match world.w_partition with
  | Some cut ->
      (* Sim: deterministic outage window, manual resubmission. *)
      let sB = R.stream hB in
      SE.set_preserve_on_break sB true;
      S.at sched (S.now sched +. 1.8e-3) cut;
      S.at sched (S.now sched +. 30e-3) (Option.get world.w_heal);
      let pgs =
        List.init n (fun i ->
            let pf = R.Call.(submit (defer_result (make hB i))) in
            R.Call.(submit (piped hC (R.pipe pf))))
      in
      R.flush hC;
      (* A probe into the outage so the sender notices the break. *)
      S.sleep sched 4e-3;
      let probe = R.Call.(submit (make hB 9999)) in
      R.flush hB;
      while SE.broken sB = None do
        S.sleep sched 1e-3
      done;
      while S.now sched < 32e-3 do
        S.sleep sched 1e-3
      done;
      ignore (SE.restart_resubmit sB : int);
      List.iteri (fun i pg -> expect_len ~what:(Printf.sprintf "break %d" i) (P.claim pg)) pgs;
      (match P.claim probe with
      | P.Normal _ -> ()
      | _ -> failwith "E19: probe call failed after resubmit");
      (S.now sched -. t0, world.w_msgs () - m0, world.w_bytes () - b0)
  | None ->
      (* TCP: cut every socket at B mid-loop; supervision redials and
         resubmits, the push channel redials on its next use. *)
      let sup =
        Sup.supervise_agent
          ~config:
            {
              Sup.default_config with
              Sup.backoff_base = 2e-3;
              backoff_max = 20e-3;
              backoff_jitter = 0.0;
              retry_budget = 16;
            }
          ag_b ~dst:world.w_mid_addr ~gid:"main"
      in
      let pgs =
        List.init n (fun i ->
            let pf = R.Call.(submit (defer_result (make hB i))) in
            R.Call.(submit (piped hC (R.pipe pf))))
      in
      R.flush hC;
      List.iteri
        (fun i pg ->
          if i = n / 3 then (Option.get world.w_drop_mid) ();
          expect_len ~what:(Printf.sprintf "break %d" i) (P.claim pg))
        pgs;
      Sup.stop sup;
      (S.now sched -. t0, world.w_msgs () - m0, world.w_bytes () - b0)

let peek_sched sched name = Sim.Stats.peek (S.stats sched) name

let row_of ~mode ~backend ~calls world (time, msgs, bytes) =
  {
    r_mode = mode;
    r_backend = backend;
    r_calls = calls;
    r_ok = true;
    r_time = time;
    r_msgs = msgs;
    r_bytes = bytes;
    r_forwards = peek_sched world.w_sched "handoff_forwards";
    r_fallbacks = peek_sched world.w_sched "handoff_fallbacks";
    r_dup_execs = dup_execs world;
  }

let skip ~mode ~calls reason =
  {
    r_mode = mode;
    r_backend = "tcp: skipped (" ^ reason ^ ")";
    r_calls = calls;
    r_ok = false;
    r_time = nan;
    r_msgs = 0;
    r_bytes = 0;
    r_forwards = 0;
    r_fallbacks = 0;
    r_dup_execs = 0;
  }

let sim_row ~label ~n body =
  let w = make_sim_world () in
  row_of ~mode:label ~backend:"sim" ~calls:n w (run_world w (body w ~n))

let tcp_row ~label ~n body =
  match make_tcp_world () with
  | Error reason -> skip ~mode:label ~calls:n reason
  | Ok w -> (
      match run_world w (body w ~n) with
      | result ->
          let row = row_of ~mode:label ~backend:"tcp" ~calls:n w result in
          w.w_close ();
          row
      | exception Unix.Unix_error (e, _, _) ->
          w.w_close ();
          skip ~mode:label ~calls:n (Unix.error_message e))

let loop_body mode w ~n () = measured w ~mode ~n

let e19_rows ?(n = 8) ?(n_break = 6) () =
  [
    sim_row ~label:"proxy" ~n (loop_body `Proxy);
    tcp_row ~label:"proxy" ~n (loop_body `Proxy);
    sim_row ~label:"handoff" ~n (loop_body `Handoff);
    tcp_row ~label:"handoff" ~n (loop_body `Handoff);
    sim_row ~label:"handoff+break" ~n:n_break (fun w ~n -> break_body w ~n);
    tcp_row ~label:"handoff+break" ~n:n_break (fun w ~n -> break_body w ~n);
  ]

let e19 ?(n = 8) ?(n_break = 6) () =
  let rows = e19_rows ~n ~n_break () in
  let render r =
    [
      r.r_mode;
      r.r_backend;
      Table.cell_i r.r_calls;
      (if r.r_ok then Table.cell_ms r.r_time else "-");
      (if r.r_ok then Table.cell_i r.r_msgs else "-");
      (if r.r_ok then Table.cell_i r.r_bytes else "-");
      (if r.r_ok then Table.cell_i r.r_forwards else "-");
      (if r.r_ok then Table.cell_i r.r_fallbacks else "-");
      (if r.r_ok then Table.cell_i r.r_dup_execs else "-");
    ]
  in
  Table.make ~id:"E19"
    ~title:
      (Printf.sprintf
         "third-party handoff: %d-byte blobs delegated A->B->C, proxy vs direct handoff"
         blob_bytes)
    ~header:
      [ "mode"; "backend"; "calls"; "completion"; "msgs"; "bytes"; "forwards"; "fallbacks"; "dup execs" ]
    ~notes:
      [
        "proxy claims the blob at A and re-sends it (payload crosses B->A then A->C, and the \
         dependent call waits a full round trip); handoff defers B's reply, forwards the \
         dependent call to C with an annotated reference, and B pushes the blob straight to C \
         (docs/HANDOFF.md) — strictly fewer bytes and one hop less latency per delegation on \
         the same backend";
        "'forwards' counts producer-side outcome pushes, 'fallbacks' refused handoffs that \
         fell back to proxying (0 on a clean run)";
        "handoff+break cuts the A<->B path mid-flight and resubmits (manually on sim, via a \
         supervisor over tcp): 'dup execs' counts handler executions beyond the first per \
         argument and must be 0 — exactly-once holds across handoff + resubmission";
        "tcp rows print '-' and a skip reason when the sandbox forbids sockets";
      ]
    (List.map render rows)

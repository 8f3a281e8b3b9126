(* Experiment E18: lazy frame views (docs/WIRE.md). Arguments stay
   encoded until a handler actually consumes them — visible in the
   serve row as decoded == lazy (every call executes) and in the shed
   row as decoded << lazy (shed calls are rejected from the envelope
   scan alone, their argument bytes never built into a tree). *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise

type row = {
  r_mode : string;  (** "serve" or "shed" *)
  r_calls : int;
  r_time : float;  (** completion, simulated seconds *)
  r_msgs : int;  (** network messages of any kind *)
  r_bytes : int;  (** actual encoded bytes on the wire *)
  r_lazy : int;  (** calls whose args arrived as an encoded view *)
  r_forced : int;  (** argument views materialized into trees *)
  r_sheds : int;  (** calls rejected [unavailable] by the receiver *)
  r_unavail : int;  (** calls surfaced [unavailable] to the claimant *)
  r_decode_errors : int;  (** frames a receiver could not decode *)
}

(* String-keyed calls with a string reply. The port and group names
   are part of the pinned E18 bytes. *)
let work_sig =
  Core.Sigs.hsig0 "dict_work" ~arg:(Xdr.pair Xdr.string Xdr.int) ~res:Xdr.string

let key_pool = 16

let key i = Printf.sprintf "shard-host-%02d.internal" (i mod key_pool)

let run_one ?(n = 400) ~mode () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched { Net.default_config with Net.wire_latency = 1e-3 } in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  let service, gcfg =
    match mode with
    | `Serve -> (0.0, Cstream.Group_config.default)
    | `Shed ->
        (* A deliberately slow handler behind a shallow shed mark:
           batched frames land 16 calls at once, the lane queue crosses
           the mark, and most calls are rejected at delivery — before
           their arguments are ever decoded. *)
        (1e-3, Cstream.Group_config.(default |> with_dedup |> with_shed 4))
  in
  G.register_group server ~group:"dict" ~config:gcfg ();
  G.register server ~group:"dict" work_sig (fun ctx (k, _i) ->
      if service > 0.0 then S.sleep ctx.G.sched service;
      Ok k);
  let ccfg = Fixtures.chan_config (Stream 16) in
  let ok = ref 0 and unavail = ref 0 in
  let claim p =
    match P.claim p with
    | P.Normal _ -> incr ok
    | P.Unavailable _ -> incr unavail
    | P.Signal _ | P.Failure _ -> failwith "E18: unexpected outcome"
  in
  let time =
    Fixtures.timed_run sched (fun () ->
        let ag = Core.Agent.create client_hub ~name:"bench" ~config:ccfg () in
        let h = R.bind ag ~dst:(Net.address server_node) ~gid:"dict" work_sig in
        match mode with
        | `Serve ->
            (* Rounds of one full batch, claimed before the next round
               goes out: a steady bidirectional stream. *)
            let rounds = (n + 15) / 16 in
            for r = 0 to rounds - 1 do
              let m = min 16 (n - (r * 16)) in
              let ps = List.init m (fun i -> R.stream_call h (key ((r * 16) + i), (r * 16) + i)) in
              R.flush h;
              List.iter claim ps
            done
        | `Shed ->
            (* One saturating burst: batched frames land faster than the
               slow handler drains its lane, crossing the shed mark. *)
            let ps = List.init n (fun i -> R.stream_call h (key i, i)) in
            R.flush h;
            List.iter claim ps)
  in
  let net_stats = Net.stats net in
  let stats = S.stats sched in
  if Sim.Stats.peek stats "chan_decode_errors" > 0 then
    failwith "E18: receiver hit decode errors";
  {
    r_mode = (match mode with `Serve -> "serve" | `Shed -> "shed");
    r_calls = n;
    r_time = time;
    r_msgs = Sim.Stats.peek net_stats "msgs_sent";
    r_bytes = Sim.Stats.peek net_stats "bytes_sent";
    r_lazy = Sim.Stats.peek stats "target_lazy_args";
    r_forced = Sim.Stats.peek stats "target_args_materialized";
    r_sheds = Sim.Stats.peek stats "target_sheds";
    r_unavail = !unavail;
    r_decode_errors = Sim.Stats.peek stats "chan_decode_errors";
  }

let e18_rows ?(n = 400) () = List.map (fun mode -> run_one ~n ~mode ()) [ `Serve; `Shed ]

let e18 ?(n = 400) () =
  let rows = e18_rows ~n () in
  let render r =
    [
      r.r_mode;
      Table.cell_i r.r_calls;
      Table.cell_i r.r_msgs;
      Table.cell_i r.r_bytes;
      Table.cell_f (float_of_int r.r_bytes /. float_of_int r.r_calls);
      Table.cell_i r.r_lazy;
      Table.cell_i r.r_forced;
      Table.cell_i r.r_sheds;
      Table.cell_i r.r_unavail;
      Table.cell_i r.r_decode_errors;
      Table.cell_ms r.r_time;
    ]
  in
  Table.make ~id:"E18"
    ~title:
      (Printf.sprintf
         "zero-copy wire path: lazy views for %d string-keyed calls (%d distinct keys)"
         n key_pool)
    ~header:
      [
        "mode"; "calls"; "msgs"; "bytes"; "bytes/call"; "lazy args"; "args decoded"; "sheds";
        "unavail"; "decode errs"; "completion";
      ]
    ~notes:
      [
        "arguments arrive as lazy views over the frame: 'lazy args' counts calls delivered \
         still-encoded, 'args decoded' the views forced into trees for a handler. Serving \
         decodes every call; shedding rejects from the envelope scan alone, so shed calls \
         never pay the argument decode";
        "every frame decodes on its own (the E12 golden table pins its bytes); 'decode \
         errs' must be 0 on every run";
      ]
    (List.map render rows)

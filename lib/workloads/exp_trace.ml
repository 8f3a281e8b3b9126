(* Causal trace dumps (docs/TRACING.md): small deterministic scenarios
   run with the scheduler's span store enabled, rendered as per-promise
   timelines and a per-stream gantt. Driven by `experiments --trace`
   (and archived as a CI artifact); the chaos gate prints the
   companion {!Exp_chaos.trace_story} when an invariant breaks. *)

module S = Sched.Scheduler
module P = Core.Promise
module R = Core.Remote
module CH = Cstream.Chanhub
module G = Argus.Guardian

(* Batching config matching E13: a pipelined chain coalesces into one
   message, so the timelines show one Transmit per packet, not per
   call. *)
let chain_config = { CH.default_config with CH.max_batch = 16; flush_interval = 1e-3 }

(* E13's pipelined chain, traced: a root call plus [depth - 1]
   dependent calls, each referencing the previous not-yet-ready result
   ({!Remote.pipe}). Returns the span store and the last link's trace
   id. The group executes unordered (the §2.1 override) with a real
   per-call service time, so each dependent call dispatches while its
   producer is still executing and genuinely {e parks}: its timeline
   shows the full pipelined story — issue → enqueue → transmit →
   deliver → dispatch → park → substitute → execute → reply → claim. *)
let pipelined_chain ?(depth = 4) () =
  let pair =
    Fixtures.make_pair
      ~cfg:{ Net.default_config with Net.wire_latency = 1e-3 }
      ~group_config:
        Cstream.Group_config.(
          default |> with_reply_config chain_config |> with_ordered false)
      ()
  in
  let spans = S.spans pair.Fixtures.sched in
  Sim.Span.enable spans true;
  G.register pair.Fixtures.server ~group:"main" Fixtures.work_sig (fun ctx n ->
      S.sleep ctx.G.sched 2e-3;
      Ok (n + 1));
  let last = ref None in
  ignore
    (Fixtures.timed_run pair.Fixtures.sched (fun () ->
         let h = Fixtures.work_handle pair ~config:chain_config ~agent:"tracer" () in
         let p = ref (R.stream_call h 0) in
         for _ = 2 to depth do
           p := R.Call.(submit (piped h (R.pipe !p)))
         done;
         R.flush h;
         (match P.claim !p with
         | P.Normal v when v = depth -> ()
         | P.Normal v -> failwith (Printf.sprintf "chain returned %d, wanted %d" v depth)
         | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "pipelined chain failed");
         last := P.trace !p)
      : float);
  (spans, !last)

(* The edges a pipelined dependent call must traverse, in order; the
   dump asserts the last link saw every one of them, so the rendered
   story is also a checked invariant. *)
let pipelined_edges =
  Sim.Span.
    [ Issue; Enqueue; Transmit; Deliver; Dispatch; Park; Substitute; Exec_begin; Exec_end;
      Reply; Ack; Claim ]

let render_pipelined ?depth () =
  let spans, last = pipelined_chain ?depth () in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "== trace: pipelined dependent-call chain (one trace per link; dependents park at \
     the receiver until their producer replies) ==\n\n";
  List.iter
    (fun tid ->
      Buffer.add_string buf (Sim.Span.timeline spans ~trace:tid);
      Buffer.add_char buf '\n')
    (Sim.Span.trace_ids spans);
  Buffer.add_string buf (Sim.Span.gantt spans);
  (match last with
  | None -> Buffer.add_string buf "\nWARNING: last link carried no trace id\n"
  | Some tid ->
      let missing =
        List.filter (fun k -> not (Sim.Span.has spans ~trace:tid k)) pipelined_edges
      in
      if missing = [] then
        Printf.bprintf buf
          "\nlast link (trace %d) traversed every pipelined edge: %s\n" tid
          (String.concat " -> " (List.map Sim.Span.kind_label pipelined_edges))
      else
        Printf.bprintf buf "\nWARNING: last link (trace %d) is missing edges: %s\n" tid
          (String.concat ", " (List.map Sim.Span.kind_label missing)));
  Buffer.contents buf

(* Crash + resubmit, traced: the chaos scenario at a small scale. The
   interesting timelines are the calls whose trace ids survive a break
   and reappear on the next incarnation. *)
let render_resubmit ?(seed = 1000) ?(n = 40) ?(horizon = 0.6) () =
  Exp_chaos.trace_story ~seed ~n ~horizon ()

let dump ?depth ?seed ?n ?horizon () =
  render_pipelined ?depth () ^ "\n" ^ render_resubmit ?seed ?n ?horizon ()

(* --- two-run diff (Sim.Span.diff, `experiments --trace-diff`) ------- *)

(* The same chain with every link claimed before the next is issued: no
   references cross the wire, so dependents never park or substitute at
   the receiver. Diffed against the pipelined run, those are exactly
   the edges that should show up left-only. *)
let claim_each_chain ?(depth = 4) () =
  let pair =
    Fixtures.make_pair
      ~cfg:{ Net.default_config with Net.wire_latency = 1e-3 }
      ~group_config:
        Cstream.Group_config.(
          default |> with_reply_config chain_config |> with_ordered false)
      ()
  in
  let spans = S.spans pair.Fixtures.sched in
  Sim.Span.enable spans true;
  G.register pair.Fixtures.server ~group:"main" Fixtures.work_sig (fun ctx n ->
      S.sleep ctx.G.sched 2e-3;
      Ok (n + 1));
  ignore
    (Fixtures.timed_run pair.Fixtures.sched (fun () ->
         let h = Fixtures.work_handle pair ~config:chain_config ~agent:"tracer" () in
         let v = ref 0 in
         for _ = 1 to depth do
           let p = R.stream_call h !v in
           R.flush h;
           match P.claim p with
           | P.Normal r -> v := r
           | P.Signal _ | P.Unavailable _ | P.Failure _ ->
               failwith "claim-each chain failed"
         done;
         if !v <> depth then
           failwith (Printf.sprintf "chain returned %d, wanted %d" !v depth))
      : float);
  spans

(* Both demonstrations of the diff tool, WARNING-gated like the dump:
   two same-seed runs of the pipelined chain must take identical edges
   (the determinism story, the same property test/test_domains.ml
   regresses), and pipelined-vs-claim-each must differ by at least the
   park/substitute edges only the pipelined run takes. *)
let render_diff ?(depth = 4) () =
  let buf = Buffer.create 4096 in
  let spans_a, _ = pipelined_chain ~depth () in
  let spans_b, _ = pipelined_chain ~depth () in
  let same = Sim.Span.diff spans_a spans_b in
  Buffer.add_string buf
    "== trace diff: pipelined chain vs itself (same seed, run twice) ==\n\n";
  Printf.bprintf buf "%s\n" (Format.asprintf "%a" Sim.Span.pp_diff same);
  if same <> [] then
    Buffer.add_string buf "WARNING: two same-seed runs took different edges\n";
  let spans_claim = claim_each_chain ~depth () in
  let delta = Sim.Span.diff spans_a spans_claim in
  Buffer.add_string buf
    "\n== trace diff: pipelined chain (left) vs claim-each-link chain (right) ==\n\n";
  Printf.bprintf buf "%s\n" (Format.asprintf "%a" Sim.Span.pp_diff delta);
  let left_has kind =
    List.exists
      (fun (side, e) -> side = `Left && e.Sim.Span.ev_kind = kind)
      delta
  in
  if left_has Sim.Span.Park && left_has Sim.Span.Substitute then
    Buffer.add_string buf
      "pipelined-only edges present: dependents park and substitute at the receiver; \
       the claim-each run round-trips instead\n"
  else
    Buffer.add_string buf
      "WARNING: expected left-only park/substitute edges in the pipelined run\n";
  Buffer.contents buf

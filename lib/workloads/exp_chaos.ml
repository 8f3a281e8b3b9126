(* Experiment E7: cross-incarnation exactly-once under injected chaos.

   A counter guardian is hammered by a supervised client while a
   seeded fault scenario crashes the guardian's node, partitions the
   network and injects loss bursts. The client stream is supervised
   (automatic restart with backoff + resubmission of in-flight calls
   with stable call-ids); the guardian's group deduplicates on those
   call-ids. The invariant checked per seed: no increment acknowledged
   to the client is lost, and no increment is applied twice — even
   though the transport saw duplicates, retransmits and whole stream
   reincarnations. Crashes here model a stable-state guardian (§6 of
   the paper): the node is unreachable while down but its state —
   including its outcome registry — survives recovery. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise
module Sup = Core.Supervisor

let inc_sig = Core.Sigs.hsig0 "inc" ~arg:Xdr.int ~res:Xdr.int

(* Fast break detection so outages convert into stream breaks (and
   hence supervisor work) quickly. *)
let chan_cfg =
  { CH.default_config with CH.max_batch = 4; flush_interval = 0.5e-3; retransmit_timeout = 4e-3; max_retries = 3 }

let sup_cfg =
  {
    Sup.backoff_base = 5e-3;
    backoff_factor = 2.0;
    backoff_max = 0.1;
    backoff_jitter = 0.2;
    retry_budget = 10;
    open_timeout = 0.2;
  }

type run_result = {
  r_accepted : int;  (* calls the stream accepted (a promise exists) *)
  r_rejected : int;  (* calls refused at submission (stream broken) *)
  r_normal : int;
  r_unavail : int;
  r_unresolved : int;  (* promises still blocked at claim timeout *)
  r_doubly : int;  (* op-ids applied more than once: must be 0 *)
  r_lost : int;  (* acknowledged Normal but not applied exactly once: must be 0 *)
  r_breaks : int;
  r_restarts : int;
  r_replays : int;  (* receiver-side dedup replays *)
  r_restored : bool;  (* a probe call succeeded after the chaos, no manual restart *)
}

let run_raw ~trace ~seed ~n ~horizon =
  let sched = S.create ~seed () in
  if trace then Sim.Span.enable (S.spans sched) true;
  let net = Net.create sched (Net.lossy ~loss:0.01 ~dup:0.05 Net.default_config) in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"counter" in
  G.register_group server ~group:"ctr"
    ~config:Cstream.Group_config.(default |> with_reply_config chan_cfg |> with_dedup)
    ();
  let counter = ref 0 in
  let app_counts : (int, int) Hashtbl.t = Hashtbl.create 512 in
  G.register server ~group:"ctr" inc_sig (fun ctx op ->
      S.sleep ctx.G.sched 0.3e-3;
      incr counter;
      Hashtbl.replace app_counts op
        (1 + Option.value ~default:0 (Hashtbl.find_opt app_counts op));
      Ok !counter);
  let inj = Fault.create net ~nodes:[ client_node; server_node ] in
  let scenario =
    Fault.random_scenario
      ~rng:(Sim.Rng.split (S.rng sched))
      ~victims:[ "server" ]
      ~pairs:[ ("client", "server") ]
      ~horizon ~outages:3 ~min_down:0.05 ~max_down:0.4 ~loss_bursts:1 ()
  in
  Fault.schedule inj scenario;
  let outcomes : (int, _ P.outcome) Hashtbl.t = Hashtbl.create 512 in
  let unresolved = ref 0 in
  let accepted = ref 0 and rejected = ref 0 in
  let restored = ref false in
  ignore
    (Fixtures.timed_run sched (fun () ->
         let ag = Core.Agent.create client_hub ~name:"chaos" ~config:chan_cfg () in
         let h = R.bind ag ~dst:(Net.address server_node) ~gid:"ctr" inc_sig in
         let sup =
           Sup.supervise_agent ~config:sup_cfg ag ~dst:(Net.address server_node) ~gid:"ctr"
         in
         let spacing = horizon /. float_of_int n in
         let promises = ref [] in
         for op = 0 to n - 1 do
           (match R.stream_call h op with
           | p ->
               incr accepted;
               promises := (op, p) :: !promises
           | exception P.Unavailable_exn _ ->
               (* Refused before reaching the wire (mid-backoff or open
                  breaker): definitely never executed, safe to drop. *)
               incr rejected);
           S.sleep sched spacing
         done;
         R.flush h;
         List.iter
           (fun (op, p) ->
             let o = P.claim_timeout p ~timeout:(2.0 *. horizon) in
             if P.ready p then Hashtbl.replace outcomes op o else incr unresolved)
           (List.rev !promises);
         (* Chaos is over (the scenario heals everything by 0.9 *
            horizon): the supervisor must have restored service on its
            own — probe with fresh calls, never calling restart. *)
         let attempts = ref 0 in
         while (not !restored) && !attempts < 100 do
           incr attempts;
           match R.rpc h (n + !attempts) with
           | P.Normal _ -> restored := true
           | P.Signal _ | P.Unavailable _ | P.Failure _ -> S.sleep sched 20e-3
           | exception P.Unavailable_exn _ -> S.sleep sched 20e-3
         done;
         Sup.stop sup));
  let stat name = Sim.Stats.count (Sim.Stats.counter (S.stats sched) name) in
  let doubly = Hashtbl.fold (fun _ c acc -> if c > 1 then acc + 1 else acc) app_counts 0 in
  let normal = ref 0 and unavail = ref 0 and lost = ref 0 in
  for op = 0 to n - 1 do
    match Hashtbl.find_opt outcomes op with
    | Some (P.Normal _) ->
        incr normal;
        if Option.value ~default:0 (Hashtbl.find_opt app_counts op) <> 1 then incr lost
    | Some (P.Unavailable _) -> incr unavail
    | Some (P.Signal _ | P.Failure _) | None -> ()
  done;
  ( {
      r_accepted = !accepted;
      r_rejected = !rejected;
      r_normal = !normal;
      r_unavail = !unavail;
      r_unresolved = !unresolved;
      r_doubly = doubly;
      r_lost = !lost;
      r_breaks = stat "stream_breaks";
      r_restarts = stat "sup_restarts";
      r_replays = stat "target_dedup_replays";
      r_restored = !restored;
    },
    sched )

let run_one ~seed ~n ~horizon = fst (run_raw ~trace:false ~seed ~n ~horizon)

(* The causal story of one chaos run (docs/TRACING.md): the same seed
   re-run with the span store enabled, rendered as the timelines of the
   calls that crossed an incarnation — resubmitted after a break,
   joined onto an in-flight duplicate, or answered from the dedup
   cache — followed by the per-stream gantt. This is what a failing
   chaos gate prints: which call, on which incarnation, took which path
   to its reply. *)
let trace_story ?(max_timelines = 8) ~seed ~n ~horizon () =
  let r, sched = run_raw ~trace:true ~seed ~n ~horizon in
  let spans = S.spans sched in
  let all = Sim.Span.trace_ids spans in
  let crossed =
    List.filter
      (fun tid ->
        Sim.Span.has spans ~trace:tid Sim.Span.Resubmit
        || Sim.Span.has spans ~trace:tid Sim.Span.Dedup_join
        || Sim.Span.has spans ~trace:tid Sim.Span.Dedup_replay)
      all
  in
  let buf = Buffer.create 8192 in
  Printf.bprintf buf
    "== causal story: chaos seed %d (%d calls; lost=%d doubly=%d unresolved=%d breaks=%d \
     restarts=%d replays=%d) ==\n\n"
    seed n r.r_lost r.r_doubly r.r_unresolved r.r_breaks r.r_restarts r.r_replays;
  Printf.bprintf buf
    "%d of %d traced calls crossed an incarnation (resubmit / dedup join / dedup replay)"
    (List.length crossed) (List.length all);
  let shown = List.filteri (fun i _ -> i < max_timelines) crossed in
  Printf.bprintf buf "; showing %d:\n\n" (List.length shown);
  List.iter
    (fun tid ->
      Buffer.add_string buf (Sim.Span.timeline spans ~trace:tid);
      Buffer.add_char buf '\n')
    shown;
  Buffer.add_string buf (Sim.Span.gantt spans);
  Buffer.contents buf

let e7 ?(seeds = 10) ?(n = 200) ?(horizon = 2.0) () =
  let rows =
    List.init seeds (fun i ->
        let seed = 1000 + (17 * i) in
        let r = run_one ~seed ~n ~horizon in
        [
          string_of_int seed;
          Table.cell_i r.r_accepted;
          Table.cell_i r.r_rejected;
          Table.cell_i r.r_normal;
          Table.cell_i r.r_unavail;
          Table.cell_i r.r_unresolved;
          Table.cell_i r.r_lost;
          Table.cell_i r.r_doubly;
          Table.cell_i r.r_breaks;
          Table.cell_i r.r_restarts;
          Table.cell_i r.r_replays;
          (if r.r_restored then "yes" else "NO");
        ])
  in
  Table.make ~id:"E7"
    ~title:
      (Printf.sprintf
         "chaos: %d increments under crash/partition/loss schedules, %d seeds (invariant: \
          lost = doubly = 0, restored = yes)"
         n seeds)
    ~header:
      [
        "seed";
        "accepted";
        "rejected";
        "normal";
        "unavail";
        "unresolved";
        "lost";
        "doubly";
        "breaks";
        "restarts";
        "dedup replays";
        "restored";
      ]
    ~notes:
      [
        "supervised stream + stable call-ids + receiver dedup give cross-incarnation \
         exactly-once: every acknowledged increment applied exactly once (lost = 0), no \
         increment applied twice (doubly = 0), despite breaks and resubmissions";
        "rejected = calls refused while the breaker was open or mid-backoff (never reached \
         the wire); unavail = in-flight calls the supervisor gave up on (applied at most \
         once)";
        "restored = a fresh call succeeds after the schedule heals, with no manual restart";
      ]
    rows

(* True iff every seed upholds the invariants — the @chaos alias and
   test_chaos gate on this. A failing seed re-runs with tracing on and
   prints its causal story to stderr, so the assertion failure arrives
   with the per-call timelines that explain it. *)
let check ?(seeds = 10) ?(n = 200) ?(horizon = 2.0) () =
  List.for_all
    (fun i ->
      let seed = 1000 + (17 * i) in
      let r = run_one ~seed ~n ~horizon in
      let ok = r.r_lost = 0 && r.r_doubly = 0 && r.r_unresolved = 0 && r.r_restored in
      if not ok then begin
        Printf.eprintf
          "chaos invariant violated at seed %d (lost=%d doubly=%d unresolved=%d \
           restored=%b); re-running traced:\n%s\n%!"
          seed r.r_lost r.r_doubly r.r_unresolved r.r_restored
          (trace_story ~seed ~n ~horizon ())
      end;
      ok)
    (List.init seeds Fun.id)

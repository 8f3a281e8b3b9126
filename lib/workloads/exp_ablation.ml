module S = Sched.Scheduler
module CH = Cstream.Chanhub
module R = Core.Remote
module P = Core.Promise
module G = Argus.Guardian

let stream_cfg = Fixtures.chan_config (Stream 16)

(* --- A1: receiver execution discipline ----------------------------- *)

(* Service times alternate between fast and slow so that concurrent
   execution visibly reorders completions. *)
let service_of i = if i mod 5 = 0 then 2e-3 else 0.2e-3

let run_discipline ~ordered ~n =
  let sched = S.create () in
  let net = Net.create sched Net.default_config in
  let cnode = Net.add_node net ~name:"client" in
  let snode = Net.add_node net ~name:"server" in
  let chub = CH.create_hub ~net:(net, cnode) () in
  let shub = CH.create_hub ~net:(net, snode) () in
  let server = G.create shub ~name:"server" in
  G.register_group server ~group:"main"
    ~config:Cstream.Group_config.(default |> with_reply_config stream_cfg |> with_ordered ordered)
    ();
  let executed = ref [] in
  G.register server ~group:"main" Fixtures.work_sig (fun ctx i ->
      S.sleep ctx.G.sched (service_of i);
      executed := i :: !executed;
      Ok i);
  let reply_inversions = ref 0 in
  let last_reply = ref (-1) in
  let time =
    Fixtures.timed_run sched (fun () ->
        let agent = Core.Agent.create chub ~name:"bench" ~config:stream_cfg () in
        let h = R.bind agent ~dst:(Net.address snode) ~gid:"main" Fixtures.work_sig in
        let promises =
          List.init n (fun i ->
              let p = R.stream_call h i in
              P.on_ready p (fun _ ->
                  (* replies must become ready in call order either way *)
                  if i < !last_reply then incr reply_inversions;
                  if i > !last_reply then last_reply := i);
              p)
        in
        R.flush h;
        List.iter (fun p -> ignore (P.claim p : (int, Core.Sigs.nothing) P.outcome)) promises)
  in
  let executed = List.rev !executed in
  let exec_inversions =
    let rec count prev = function
      | [] -> 0
      | i :: rest -> (if i < prev then 1 else 0) + count (max prev i) rest
    in
    count (-1) executed
  in
  (time, exec_inversions, !reply_inversions)

let a1 ?(n = 50) () =
  let rows =
    List.map
      (fun ordered ->
        let time, exec_inv, reply_inv = run_discipline ~ordered ~n in
        [
          (if ordered then "in order (paper default)" else "concurrent (override)");
          Table.cell_ms time;
          Table.cell_i exec_inv;
          Table.cell_i reply_inv;
        ])
      [ true; false ]
  in
  Table.make ~id:"A1"
    ~title:
      (Printf.sprintf
         "ablation: receiver execution discipline, %d calls with uneven service times" n)
    ~header:[ "execution"; "completion"; "exec inversions"; "reply inversions" ]
    ~notes:
      [
        "§2.1: by default \"the Argus system will delay its execution until all earlier \
         calls on its stream have completed\"; the footnoted override executes calls \
         concurrently — faster under uneven service times, but the calls no longer appear \
         to happen in call order (exec inversions > 0). Reply order is preserved either \
         way, so promises still become ready in call order.";
      ]
    rows

(* --- A2: buffering policy ------------------------------------------ *)

let a2 ?(n = 200) () =
  let policies =
    [
      ("size only (B=16)", { CH.default_config with CH.max_batch = 16; flush_interval = infinity });
      ("timer only (1 ms)", { CH.default_config with CH.max_batch = 100000; flush_interval = 1e-3 });
      ("timer only (5 ms)", { CH.default_config with CH.max_batch = 100000; flush_interval = 5e-3 });
      ("size + timer (default)", stream_cfg);
    ]
  in
  let rows =
    List.map
      (fun (name, cfg) ->
        (* The ablation varies the sender's call buffering only; replies
           use the default policy (a size-only reply buffer would hold
           the final partial batch forever and hang synch). *)
        let pair =
          Fixtures.make_pair ~service:50e-6
            ~group_config:Cstream.Group_config.(default |> with_reply_config stream_cfg)
            ()
        in
        let h = Fixtures.work_handle pair ~config:cfg ~agent:"bench" () in
        let time =
          Fixtures.timed_run pair.Fixtures.sched (fun () ->
              for i = 1 to n do
                ignore (R.stream_call h i : (int, Core.Sigs.nothing) P.t)
              done;
              match R.synch h with
              | Ok () -> ()
              | Error _ -> failwith "stream broke")
        in
        let msgs =
          Sim.Stats.count (Sim.Stats.counter (Net.stats pair.Fixtures.net) "msgs_sent")
        in
        [ name; Table.cell_ms time; Table.cell_i msgs ])
      policies
  in
  Table.make ~id:"A2" ~title:(Printf.sprintf "ablation: sender buffering policy, %d calls" n)
    ~header:[ "policy"; "completion"; "msgs" ]
    ~notes:
      [
        "§2: \"stream calls and their replies are buffered and sent when convenient\" — a \
         size trigger alone leaves stragglers to the explicit flush/synch, a timer alone \
         trades latency for batching, and the combination (the default here) gets both.";
      ]
    rows

module S = Sched.Scheduler

type action =
  | Crash of string
  | Recover of string
  | Partition of string * string
  | Heal of string * string
  | Loss_burst of { rate : float; duration : float }
  | Jitter_burst of { jitter : float; duration : float }

type step = { at : float; action : action }

type scenario = step list

(* The injector is monomorphic in the network's message type: it closes
   over the handful of Net operations it drives, so one [t] works for
   any ['msg Net.t]. *)
type t = {
  f_sched : S.t;
  f_node : string -> Net.node;
  f_addr : string -> Net.address;
  f_crash : Net.node -> unit;
  f_recover : Net.node -> unit;
  f_partition : Net.address -> Net.address -> unit;
  f_heal : Net.address -> Net.address -> unit;
  f_update_config : (Net.config -> Net.config) -> unit;
}

let create net ~nodes =
  let tbl = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace tbl (Net.node_name n) n) nodes;
  let node name =
    match Hashtbl.find_opt tbl name with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "Fault.create: unknown node %S" name)
  in
  {
    f_sched = Net.sched net;
    f_node = node;
    f_addr = (fun name -> Net.address (node name));
    f_crash = Net.crash net;
    f_recover = Net.recover net;
    f_partition = Net.partition net;
    f_heal = Net.heal net;
    f_update_config = Net.update_config net;
  }

let counter t name = Sim.Stats.counter (S.stats t.f_sched) name

let apply t action =
  match action with
  | Crash name ->
      Sim.Stats.incr (counter t "fault_crashes");
      t.f_crash (t.f_node name)
  | Recover name ->
      Sim.Stats.incr (counter t "fault_recoveries");
      t.f_recover (t.f_node name)
  | Partition (a, b) ->
      Sim.Stats.incr (counter t "fault_partitions");
      t.f_partition (t.f_addr a) (t.f_addr b)
  | Heal (a, b) ->
      Sim.Stats.incr (counter t "fault_heals");
      t.f_heal (t.f_addr a) (t.f_addr b)
  | Loss_burst { rate; duration } ->
      Sim.Stats.incr (counter t "fault_loss_bursts");
      let baseline = ref 0.0 in
      t.f_update_config (fun cfg ->
          baseline := cfg.Net.loss_rate;
          { cfg with Net.loss_rate = rate });
      S.after t.f_sched duration (fun () ->
          t.f_update_config (fun cfg -> { cfg with Net.loss_rate = !baseline }))
  | Jitter_burst { jitter; duration } ->
      Sim.Stats.incr (counter t "fault_jitter_bursts");
      let baseline = ref 0.0 in
      t.f_update_config (fun cfg ->
          baseline := cfg.Net.jitter;
          { cfg with Net.jitter });
      S.after t.f_sched duration (fun () ->
          t.f_update_config (fun cfg -> { cfg with Net.jitter = !baseline }))

let schedule t scenario =
  List.iter
    (fun { at; action } ->
      if at < 0.0 then invalid_arg "Fault.schedule: negative step time";
      S.at t.f_sched at (fun () -> apply t action))
    scenario

(* Outages are laid out in sequential per-outage slots so they never
   overlap and every one heals before [0.95 * horizon] — the workload's
   tail is fault-free, giving supervisors room to converge so the
   invariant check measures recovery, not mid-outage state. *)
let random_scenario ~rng ~victims ?(pairs = []) ~horizon ?(outages = 4) ?(min_down = 0.05)
    ?(max_down = 0.5) ?(loss_bursts = 0) () =
  if victims = [] && pairs = [] then
    invalid_arg "Fault.random_scenario: no victims and no partition pairs";
  if outages < 0 || loss_bursts < 0 then invalid_arg "Fault.random_scenario: negative count";
  let t0 = 0.05 *. horizon in
  let t_end = 0.9 *. horizon in
  let span = if outages = 0 then 0.0 else (t_end -. t0) /. float_of_int outages in
  let outage_steps =
    List.concat
      (List.init outages (fun i ->
           let slot = t0 +. (float_of_int i *. span) in
           let start = slot +. Sim.Rng.float rng (0.3 *. span) in
           let down = min_down +. Sim.Rng.float rng (Float.max 1e-9 (max_down -. min_down)) in
           let stop = Float.min (start +. down) (slot +. (0.95 *. span)) in
           let use_partition = pairs <> [] && (victims = [] || Sim.Rng.bool rng) in
           if use_partition then begin
             let a, b = Sim.Rng.pick rng (Array.of_list pairs) in
             [ { at = start; action = Partition (a, b) }; { at = stop; action = Heal (a, b) } ]
           end
           else begin
             let v = Sim.Rng.pick rng (Array.of_list victims) in
             [ { at = start; action = Crash v }; { at = stop; action = Recover v } ]
           end))
  in
  let burst_steps =
    List.init loss_bursts (fun _ ->
        let at = t0 +. Sim.Rng.float rng (Float.max 1e-9 (t_end -. t0)) in
        let rate = 0.2 +. Sim.Rng.float rng 0.4 in
        let duration = Float.min (0.05 *. horizon) (Float.max min_down (0.02 *. horizon)) in
        { at; action = Loss_burst { rate; duration } })
  in
  List.sort (fun a b -> compare a.at b.at) (outage_steps @ burst_steps)

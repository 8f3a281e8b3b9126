module S = Sched.Scheduler

type address = int

type config = {
  kernel_overhead : float;
  wire_latency : float;
  per_byte : float;
  loss_rate : float;
  duplicate_rate : float;
  jitter : float;
}

let default_config =
  {
    kernel_overhead = 50e-6;
    wire_latency = 1e-3;
    per_byte = 1e-6;
    loss_rate = 0.0;
    duplicate_rate = 0.0;
    jitter = 0.0;
  }

let lossy ?(loss = 0.05) ?(dup = 0.0) config =
  { config with loss_rate = loss; duplicate_rate = dup }

type node = { addr : address; nname : string; mutable is_crashed : bool }

type 'msg t = {
  net_sched : S.t;
  mutable cfg : config;
  net_rng : Sim.Rng.t;
  net_stats : Sim.Stats.t;
  nodes : (address, node) Hashtbl.t;
  receivers : (address, src:address -> 'msg -> unit) Hashtbl.t;
  mutable next_addr : int;
  blocked : (address * address, unit) Hashtbl.t;
  (* Links are FIFO (like a real transport): per ordered (src, dst)
     pair, delivery times never decrease, so a small message cannot
     overtake a large one sent earlier. *)
  last_delivery : (address * address, float) Hashtbl.t;
}

let create sched cfg =
  {
    net_sched = sched;
    cfg;
    net_rng = Sim.Rng.split (S.rng sched);
    net_stats = Sim.Stats.create ();
    nodes = Hashtbl.create 8;
    receivers = Hashtbl.create 8;
    next_addr = 0;
    blocked = Hashtbl.create 8;
    last_delivery = Hashtbl.create 8;
  }

let sched t = t.net_sched

let stats t = t.net_stats

let config t = t.cfg

let update_config t f = t.cfg <- f t.cfg

let add_node t ~name =
  let n = { addr = t.next_addr; nname = name; is_crashed = false } in
  t.next_addr <- t.next_addr + 1;
  Hashtbl.add t.nodes n.addr n;
  n

let address n = n.addr

let node_name n = n.nname

let find_node t addr = Hashtbl.find_opt t.nodes addr

let set_receiver t node f =
  if not (Hashtbl.mem t.nodes node.addr) then
    invalid_arg "Net.set_receiver: node not in this network";
  Hashtbl.replace t.receivers node.addr f

let pair_key a b = if a < b then (a, b) else (b, a)

let partitioned t a b = Hashtbl.mem t.blocked (pair_key a b)

let partition t a b = Hashtbl.replace t.blocked (pair_key a b) ()

let heal t a b = Hashtbl.remove t.blocked (pair_key a b)

let crash _t node = node.is_crashed <- true

let recover _t node = node.is_crashed <- false

let crashed node = node.is_crashed

let counter t name = Sim.Stats.counter t.net_stats name

let deliver t ~src ~dst ~bytes_ msg =
  match find_node t dst with
  | Some n when n.is_crashed -> Sim.Stats.incr (counter t "msgs_dropped_crash")
  | None -> Sim.Stats.incr (counter t "msgs_dropped_no_receiver")
  | Some _ -> (
      match Hashtbl.find_opt t.receivers dst with
      | None -> Sim.Stats.incr (counter t "msgs_dropped_no_receiver")
      | Some f ->
          Sim.Stats.incr (counter t "msgs_delivered");
          Sim.Stats.add (counter t "bytes_delivered") bytes_;
          f ~src msg)

let send t ~src ~dst ~bytes_ msg =
  Sim.Stats.incr (counter t "msgs_sent");
  Sim.Stats.add (counter t "bytes_sent") bytes_;
  if src.is_crashed then Sim.Stats.incr (counter t "msgs_dropped_crash")
  else if partitioned t src.addr dst then Sim.Stats.incr (counter t "msgs_dropped_partition")
  else if Sim.Rng.chance t.net_rng t.cfg.loss_rate then Sim.Stats.incr (counter t "msgs_lost")
  else begin
    let sent_at = S.now t.net_sched in
    let schedule_delivery () =
      let delay =
        (2.0 *. t.cfg.kernel_overhead)
        +. t.cfg.wire_latency
        +. (t.cfg.per_byte *. float_of_int bytes_)
        +. (if t.cfg.jitter > 0.0 then Sim.Rng.float t.net_rng t.cfg.jitter else 0.0)
      in
      let arrival =
        let earliest =
          match Hashtbl.find_opt t.last_delivery (src.addr, dst) with
          | Some last -> Float.max (sent_at +. delay) last
          | None -> sent_at +. delay
        in
        Hashtbl.replace t.last_delivery (src.addr, dst) earliest;
        earliest
      in
      S.at t.net_sched arrival (fun () ->
          (* A partition that appears while the message is in flight
             loses it. *)
          if partitioned t src.addr dst then
            Sim.Stats.incr (counter t "msgs_dropped_partition")
          else deliver t ~src:src.addr ~dst ~bytes_ msg)
    in
    schedule_delivery ();
    if Sim.Rng.chance t.net_rng t.cfg.duplicate_rate then begin
      Sim.Stats.incr (counter t "msgs_duplicated");
      schedule_delivery ()
    end
  end

(* Experiment E14: sharded port-group execution. The paper's call
   streams execute a stream's calls strictly in order (§2.1), so a hot
   guardian serialises every call behind one driver fiber no matter how
   many cores the node has. Sharding a group across N worker lanes
   keyed by a partition of the first argument relaxes global order to
   per-key order: calls on the same key still execute in call order
   (and replies leave in per-stream call order regardless), while
   independent keys run in parallel. The independent-key series shows
   call throughput scaling with the lane count on a CPU-bound handler;
   the same-key series shows the ordering contract is kept — all calls
   collapse onto one lane and the series stays flat (docs/SHARDING.md). *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise

type row = {
  r_series : string;
  r_shards : int;
  r_calls : int;
  r_time : float;  (** completion (simulated seconds) *)
  r_throughput : float;  (** calls per simulated second *)
  r_speedup : float;  (** vs the 1-shard row of the same series *)
  r_dispatches : int;  (** sharded dispatches (0 on the 1-shard rows) *)
  r_queue_hwm : int;  (** lane queue depth high-water mark *)
  r_imbalance : int;  (** max-min lane load high-water mark *)
  r_ordered : bool;  (** every key saw its calls in call order *)
}

(* (key, op) -> op; the default shard key hashes the first Pair
   component, so this shards on [key] alone. *)
let shard_sig =
  Core.Sigs.hsig0 "shard_work" ~arg:(Xdr.pair Xdr.int Xdr.int) ~res:Xdr.int

(* Deep batches so the wire feeds the lanes faster than they drain. *)
let chan_cfg = { CH.default_config with CH.max_batch = 32; flush_interval = 0.5e-3 }

let run_one ~series ~shards ~cores ~n ~service ~keys () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched Net.default_config in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  let cpu = Cpu.create sched ~cores in
  G.register_group server ~group:"hot"
    ~config:Cstream.Group_config.(default |> with_reply_config chan_cfg |> with_shards shards)
    ();
  (* Per-key order book: each handler call records its op under its
     key; the series is ordered iff every key's ops arrive increasing. *)
  let seen : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let ordered = ref true in
  G.register server ~group:"hot" shard_sig (fun _ctx (key, op) ->
      (match Hashtbl.find_opt seen key with
      | Some (last :: _) when last >= op -> ordered := false
      | _ -> ());
      Hashtbl.replace seen key (op :: Option.value ~default:[] (Hashtbl.find_opt seen key));
      Cpu.consume cpu service;
      Ok op);
  let time =
    Fixtures.timed_run sched (fun () ->
        let ag = Core.Agent.create client_hub ~name:"load" ~config:chan_cfg () in
        let h = R.bind ag ~dst:(Net.address server_node) ~gid:"hot" shard_sig in
        let promises =
          List.init n (fun i ->
              let key = if keys = 1 then 0 else i mod keys in
              let op = if keys = 1 then i else i / keys in
              R.stream_call h (key, op))
        in
        R.flush h;
        List.iter
          (fun p ->
            match P.claim p with
            | P.Normal _ -> ()
            | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "E14: call failed")
          promises)
  in
  let stats = S.stats sched in
  let executed = Hashtbl.fold (fun _ ops acc -> acc + List.length ops) seen 0 in
  if executed <> n then failwith "E14: not every call executed";
  {
    r_series = series;
    r_shards = shards;
    r_calls = n;
    r_time = time;
    r_throughput = float_of_int n /. time;
    r_speedup = 1.0 (* filled in against the 1-shard row below *);
    r_dispatches = Sim.Stats.peek stats "shard_dispatches";
    r_queue_hwm = Sim.Stats.peek stats "shard_queue_hwm";
    r_imbalance = Sim.Stats.peek stats "shard_imbalance";
    r_ordered = !ordered;
  }

let series ~name ~keys ~shard_counts ~cores ~n ~service () =
  let rows =
    List.map (fun shards -> run_one ~series:name ~shards ~cores ~n ~service ~keys ()) shard_counts
  in
  match rows with
  | [] -> []
  | base :: _ -> List.map (fun r -> { r with r_speedup = base.r_time /. r.r_time }) rows

let e14_rows ?(n = 240) ?(service = 1e-3) ?(cores = 8) ?(shard_counts = [ 1; 2; 4; 8 ]) () =
  series ~name:"independent keys" ~keys:n ~shard_counts ~cores ~n ~service ()
  @ series ~name:"same key" ~keys:1 ~shard_counts ~cores ~n ~service ()

let e14 ?n ?service ?cores ?shard_counts () =
  let rows = e14_rows ?n ?service ?cores ?shard_counts () in
  let render r =
    [
      r.r_series;
      Table.cell_i r.r_shards;
      Table.cell_i r.r_calls;
      Table.cell_ms r.r_time;
      Table.cell_f r.r_throughput;
      Table.cell_f r.r_speedup;
      Table.cell_i r.r_dispatches;
      Table.cell_i r.r_queue_hwm;
      Table.cell_i r.r_imbalance;
      (if r.r_ordered then "yes" else "NO");
    ]
  in
  Table.make ~id:"E14"
    ~title:
      "sharded port group: CPU-bound calls (1 ms each, 8 cores), per-key parallel dispatch"
    ~header:
      [
        "series"; "shards"; "calls"; "completion"; "calls/s"; "speedup"; "dispatches";
        "queue hwm"; "imbalance"; "per-key order";
      ]
    ~notes:
      [
        "one stream of (key, op) calls into a group sharded across N worker lanes keyed by \
         hash of the key (docs/SHARDING.md); per-key call order and per-stream reply order \
         are preserved, independent keys execute concurrently";
        "'independent keys': every call its own key — completion drops roughly linearly in \
         the lane count until the 8 simulated cores bound it; 'same key': every call the \
         same key — all calls collapse onto one lane, the series stays flat and in order \
         (the paper's §2.1 per-stream guarantee, narrowed to the key)";
        "'queue hwm' / 'imbalance' are Sim.Stats high-water marks of lane queue depth and \
         of the spread between most- and least-loaded lane";
      ]
    (List.map render rows)

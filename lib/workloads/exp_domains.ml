(* Experiment E16: fibers vs domains on the E14-shaped workload
   (docs/DOMAINS.md). E14's 5.8x at 8 lanes is simulated speedup: shard
   lanes are cooperative fibers multiplexed on one OS thread, so with
   real (wall-clock) work they serialise no matter how many lanes the
   group has. This experiment runs the same one-stream, many-key,
   CPU-bound workload with handler bodies doing {e physical} work
   (Cpu.Real — a calibrated spin kernel) and compares:

   - "fibers": lanes only, everything on the simulator domain;
   - "domains": the same lanes offloading each handler body onto a
     Sched.Pool of 1/2/4/8 worker domains (Group_config.with_offload).

   Wall-clock completion is the measurement; per-key call order,
   per-stream reply order, and the exactly-once ledger (0 lost, 0
   duplicate calls) are checked on every row — the offload moves only
   the handler body, never the ordering machinery. On an N-core
   machine the domains series drops toward serial/N; the machine
   stanza in BENCH_domains.json records the cores the numbers were
   taken on. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise

type row = {
  r_mode : string;  (** "fibers" or "domains" *)
  r_pool : int;  (** worker domains (0 on the fibers row) *)
  r_lanes : int;  (** shard lanes in the receiving group *)
  r_calls : int;
  r_wall : float;  (** wall-clock completion, seconds *)
  r_throughput : float;  (** calls per wall-clock second *)
  r_speedup : float;  (** vs the 1-domain pool row *)
  r_ordered : bool;  (** every key saw its calls in call order *)
  r_lost : int;  (** calls never executed — must be 0 *)
  r_dups : int;  (** duplicate (key, op) executions — must be 0 *)
}

let domains_sig =
  Core.Sigs.hsig0 "domain_work" ~arg:(Xdr.pair Xdr.int Xdr.int) ~res:Xdr.int

(* Deep batches so the wire feeds the lanes faster than they drain. *)
let chan_cfg = { CH.default_config with CH.max_batch = 32; flush_interval = 0.5e-3 }

(* One run: [n] calls over [keys] distinct keys into a [lanes]-sharded
   group whose handler burns [service] seconds of real work; [pool]
   decides fibers (None) vs domains (Some p). Returns the row with
   [r_speedup] unfilled. *)
let run_one ~mode ~pool ~lanes ~n ~keys ~service ~rate () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched Net.default_config in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  let cpu = Cpu.create ~mode:(Cpu.Real rate) sched ~cores:lanes in
  let pool_t = Option.map (fun p -> Sched.Pool.create sched ~domains:p) pool in
  let config =
    let base =
      Cstream.Group_config.(default |> with_reply_config chan_cfg |> with_shards lanes)
    in
    match pool_t with
    | Some p -> Cstream.Group_config.with_offload p base
    | None -> base
  in
  G.register_group server ~group:"hot" ~config ();
  (* Per-key order book. With offload, handler bodies touch it from
     several worker domains at once (different keys — same-key calls
     stay serialised by their lane), so it is mutex-guarded. *)
  let book_m = Stdlib.Mutex.create () in
  let seen : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let ordered = ref true in
  G.register server ~group:"hot" domains_sig (fun _ctx (key, op) ->
      Stdlib.Mutex.lock book_m;
      (match Hashtbl.find_opt seen key with
      | Some (last :: _) when last >= op -> ordered := false
      | _ -> ());
      Hashtbl.replace seen key (op :: Option.value ~default:[] (Hashtbl.find_opt seen key));
      Stdlib.Mutex.unlock book_m;
      Cpu.consume cpu service;
      Ok op);
  let wall0 = Unix.gettimeofday () in
  ignore
    (Fixtures.timed_run sched (fun () ->
         let ag = Core.Agent.create client_hub ~name:"load" ~config:chan_cfg () in
         let h = R.bind ag ~dst:(Net.address server_node) ~gid:"hot" domains_sig in
         let promises =
           List.init n (fun i -> R.stream_call h (i mod keys, i / keys))
         in
         R.flush h;
         List.iter
           (fun p ->
             match P.claim p with
             | P.Normal _ -> ()
             | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "E16: call failed")
           promises)
      : float);
  let wall = Unix.gettimeofday () -. wall0 in
  Option.iter Sched.Pool.shutdown pool_t;
  (* The exactly-once ledger: every (key, op) issued appears in the
     book exactly once, in increasing op order per key. *)
  let executed = Hashtbl.fold (fun _ ops acc -> acc + List.length ops) seen 0 in
  let dups =
    Hashtbl.fold
      (fun _ ops acc ->
        let sorted = List.sort_uniq compare ops in
        acc + (List.length ops - List.length sorted))
      seen 0
  in
  {
    r_mode = mode;
    r_pool = (match pool with Some p -> p | None -> 0);
    r_lanes = lanes;
    r_calls = n;
    r_wall = wall;
    r_throughput = float_of_int n /. wall;
    r_speedup = 1.0 (* filled in against the 1-domain row below *);
    r_ordered = !ordered;
    r_lost = n - executed + dups;
    r_dups = dups;
  }

let e16_rows ?(n = 64) ?(keys = 16) ?(lanes = 8) ?(service = 1e-3)
    ?(pool_sizes = [ 1; 2; 4; 8 ]) () =
  let rate = Cpu.calibrate () in
  let fibers = run_one ~mode:"fibers" ~pool:None ~lanes ~n ~keys ~service ~rate () in
  let domains =
    List.map
      (fun p -> run_one ~mode:"domains" ~pool:(Some p) ~lanes ~n ~keys ~service ~rate ())
      pool_sizes
  in
  let rows = fibers :: domains in
  (* Normalise to the 1-domain pool row: it pays the full offload
     machinery with no parallelism, so it is the honest baseline for
     the domains series (and close to the fibers row). *)
  match List.find_opt (fun r -> r.r_pool = 1) rows with
  | None -> rows
  | Some base -> List.map (fun r -> { r with r_speedup = base.r_wall /. r.r_wall }) rows

let e16 ?n ?keys ?lanes ?service ?pool_sizes () =
  let rows = e16_rows ?n ?keys ?lanes ?service ?pool_sizes () in
  let render r =
    [
      r.r_mode;
      (if r.r_pool = 0 then "-" else Table.cell_i r.r_pool);
      Table.cell_i r.r_lanes;
      Table.cell_i r.r_calls;
      Table.cell_ms r.r_wall;
      Table.cell_f r.r_throughput;
      Table.cell_f r.r_speedup;
      (if r.r_ordered then "yes" else "NO");
      Table.cell_i r.r_lost;
      Table.cell_i r.r_dups;
    ]
  in
  Table.make ~id:"E16"
    ~title:
      (Printf.sprintf
         "multicore lanes: real CPU-bound handlers, fibers vs domain pool (wall-clock, %d \
          cores available)"
         (Domain.recommended_domain_count ()))
    ~header:
      [
        "mode"; "pool"; "lanes"; "calls"; "completion"; "calls/s"; "speedup"; "per-key order";
        "lost"; "dups";
      ]
    ~notes:
      [
        "the E14 workload with physical work: handlers burn calibrated wall-clock CPU \
         (Cpu.Real) instead of charging virtual time; 'fibers' runs them on the simulator \
         domain, 'domains' offloads each body onto a Sched.Pool (docs/DOMAINS.md)";
        "speedup is against the 1-domain pool row; on a single-core machine the series is \
         flat — physical parallelism needs physical cores (the machine stanza in \
         BENCH_domains.json records how many this run had)";
        "per-key call order, per-stream reply order and the exactly-once ledger (lost = \
         dups = 0) are asserted on every row: the offload moves only the handler body";
      ]
    (List.map render rows)

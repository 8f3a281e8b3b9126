(* Multicore lanes (docs/DOMAINS.md): the Sched.Pool offload path and
   the domain-safety of the telemetry it touches. Pool.run round-trips
   values and exceptions through a worker domain; offloaded handler
   bodies under a sharded group keep per-key order and exactly-once;
   and — the regression that guards everything else — a simulation that
   never touches a pool is still byte-for-byte deterministic: two
   same-seed runs produce identical span dumps and identical counter
   tables (including the wire byte counters, so the wire is
   byte-identical too). *)

module S = Sched.Scheduler
module P = Core.Promise
module R = Core.Remote
module CH = Cstream.Chanhub
module GC = Cstream.Group_config
module G = Argus.Guardian

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* ------------------------------------------------------------------ *)
(* Pool.run basics *)

let pool_value () =
  let sched = S.create () in
  let pool = Sched.Pool.create sched ~domains:2 in
  check Alcotest.int "size" 2 (Sched.Pool.size pool);
  let got = ref 0 in
  ignore (S.spawn sched (fun () -> got := Sched.Pool.run pool (fun () -> 6 * 7)));
  run_ok sched;
  Sched.Pool.shutdown pool;
  check Alcotest.int "offloaded value" 42 !got

exception Boom of string

let pool_exception () =
  let sched = S.create () in
  let pool = Sched.Pool.create sched ~domains:1 in
  let got = ref "" in
  ignore
    (S.spawn sched (fun () ->
         match Sched.Pool.run pool (fun () -> raise (Boom "from the worker")) with
         | () -> got := "no exception"
         | exception Boom m -> got := m));
  run_ok sched;
  Sched.Pool.shutdown pool;
  check Alcotest.string "re-raised at the suspension point" "from the worker" !got

let pool_many_fibers () =
  let sched = S.create () in
  let pool = Sched.Pool.create sched ~domains:4 in
  let n = 32 in
  let total = ref 0 in
  for i = 1 to n do
    ignore
      (S.spawn sched (fun () ->
           let v = Sched.Pool.run pool (fun () -> i * i) in
           total := !total + v))
  done;
  run_ok sched;
  Sched.Pool.shutdown pool;
  check Alcotest.int "all offloads returned" (n * (n + 1) * ((2 * n) + 1) / 6) !total

let pool_outside_fiber () =
  let sched = S.create () in
  let pool = Sched.Pool.create sched ~domains:1 in
  (match Sched.Pool.run pool (fun () -> 0) with
  | _ -> Alcotest.fail "run outside fiber context should raise"
  | exception Invalid_argument _ -> ());
  Sched.Pool.shutdown pool

let pool_after_shutdown () =
  let sched = S.create () in
  let pool = Sched.Pool.create sched ~domains:1 in
  Sched.Pool.shutdown pool;
  Sched.Pool.shutdown pool (* idempotent *);
  let got = ref "" in
  ignore
    (S.spawn sched (fun () ->
         match Sched.Pool.run pool (fun () -> 0) with
         | _ -> got := "ran"
         | exception Invalid_argument _ -> got := "refused"));
  run_ok sched;
  check Alcotest.string "run after shutdown refused" "refused" !got

(* ------------------------------------------------------------------ *)
(* Offloaded handler bodies under a sharded group *)

type world = {
  sched : S.t;
  server_node : Net.node;
  client_hub : CH.hub;
  server : G.t;
}

let make_world ?(seed = 42) () =
  let sched = S.create ~seed () in
  let net = Net.create sched Net.default_config in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  { sched; server_node; client_hub; server }

let batch_cfg = { CH.default_config with CH.max_batch = 16; flush_interval = 1e-3 }

let kv_sig =
  Core.Sigs.hsig0 "kv_work" ~arg:(Xdr.pair Xdr.int Xdr.int) ~res:Xdr.int

(* The tentpole contract: with_offload moves only the handler body onto
   worker domains — per-key call order, exactly-once and reply
   completeness are untouched. The book is mutex-guarded because
   offloaded bodies genuinely run concurrently. *)
let offload_group_order () =
  let w = make_world () in
  let pool = Sched.Pool.create w.sched ~domains:4 in
  G.register_group w.server ~group:"hot"
    ~config:GC.(default |> with_reply_config batch_cfg |> with_shards 4 |> with_offload pool)
    ();
  let book_m = Stdlib.Mutex.create () in
  let seen : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  let ordered = ref true in
  G.register w.server ~group:"hot" kv_sig (fun _ctx (key, op) ->
      Stdlib.Mutex.lock book_m;
      (match Hashtbl.find_opt seen key with
      | Some (last :: _) when last >= op -> ordered := false
      | _ -> ());
      Hashtbl.replace seen key
        (op :: Option.value ~default:[] (Hashtbl.find_opt seen key));
      Stdlib.Mutex.unlock book_m;
      Ok (op * 2));
  let n = 48 and keys = 8 in
  ignore
    (S.spawn w.sched (fun () ->
         let ag = Core.Agent.create w.client_hub ~name:"load" ~config:batch_cfg () in
         let h = R.bind ag ~dst:(Net.address w.server_node) ~gid:"hot" kv_sig in
         let promises = List.init n (fun i -> R.stream_call h (i mod keys, i / keys)) in
         R.flush h;
         List.iteri
           (fun i p ->
             match P.claim p with
             | P.Normal v -> check Alcotest.int "reply value" (2 * (i / keys)) v
             | P.Signal _ | P.Unavailable _ | P.Failure _ ->
                 Alcotest.fail "offloaded call failed")
           promises));
  run_ok w.sched;
  Sched.Pool.shutdown pool;
  let executed = Hashtbl.fold (fun _ ops acc -> acc + List.length ops) seen 0 in
  let dups =
    Hashtbl.fold
      (fun _ ops acc -> acc + (List.length ops - List.length (List.sort_uniq compare ops)))
      seen 0
  in
  check Alcotest.bool "per-key order kept" true !ordered;
  check Alcotest.int "exactly-once: none lost" n executed;
  check Alcotest.int "exactly-once: no duplicates" 0 dups

(* ------------------------------------------------------------------ *)
(* Determinism with the pool disabled *)

(* One traced sharded run; returns the full span dump and the complete
   counter table. The counters include the wire byte counters, so
   equality of the tables means the two runs put byte-identical traffic
   on the wire. *)
let traced_run seed =
  let w = make_world ~seed () in
  let spans = S.spans w.sched in
  Sim.Span.enable spans true;
  G.register_group w.server ~group:"hot"
    ~config:GC.(default |> with_reply_config batch_cfg |> with_shards 4)
    ();
  G.register w.server ~group:"hot" kv_sig (fun ctx (_key, op) ->
      S.sleep ctx.G.sched 1e-4;
      Ok (op + 1));
  ignore
    (S.spawn w.sched (fun () ->
         let ag = Core.Agent.create w.client_hub ~name:"load" ~config:batch_cfg () in
         let h = R.bind ag ~dst:(Net.address w.server_node) ~gid:"hot" kv_sig in
         let promises = List.init 24 (fun i -> R.stream_call h (i mod 6, i / 6)) in
         R.flush h;
         List.iter (fun p -> ignore (P.claim p : (int, Core.Sigs.nothing) P.outcome)) promises));
  run_ok w.sched;
  (Format.asprintf "%a" Sim.Span.dump spans, Sim.Stats.counters (S.stats w.sched))

let determinism_pool_off () =
  let dump1, counters1 = traced_run 7 in
  let dump2, counters2 = traced_run 7 in
  check Alcotest.string "same-seed span dumps identical" dump1 dump2;
  check
    Alcotest.(list (pair string int))
    "same-seed counters identical (incl. wire bytes)" counters1 counters2;
  check Alcotest.bool "the run did record spans" true (String.length dump1 > 0)

(* ------------------------------------------------------------------ *)
(* Telemetry under real concurrent domains *)

let stats_cross_domain () =
  let stats = Sim.Stats.create () in
  let c = Sim.Stats.counter stats "hits" in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Sim.Stats.incr c
            done))
  in
  for _ = 1 to per_domain do
    Sim.Stats.incr c
  done;
  List.iter Domain.join domains;
  check Alcotest.int "no lost increments across domains" (5 * per_domain)
    (Sim.Stats.count c)

let span_cross_domain () =
  let sp = Sim.Span.create () in
  Sim.Span.enable sp true;
  let record note =
    Sim.Span.record sp ~time:0.0 ~kind:Sim.Span.Exec_begin ~trace:0 ~note ()
  in
  let per_domain = 100 in
  let domains =
    List.init 2 (fun d ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              record (Printf.sprintf "d%d" d)
            done))
  in
  for _ = 1 to per_domain do
    record "main"
  done;
  List.iter Domain.join domains;
  let events = Sim.Span.events sp in
  check Alcotest.int "all domains' events merged" (3 * per_domain) (List.length events);
  List.iter
    (fun note ->
      check Alcotest.int ("events from " ^ note) per_domain
        (List.length (List.filter (fun e -> e.Sim.Span.ev_note = note) events)))
    [ "main"; "d0"; "d1" ]

(* ------------------------------------------------------------------ *)
(* Span.diff unit *)

let span_diff () =
  let mk kinds =
    let sp = Sim.Span.create () in
    Sim.Span.enable sp true;
    List.iter (fun k -> Sim.Span.record sp ~time:0.0 ~kind:k ~trace:1 ~node:0 ()) kinds;
    sp
  in
  let a = mk Sim.Span.[ Issue; Transmit; Retransmit; Retransmit; Deliver ] in
  let b = mk Sim.Span.[ Issue; Transmit; Retransmit; Deliver; Claim ] in
  check Alcotest.int "identical stores diff empty" 0 (List.length (Sim.Span.diff a a));
  let d = Sim.Span.diff a b in
  let lefts = List.filter (fun (s, _) -> s = `Left) d in
  let rights = List.filter (fun (s, _) -> s = `Right) d in
  (* multiplicity counts: two retransmits against one leaves one *)
  check Alcotest.int "left-only" 1 (List.length lefts);
  check Alcotest.bool "left-only is the extra retransmit" true
    (List.for_all (fun (_, e) -> e.Sim.Span.ev_kind = Sim.Span.Retransmit) lefts);
  check Alcotest.int "right-only" 1 (List.length rights);
  check Alcotest.bool "right-only is the claim" true
    (List.for_all (fun (_, e) -> e.Sim.Span.ev_kind = Sim.Span.Claim) rights)

(* ------------------------------------------------------------------ *)
(* Xdr.View.snapshot: a frame view handed to a worker domain stays
   valid while the frame's mutable intern table keeps growing under
   later reads of the same frame (docs/DOMAINS.md). *)

let view_snapshot_cross_domain () =
  let open Xdr in
  let record =
    Record [ ("grade", Str "alpha"); ("score", Int 17); ("again", Str "alpha") ]
  in
  (* Two values in one frame, as a batch of items shares one intern
     table: the second defines strings the first never saw. *)
  let frame =
    let enc = Bin.acquire () in
    Bin.add_value enc record;
    Bin.add_value enc (Record [ ("grade", Str "beta"); ("later", Str "later") ]);
    Bin.contents enc
  in
  let d = Bin.decoder frame in
  let read () = match View.read d with Ok v -> v | Error e -> Alcotest.failf "view read: %s" e in
  let snap = View.snapshot (read ()) in
  (* keep the frame's decoder busy: more defines land in its table *)
  ignore (read () : View.t);
  let sched = S.create () in
  let pool = Sched.Pool.create sched ~domains:2 in
  let got = ref None in
  ignore
    (S.spawn sched (fun () ->
         got :=
           Some
             (Sched.Pool.run pool (fun () ->
                  let grade =
                    match View.record_field snap "grade" with
                    | Ok (Some sub) -> (
                        match View.as_string sub with
                        | Ok s -> s
                        | Error e -> Alcotest.failf "as_string: %s" e)
                    | Ok None -> Alcotest.fail "field grade missing"
                    | Error e -> Alcotest.failf "record_field: %s" e
                  in
                  let whole =
                    match View.materialize snap with
                    | Ok m -> m
                    | Error e -> Alcotest.failf "materialize: %s" e
                  in
                  (grade, whole)))));
  run_ok sched;
  Sched.Pool.shutdown pool;
  match !got with
  | None -> Alcotest.fail "worker did not run"
  | Some (grade, whole) ->
      check Alcotest.string "projected field across domains" "alpha" grade;
      check Alcotest.bool "materialized equals the original" true (equal_value record whole)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "domains"
    [
      ( "pool",
        [
          Alcotest.test_case "offload returns the value" `Quick pool_value;
          Alcotest.test_case "offload re-raises the exception" `Quick pool_exception;
          Alcotest.test_case "many fibers share the pool" `Quick pool_many_fibers;
          Alcotest.test_case "run outside fiber context refused" `Quick pool_outside_fiber;
          Alcotest.test_case "run after shutdown refused" `Quick pool_after_shutdown;
        ] );
      ( "offload",
        [
          Alcotest.test_case "sharded group: order + exactly-once kept" `Quick
            offload_group_order;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pool off: same-seed runs byte-identical" `Quick
            determinism_pool_off;
        ] );
      ( "views",
        [
          Alcotest.test_case "View.snapshot safe across domains" `Quick
            view_snapshot_cross_domain;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "stats counters atomic across domains" `Quick
            stats_cross_domain;
          Alcotest.test_case "span rings merge across domains" `Quick span_cross_domain;
          Alcotest.test_case "span diff multiset semantics" `Quick span_diff;
        ] );
    ]

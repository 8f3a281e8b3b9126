(* Benchmark harness for the reproduction.

   Three kinds of measurements:

   - E1-E9, E12 and the ablations: deterministic simulated-time
     experiments (the tables DESIGN.md maps to the paper's claims).
     These live in the [workloads] library; this executable prints all
     of them.

   - E10: wall-clock microbenchmarks (Bechamel) comparing typed
     promises against MultiLisp-style dynamically checked futures —
     the §3.3 claim that futures "are inefficient to implement unless
     specialized hardware is available, since every object must be
     examined each time it is accessed".

   - Wire codec: wall-clock encode/decode throughput of the binary
     {!Xdr.Bin} format at three payload sizes, written together with
     E12's messages-per-call figures to BENCH_wire.json so the perf
     trajectory is machine-readable. *)

open Bechamel
open Toolkit
module P = Core.Promise
module F = Futures_baseline

let n_items = 1000

(* --- E10 subjects --------------------------------------------------- *)

let bench_int_sum () =
  let arr = Array.init n_items Fun.id in
  Staged.stage (fun () ->
      let total = ref 0 in
      for i = 0 to n_items - 1 do
        total := !total + arr.(i)
      done;
      !total)

let bench_promise_claim_sum () =
  let sched = Sched.Scheduler.create () in
  let arr : (int, Core.Sigs.nothing) P.t array =
    Array.init n_items (fun i -> P.resolved sched (P.Normal i))
  in
  Staged.stage (fun () ->
      (* Typed: one claim per promise, then plain typed arithmetic —
         no per-operation tag checks. *)
      let total = ref 0 in
      for i = 0 to n_items - 1 do
        match P.claim arr.(i) with
        | P.Normal v -> total := !total + v
        | P.Signal _ | P.Unavailable _ | P.Failure _ -> ()
      done;
      !total)

let bench_future_touch_sum () =
  let sched = Sched.Scheduler.create () in
  let lst =
    List.init n_items (fun i ->
        let fut, resolve = F.make_unresolved sched in
        resolve (F.Int i);
        fut)
  in
  let dyn_list = List.fold_right (fun f acc -> F.Cons (f, acc)) lst F.Nil in
  Staged.stage (fun () ->
      (* Dynamic: every + must touch both operands and check tags. *)
      F.sum_list dyn_list)

let bench_promise_lifecycle () =
  let sched = Sched.Scheduler.create () in
  Staged.stage (fun () ->
      let p : (int, Core.Sigs.nothing) P.t = P.create sched in
      P.resolve p (P.Normal 42);
      match P.claim p with
      | P.Normal v -> v
      | P.Signal _ | P.Unavailable _ | P.Failure _ -> 0)

let bench_future_lifecycle () =
  let sched = Sched.Scheduler.create () in
  Staged.stage (fun () ->
      let fut, resolve = F.make_unresolved sched in
      resolve (F.Int 42);
      match F.touch fut with F.Int v -> v | _ -> 0)

(* The full suspension path: a fiber parks in claim, another resolves,
   the scheduler resumes the first — one effect capture + continue. *)
let bench_suspended_claim () =
  Staged.stage (fun () ->
      let sched = Sched.Scheduler.create () in
      let p : (int, Core.Sigs.nothing) P.t = P.create sched in
      let got = ref 0 in
      ignore
        (Sched.Scheduler.spawn sched (fun () ->
             match P.claim p with
             | P.Normal v -> got := v
             | P.Signal _ | P.Unavailable _ | P.Failure _ -> ()));
      ignore (Sched.Scheduler.spawn sched (fun () -> P.resolve p (P.Normal 7)));
      ignore (Sched.Scheduler.run sched : Sched.Scheduler.outcome);
      !got)

let bench_spawn_run () =
  Staged.stage (fun () ->
      let sched = Sched.Scheduler.create () in
      for _ = 1 to 10 do
        ignore (Sched.Scheduler.spawn sched (fun () -> Sched.Scheduler.yield sched))
      done;
      ignore (Sched.Scheduler.run sched : Sched.Scheduler.outcome))

let e10_tests =
  Test.make_grouped ~name:"E10"
    [
      Test.make ~name:(Printf.sprintf "plain int sum (%d)" n_items) (bench_int_sum ());
      Test.make
        ~name:(Printf.sprintf "promises: claim+sum (%d)" n_items)
        (bench_promise_claim_sum ());
      Test.make
        ~name:(Printf.sprintf "futures: touch+sum (%d)" n_items)
        (bench_future_touch_sum ());
      Test.make ~name:"promise create/resolve/claim" (bench_promise_lifecycle ());
      Test.make ~name:"future create/resolve/touch" (bench_future_lifecycle ());
      Test.make ~name:"sched create + blocked claim roundtrip" (bench_suspended_claim ());
      Test.make ~name:"spawn+yield+run 10 fibers" (bench_spawn_run ());
    ]

(* ns/run per subject, via OLS on the monotonic clock. *)
let measure_ns tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> est
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  List.sort compare !rows

let run_e10 () =
  let rows = measure_ns e10_tests in
  let table_rows = List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f ns" ns ]) rows in
  Workloads.Table.make ~id:"E10"
    ~title:"wall-clock: typed promises vs dynamically checked futures"
    ~header:[ "subject"; "time/run" ]
    ~notes:
      [
        "paper claim (§3.3): futures pay a dynamic check on every access; promises are \
         statically typed so claiming and using values costs no tag checks";
        "wall-clock numbers vary by machine; the shape (futures sum >> promises sum) is the \
         reproduced result";
      ]
    table_rows

(* --- wire codec bench + BENCH_wire.json ----------------------------- *)

module W = Cstream.Wire

let wire_payloads =
  List.map (fun (label, v, _) -> (label, v)) Workloads.Exp_wire.reference_payloads

let exn = function Ok x -> x | Error e -> failwith e

(* Lazy views (docs/WIRE.md): the wire path hands each arriving call a
   validated view over the frame bytes, so "consume one field of a
   large frame" splits into an arrival cost and a projection cost.
   "view scan" is the arrival cost under the new path (structural
   validation, no tree); plain "decode large" above is the arrival cost
   under the old one (full tree). "view project" is what a consumer
   then pays to pull one field out of one element by slicing; its
   honest baseline is "decode project", which is what projection cost
   before views existed — build the whole tree, walk to the field. The
   acceptance gate (ISSUE 9) is view project >= 2x faster than decode
   project. *)
let wire_view_tests =
  let large = List.assoc "large" wire_payloads in
  let encoded = Xdr.Bin.to_string large in
  let sz = String.length encoded in
  let view = exn (Xdr.View.of_string encoded) in
  [
    Test.make
      ~name:(Printf.sprintf "view scan large (%dB)" sz)
      (Staged.stage (fun () -> exn (Xdr.View.of_string encoded)));
    Test.make
      ~name:(Printf.sprintf "view project large.(32).mean (%dB)" sz)
      (Staged.stage (fun () ->
           match exn (Xdr.View.list_item view 32) with
           | None -> failwith "item missing"
           | Some item -> (
               match exn (Xdr.View.record_field item "mean") with
               | Some f -> exn (Xdr.View.materialize f)
               | None -> failwith "field missing")));
    Test.make
      ~name:(Printf.sprintf "decode project large.(32).mean (%dB)" sz)
      (Staged.stage (fun () ->
           match Xdr.Bin.of_string encoded with
           | Ok (Xdr.List items) -> (
               match List.nth items 32 with
               | Xdr.Record fields -> List.assoc "mean" fields
               | _ -> failwith "not a record")
           | _ -> failwith "decode failed"));
  ]

(* The envelope rung of the cost ledger: building and encoding the
   rpc-shaped call item (the "small" payload), and parsing its envelope
   from a view as the receive path does. *)
let wire_envelope_tests =
  let call () =
    W.call_item ~trace:None ~port:"work" ~kind:W.Call ~args:(Xdr.Int 42) ()
  in
  let view = exn (Xdr.View.of_string (Xdr.Bin.to_string (call ()))) in
  [
    Test.make ~name:"encode call item" (Staged.stage (fun () -> Xdr.Bin.to_string (call ())));
    Test.make ~name:"parse call envelope (view)"
      (Staged.stage (fun () -> exn (W.parse_call_view view)));
  ]

let wire_tests =
  Test.make_grouped ~name:"wire"
    (List.concat_map
       (fun (label, v) ->
         let encoded = Xdr.Bin.to_string v in
         [
           Test.make
             ~name:(Printf.sprintf "encode %s (%dB)" label (String.length encoded))
             (Staged.stage (fun () -> Xdr.Bin.to_string v));
           Test.make
             ~name:(Printf.sprintf "decode %s (%dB)" label (String.length encoded))
             (Staged.stage (fun () -> Xdr.Bin.of_string encoded));
         ])
       wire_payloads
    @ wire_view_tests @ wire_envelope_tests)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Wall-clock numbers are only interpretable against the hardware they
   were taken on (the E16 fibers-vs-domains series most of all): every
   BENCH_*.json carries the machine it ran on. *)
let write_machine_stanza oc =
  Printf.fprintf oc
    "  \"machine\": { \"cores\": %d, \"ocaml\": \"%s\", \"word_size\": %d, \"os\": \"%s\" },\n"
    (Domain.recommended_domain_count ())
    (json_escape Sys.ocaml_version)
    Sys.word_size (json_escape Sys.os_type)

(* Every BENCH_<group>.json has one shape: the group name, the machine
   stanza, any [fields], a units map, then one array per section. A
   section is (name, unit, rows); each row is the inside of one JSON
   object. *)
let write_bench_json ~bench ?(fields = []) sections path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let sep i xs = if i = List.length xs - 1 then "" else "," in
  out "{\n";
  out "  \"bench\": \"%s\",\n" bench;
  write_machine_stanza oc;
  List.iter (fun (k, v) -> out "  \"%s\": %s,\n" k v) fields;
  out "  \"units\": { %s },\n"
    (String.concat ", "
       (List.map (fun (name, unit, _) -> Printf.sprintf "\"%s\": \"%s\"" name unit) sections));
  List.iteri
    (fun si (name, _, rows) ->
      out "  \"%s\": [\n" name;
      List.iteri (fun i row -> out "    { %s }%s\n" row (sep i rows)) rows;
      out "  ]%s\n" (sep si sections))
    sections;
  out "}\n";
  close_out oc

(* The wall-clock rows every group leads with. *)
let subject_json rows =
  List.map
    (fun (name, ns) ->
      Printf.sprintf "\"subject\": \"%s\", \"ns_per_op\": %.1f" (json_escape name) ns)
    rows

let e12_json (r : Workloads.Exp_wire.row) =
  Printf.sprintf
    "\"mode\": \"%s\", \"piggyback\": %b, \"calls\": %d, \"msgs\": %d, \"bytes\": %d, \
     \"msgs_per_call\": %.4f, \"bytes_per_call\": %.2f, \"calls_per_data_packet\": %.2f, \
     \"standalone_ack_packets\": %d, \"piggybacked_acks\": %d, \"completion_ms\": %.3f"
    (json_escape r.r_mode) r.r_piggyback r.r_calls r.r_msgs r.r_bytes
    (float_of_int r.r_msgs /. float_of_int r.r_calls)
    (float_of_int r.r_bytes /. float_of_int r.r_calls)
    (Workloads.Exp_wire.calls_per_data_pkt r)
    r.r_ack_pkts r.r_piggybacked (r.r_time *. 1e3)

let e18_json (r : Workloads.Exp_dict.row) =
  Printf.sprintf
    "\"mode\": \"%s\", \"dict\": %b, \"calls\": %d, \"msgs\": %d, \"bytes\": %d, \
     \"bytes_per_call\": %.2f, \"dict_defines\": %d, \"dict_refs\": %d, \"lazy_args\": %d, \
     \"args_decoded\": %d, \"sheds\": %d, \"completion_ms\": %.3f"
    (json_escape r.r_mode) r.r_dict r.r_calls r.r_msgs r.r_bytes
    (float_of_int r.r_bytes /. float_of_int r.r_calls)
    r.r_defines r.r_refs r.r_lazy r.r_forced r.r_sheds (r.r_time *. 1e3)

(* With tracing disabled, wire items must be byte-for-byte the pinned
   envelopes (docs/TRACING.md, docs/WIRE.md §1.2) — otherwise the E12
   bytes-per-call figures in BENCH_wire.json would silently shift. *)
let assert_untraced_bytes_unchanged () =
  match Workloads.Exp_wire.envelope_mismatches () with
  | [] -> ()
  | ms -> failwith ("tracing-off wire regression: " ^ String.concat "; " ms)

(* E12 golden gate: the experiments never enable the connection
   dictionary, so their wire must be digit-for-digit the pinned table —
   any drift means the dictionary-off path changed bytes. *)
let assert_e12_goldens rows =
  match Workloads.Exp_wire.golden_mismatches rows with
  | [] -> ()
  | ms -> failwith ("dictionary-off wire regression: " ^ String.concat "; " ms)

let run_wire () =
  assert_untraced_bytes_unchanged ();
  (match Workloads.Exp_wire.payload_mismatches () with
  | [] -> ()
  | ms -> failwith ("codec reference payload regression: " ^ String.concat "; " ms));
  let codec_rows = measure_ns wire_tests in
  let e12_rows = Workloads.Exp_wire.e12_rows () in
  assert_e12_goldens e12_rows;
  let e18_rows = Workloads.Exp_dict.e18_rows () in
  write_bench_json ~bench:"wire"
    [
      ("codec", "ns/op", subject_json codec_rows);
      ("e12", "per call", List.map e12_json e12_rows);
      ("e18", "per call", List.map e18_json e18_rows);
    ]
    "BENCH_wire.json";
  let table_rows =
    List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f ns" ns ]) codec_rows
  in
  Workloads.Table.make ~id:"wire" ~title:"wall-clock: binary codec encode/decode (Xdr.Bin)"
    ~header:[ "subject"; "time/op" ]
    ~notes:
      [
        "payload sizes are actual encoded bytes; results + E12 per-call figures written to \
         BENCH_wire.json";
      ]
    table_rows

(* --- pipeline bench + BENCH_pipeline.json --------------------------- *)

(* The receiver-side costs of promise pipelining, per pipelined call:
   scanning arguments for references, substituting produced values, and
   the registry's record/await cycle. These bound the overhead a
   non-pipelined call pays for the feature existing at all (a single
   [has_refs] scan that finds nothing). *)

let pref i =
  Xdr.Pref { Xdr.ps_stream = "3|server/work"; ps_call = i; ps_field = None }

(* An argument tree shaped like a real pipelined batch: mostly plain
   values, a few references scattered at different depths. *)
let pipeline_args =
  Xdr.List
    (List.init 16 (fun i ->
         if i mod 5 = 0 then Xdr.Pair (pref i, Xdr.Int i)
         else
           Xdr.Record
             [ ("name", Xdr.Str (Printf.sprintf "item-%03d" i)); ("rank", Xdr.Int i) ]))

let plain_args =
  Xdr.List (List.init 16 (fun i -> Xdr.Pair (Xdr.Str (Printf.sprintf "s%d" i), Xdr.Int i)))

let bench_refs_scan v = Staged.stage (fun () -> Pipeline.refs v)
let bench_has_refs v = Staged.stage (fun () -> Pipeline.has_refs v)

let bench_substitute () =
  let lookup (r : Xdr.promise_ref) =
    Pipeline.project ~field:r.Xdr.ps_field (Xdr.Int (r.Xdr.ps_call * 2))
  in
  Staged.stage (fun () -> Pipeline.substitute ~lookup pipeline_args)

let bench_registry_record_find () =
  let reg : int Pipeline.Registry.t = Pipeline.Registry.create ~cap:1024 () in
  let next = ref 0 in
  Staged.stage (fun () ->
      (* Fresh key each run so [record] actually stores (repeats are
         ignored by design); FIFO eviction keeps the table at cap. *)
      incr next;
      Pipeline.Registry.record reg ~stream:"bench" ~call:!next !next;
      Pipeline.Registry.find reg ~stream:"bench" ~call:!next)

let bench_registry_await_cycle () =
  let reg : int Pipeline.Registry.t = Pipeline.Registry.create ~cap:1024 () in
  let next = ref 0 in
  let got = ref 0 in
  Staged.stage (fun () ->
      (* The parked path: await before the outcome lands, then record
         fires the callback. *)
      incr next;
      ignore
        (Pipeline.Registry.await reg ~stream:"bench" ~call:!next (fun v -> got := v)
          : [ `Fired | `Parked of Pipeline.Registry.waiter | `Refused ]);
      Pipeline.Registry.record reg ~stream:"bench" ~call:!next !next;
      !got)

let pipeline_tests =
  Test.make_grouped ~name:"pipeline"
    [
      Test.make ~name:"refs scan (16 args, 4 refs)" (bench_refs_scan pipeline_args);
      Test.make ~name:"has_refs scan (no refs)" (bench_has_refs plain_args);
      Test.make ~name:"substitute (16 args, 4 refs)" (bench_substitute ());
      Test.make ~name:"registry record+find" (bench_registry_record_find ());
      Test.make ~name:"registry await+record (parked)" (bench_registry_await_cycle ());
    ]

let e13_json (r : Workloads.Exp_pipeline.row) =
  Printf.sprintf
    "\"mode\": \"%s\", \"depth\": %d, \"completion_ms\": %.3f, \"msgs\": %d, \"bytes\": %d, \
     \"data_packets\": %d, \"pipelined_calls\": %d, \"ref_substitutions\": %d"
    (json_escape r.r_mode) r.r_depth (r.r_time *. 1e3) r.r_msgs r.r_bytes r.r_data_pkts
    r.r_pipelined r.r_substitutions

(* handoff vs proxy (E19): the third-party delegation A->B->C both ways,
   on both backends; skipped TCP rows record ok=false *)
let e19_json (r : Workloads.Exp_handoff.row) =
  Printf.sprintf
    "\"mode\": \"%s\", \"backend\": \"%s\", \"calls\": %d, \"ok\": %b, \"completion_ms\": \
     %.3f, \"msgs\": %d, \"bytes\": %d, \"forwards\": %d, \"fallbacks\": %d, \"dup_execs\": %d"
    (json_escape r.r_mode) (json_escape r.r_backend) r.r_calls r.r_ok
    (if r.r_ok then r.r_time *. 1e3 else 0.0)
    r.r_msgs r.r_bytes r.r_forwards r.r_fallbacks r.r_dup_execs

let run_pipeline () =
  let subject_rows = measure_ns pipeline_tests in
  let e13_rows = Workloads.Exp_pipeline.e13_rows () in
  let e19_rows = Workloads.Exp_handoff.e19_rows () in
  (* the acceptance inequality behind E19, asserted on every bench run:
     handing off must strictly beat proxying on wire bytes *)
  (let find mode =
     List.find_opt
       (fun (r : Workloads.Exp_handoff.row) -> r.r_mode = mode && r.r_backend = "sim")
       e19_rows
   in
   match (find "proxy", find "handoff") with
   | Some proxy, Some handoff ->
       if handoff.r_bytes >= proxy.r_bytes then
         failwith
           (Printf.sprintf "E19 regression: handoff bytes %d >= proxy bytes %d"
              handoff.r_bytes proxy.r_bytes)
   | _ -> failwith "E19 regression: sim rows missing");
  write_bench_json ~bench:"pipeline"
    [
      ("subjects", "ns/op", subject_json subject_rows);
      ("e13", "per chain", List.map e13_json e13_rows);
      ("e19", "per delegation loop", List.map e19_json e19_rows);
    ]
    "BENCH_pipeline.json";
  let table_rows =
    List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f ns" ns ]) subject_rows
  in
  Workloads.Table.make ~id:"pipeline"
    ~title:"wall-clock: promise-pipelining receiver machinery"
    ~header:[ "subject"; "time/op" ]
    ~notes:
      [
        "receiver-side per-call costs of pipelining (docs/PIPELINE.md): reference scan, \
         value substitution, bounded-registry record/await; results + E13 chain figures \
         written to BENCH_pipeline.json";
      ]
    table_rows

(* --- shard bench + BENCH_shard.json --------------------------------- *)

(* The receiver-side costs of sharded dispatch (docs/SHARDING.md): the
   partition hash every arriving call pays, and the byte-sized registry
   record path that sharded groups share. The scaling story itself is
   E14 (simulated time, deterministic); its rows ride along in the JSON
   so the perf trajectory of the tentpole is machine-readable. *)

module T = Cstream.Target

let small_call_args = Xdr.Pair (Xdr.Int 7, Xdr.Int 42)

let large_call_args =
  Xdr.Pair
    ( Xdr.Str "partition-key-with-some-length",
      Xdr.Record
        [
          ("name", Xdr.Str "student-0042");
          ("grades", Xdr.List (List.init 16 (fun g -> Xdr.Int (40 + g))));
          ("mean", Xdr.Real 57.5);
        ] )

let bench_shard_key v =
  Staged.stage (fun () -> T.default_shard_key v)

let bench_registry_record_sized () =
  let reg : W.routcome Pipeline.Registry.t =
    Pipeline.Registry.create ~cap:1024 ~max_bytes:(1 lsl 20)
      ~bytes_of:(fun o -> Xdr.Bin.size (W.outcome_value o))
      ()
  in
  let outcome = W.W_normal large_call_args in
  let next = ref 0 in
  Staged.stage (fun () ->
      incr next;
      Pipeline.Registry.record reg ~stream:"bench" ~call:!next outcome;
      Pipeline.Registry.find reg ~stream:"bench" ~call:!next)

let shard_tests =
  Test.make_grouped ~name:"shard"
    [
      Test.make ~name:"shard key (int pair)" (bench_shard_key small_call_args);
      Test.make ~name:"shard key (string key, record payload)"
        (bench_shard_key large_call_args);
      Test.make ~name:"registry record+find (byte-sized)" (bench_registry_record_sized ());
    ]

let e14_json (r : Workloads.Exp_shard.row) =
  Printf.sprintf
    "\"series\": \"%s\", \"shards\": %d, \"calls\": %d, \"completion_ms\": %.3f, \
     \"calls_per_s\": %.1f, \"speedup\": %.3f, \"shard_dispatches\": %d, \"queue_depth_hwm\": \
     %d, \"imbalance_hwm\": %d, \"per_key_order\": %b"
    (json_escape r.r_series) r.r_shards r.r_calls (r.r_time *. 1e3) r.r_throughput r.r_speedup
    r.r_dispatches r.r_queue_hwm r.r_imbalance r.r_ordered

let run_shard () =
  let subject_rows = measure_ns shard_tests in
  let e14_rows = Workloads.Exp_shard.e14_rows () in
  write_bench_json ~bench:"shard"
    [
      ("subjects", "ns/op", subject_json subject_rows);
      ("e14", "per run", List.map e14_json e14_rows);
    ]
    "BENCH_shard.json";
  let table_rows =
    List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f ns" ns ]) subject_rows
  in
  Workloads.Table.make ~id:"shard" ~title:"wall-clock: sharded-dispatch receiver machinery"
    ~header:[ "subject"; "time/op" ]
    ~notes:
      [
        "per-call cost of the partition hash plus the byte-sized registry record path \
         (docs/SHARDING.md); results + E14 scaling figures written to BENCH_shard.json";
      ]
    table_rows

(* --- overload bench + BENCH_overload.json --------------------------- *)

(* Receiver/sender hot-path costs of overload survival
   (docs/OVERLOAD.md): the per-event sampling filter every span record
   pays, and the ack-tied [mark_releasable] bookkeeping the reply-ack
   hook pays per acked call. The survival story itself is E15
   (simulated time, deterministic); its static-vs-adaptive rows ride
   along in the JSON so the comparison is machine-readable. *)

let bench_span_sampled () =
  let sp = Sim.Span.create () in
  Sim.Span.enable sp true;
  Sim.Span.set_sampling sp 8;
  let next = ref 0 in
  Staged.stage (fun () ->
      incr next;
      Sim.Span.sampled sp !next)

let bench_mark_releasable () =
  let reg : W.routcome Pipeline.Registry.t = Pipeline.Registry.create ~cap:4096 () in
  for c = 0 to 2047 do
    Pipeline.Registry.record reg ~stream:"bench" ~call:c (W.W_normal (Xdr.Int c))
  done;
  let next = ref 0 in
  Staged.stage (fun () ->
      next := (!next + 1) land 2047;
      Pipeline.Registry.mark_releasable reg ~stream:"bench" ~call:!next)

let overload_tests =
  Test.make_grouped ~name:"overload"
    [
      Test.make ~name:"span sampling filter (1-in-8)" (bench_span_sampled ());
      Test.make ~name:"registry mark_releasable" (bench_mark_releasable ());
    ]

let e15_json (r : Workloads.Exp_overload.row) =
  Printf.sprintf
    "\"window\": \"%s\", \"calls\": %d, \"completion_ms\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": \
     %.3f, \"p999_ms\": %.3f, \"sheds\": %d, \"retries\": %d, \"retry_successes\": %d, \
     \"unavailable\": %d, \"window_cuts\": %d, \"window_min_bytes\": %d, \"window_max_bytes\": \
     %d, \"lost\": %d, \"duplicates\": %d"
    (json_escape r.r_mode) r.r_calls (r.r_time *. 1e3) (r.r_p50 *. 1e3) (r.r_p99 *. 1e3)
    (r.r_p999 *. 1e3) r.r_sheds r.r_retries r.r_retry_ok r.r_unavail r.r_cuts r.r_win_min
    r.r_win_max r.r_lost r.r_dups

let run_overload () =
  let subject_rows = measure_ns overload_tests in
  let e15_rows = Workloads.Exp_overload.e15_rows () in
  write_bench_json ~bench:"overload"
    [
      ("subjects", "ns/op", subject_json subject_rows);
      ("e15", "per run", List.map e15_json e15_rows);
    ]
    "BENCH_overload.json";
  let table_rows =
    List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f ns" ns ]) subject_rows
  in
  Workloads.Table.make ~id:"overload"
    ~title:"wall-clock: overload-survival hot-path machinery"
    ~header:[ "subject"; "time/op" ]
    ~notes:
      [
        "per-event cost of the span sampling filter and per-acked-call cost of the \
         registry's ack-tied eviction marking (docs/OVERLOAD.md); results + E15 \
         static-vs-adaptive figures written to BENCH_overload.json";
      ]
    table_rows

(* --- domains bench + BENCH_domains.json ----------------------------- *)

(* The machinery cost of the domain pool (docs/DOMAINS.md): a full
   Pool.run round trip — suspend the calling fiber, ship the closure to
   a worker domain, inject the wakeup back into the scheduler — next to
   the calibrated spin kernel E16's handlers burn. The scaling story
   itself is E16 (wall-clock, fibers vs pools of 1/2/4/8 domains); its
   rows ride along in the JSON, where the machine stanza says how many
   cores the numbers were taken on. *)

let e16_json (r : Workloads.Exp_domains.row) =
  Printf.sprintf
    "\"mode\": \"%s\", \"pool\": %d, \"lanes\": %d, \"calls\": %d, \"completion_ms\": %.3f, \
     \"calls_per_s\": %.1f, \"speedup\": %.3f, \"per_key_order\": %b, \"lost\": %d, \"dups\": %d"
    (json_escape r.r_mode) r.r_pool r.r_lanes r.r_calls (r.r_wall *. 1e3) r.r_throughput
    r.r_speedup r.r_ordered r.r_lost r.r_dups

let run_domains () =
  let sched = Sched.Scheduler.create () in
  let pool = Sched.Pool.create sched ~domains:1 in
  let rate = Workloads.Cpu.calibrate () in
  let tests =
    Test.make_grouped ~name:"domains"
      [
        Test.make ~name:"spin kernel (10us burn)"
          (Staged.stage (fun () -> Workloads.Cpu.burn ~rate 10e-6));
        Test.make ~name:"pool offload round-trip (1 domain)"
          (Staged.stage (fun () ->
               ignore
                 (Sched.Scheduler.spawn sched (fun () ->
                      ignore (Sched.Pool.run pool (fun () -> 42) : int)));
               ignore (Sched.Scheduler.run sched : Sched.Scheduler.outcome)));
      ]
  in
  let subject_rows = measure_ns tests in
  Sched.Pool.shutdown pool;
  let e16_rows = Workloads.Exp_domains.e16_rows () in
  write_bench_json ~bench:"domains"
    [
      ("subjects", "ns/op", subject_json subject_rows);
      ("e16", "per run (wall-clock)", List.map e16_json e16_rows);
    ]
    "BENCH_domains.json";
  let table_rows =
    List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f ns" ns ]) subject_rows
  in
  Workloads.Table.make ~id:"domains"
    ~title:"wall-clock: domain-pool offload machinery"
    ~header:[ "subject"; "time/op" ]
    ~notes:
      [
        "the full Pool.run round trip (suspend fiber, ship closure to a worker domain, \
         inject the wakeup back) next to the spin kernel it ships (docs/DOMAINS.md); \
         results + E16 fibers-vs-domains figures written to BENCH_domains.json";
      ]
    table_rows

(* --- transport bench + BENCH_transport.json ------------------------- *)

(* Round-trip cost over each transport backend (docs/TRANSPORT.md): a
   raw frame echo (transport machinery only) and a full typed RPC
   (codec + stream layer + guardian dispatch on top), over the
   simulated net and over a real loopback TCP socket. The sim subjects
   cost no wall-clock wire time — they price the scheduler + stream
   machinery itself; the tcp subjects add two real kernel crossings per
   hop. E17's prediction-vs-measurement rows ride along in the JSON. *)

module Tr = Transport_tcp

let tcp_available =
  lazy
    (match Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 with
    | exception Unix.Unix_error _ -> false
    | fd -> (
        match
          Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
          Unix.listen fd 1
        with
        | () ->
            Unix.close fd;
            true
        | exception Unix.Unix_error _ ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            false))

(* One raw frame to the echoing peer and back, per run. *)
let bench_echo ~sched ~(a : Transport.t) ~(b : Transport.t) =
  let waiter = ref None in
  b.Transport.set_receiver (fun ~src frame -> b.Transport.send ~dst:src frame);
  a.Transport.set_receiver (fun ~src:_ _ ->
      match !waiter with Some w -> ignore (Sched.Scheduler.wake w () : bool) | None -> ());
  Staged.stage (fun () ->
      ignore
        (Sched.Scheduler.spawn sched (fun () ->
             a.Transport.send ~dst:b.Transport.addr "ping-frame";
             Sched.Scheduler.suspend sched (fun w -> waiter := Some w)));
      ignore (Sched.Scheduler.run sched : Sched.Scheduler.outcome))

(* One typed RPC through the full stack, per run. *)
let bench_rpc ~sched ~client_hub ~server_addr =
  let ag =
    Core.Agent.create client_hub ~name:"bench-rpc" ~config:Cstream.Chanhub.rpc_config ()
  in
  let h = Core.Remote.bind ag ~dst:server_addr ~gid:"main" Workloads.Fixtures.work_sig in
  Staged.stage (fun () ->
      ignore
        (Sched.Scheduler.spawn sched (fun () ->
             ignore (Core.Remote.rpc h 41 : (int, Core.Sigs.nothing) P.outcome)));
      ignore (Sched.Scheduler.run sched : Sched.Scheduler.outcome))

let transport_group_cfg =
  Cstream.Group_config.(default |> with_reply_config Cstream.Chanhub.rpc_config)

let make_transport_tests () =
  (* sim worlds: zero wire latency so the subjects price machinery, not
     modelled (virtual) waiting *)
  let echo_sim =
    let sched = Sched.Scheduler.create () in
    let net = Net.create sched { Net.default_config with Net.wire_latency = 0.0 } in
    let a = Transport_sim.endpoint net (Net.add_node net ~name:"a") in
    let b = Transport_sim.endpoint net (Net.add_node net ~name:"b") in
    bench_echo ~sched ~a ~b
  in
  let rpc_sim =
    let sched = Sched.Scheduler.create () in
    let net = Net.create sched { Net.default_config with Net.wire_latency = 0.0 } in
    let cn = Net.add_node net ~name:"client" in
    let sn = Net.add_node net ~name:"server" in
    let client_hub = Cstream.Chanhub.create_hub ~net:(net, cn) () in
    let server = Argus.Guardian.create (Cstream.Chanhub.create_hub ~net:(net, sn) ()) ~name:"server" in
    Argus.Guardian.register_group server ~group:"main" ~config:transport_group_cfg ();
    Argus.Guardian.register server ~group:"main" Workloads.Fixtures.work_sig (fun _ctx n ->
        Ok (n + 1));
    bench_rpc ~sched ~client_hub ~server_addr:(Net.address sn)
  in
  let sim_tests =
    [
      Test.make ~name:"frame echo round-trip (sim)" echo_sim;
      Test.make ~name:"typed RPC round-trip (sim)" rpc_sim;
    ]
  in
  if not (Lazy.force tcp_available) then (sim_tests, [], fun () -> ())
  else
    let echo_fab =
      let sched = Sched.Scheduler.create () in
      let fab = Tr.create sched in
      let a = Tr.endpoint fab ~addr:0 ~name:"a" () in
      let b = Tr.endpoint fab ~addr:1 ~name:"b" () in
      Tr.set_peer fab ~addr:0 (Tr.listen_loopback fab ~addr:0);
      Tr.set_peer fab ~addr:1 (Tr.listen_loopback fab ~addr:1);
      (fab, bench_echo ~sched ~a ~b)
    in
    let rpc_fab =
      let sched = Sched.Scheduler.create () in
      let fab = Tr.create sched in
      let client_tr = Tr.endpoint fab ~addr:0 ~name:"client" () in
      let server_tr = Tr.endpoint fab ~addr:1 ~name:"server" () in
      let client_hub = Cstream.Chanhub.create_hub ~transport:client_tr () in
      let server =
        Argus.Guardian.create (Cstream.Chanhub.create_hub ~transport:server_tr ()) ~name:"server"
      in
      Argus.Guardian.register_group server ~group:"main" ~config:transport_group_cfg ();
      Argus.Guardian.register server ~group:"main" Workloads.Fixtures.work_sig (fun _ctx n ->
          Ok (n + 1));
      Tr.set_peer fab ~addr:1 (Tr.listen_loopback fab ~addr:1);
      (fab, bench_rpc ~sched ~client_hub ~server_addr:1)
    in
    let tcp_tests =
      [
        Test.make ~name:"frame echo round-trip (loopback tcp)" (snd echo_fab);
        Test.make ~name:"typed RPC round-trip (loopback tcp)" (snd rpc_fab);
      ]
    in
    ( sim_tests,
      tcp_tests,
      fun () ->
        Tr.close (fst echo_fab);
        Tr.close (fst rpc_fab) )

let e17_json (r : Workloads.Exp_transport.row) =
  Printf.sprintf
    "\"workload\": \"%s\", \"backend\": \"%s\", \"calls\": %d, \"ok\": %b, \"completion_ms\": \
     %s, \"msgs\": %d, \"bytes\": %d"
    (json_escape r.r_workload) (json_escape r.r_backend) r.r_calls r.r_ok
    (if r.r_ok then Printf.sprintf "%.3f" (r.r_time *. 1e3) else "null")
    r.r_msgs r.r_bytes

let run_transport () =
  let sim_tests, tcp_tests, cleanup = make_transport_tests () in
  let tcp_ok = tcp_tests <> [] in
  if not tcp_ok then
    print_endline "note: loopback sockets unavailable here; tcp subjects skipped";
  let subject_rows = measure_ns (Test.make_grouped ~name:"transport" (sim_tests @ tcp_tests)) in
  cleanup ();
  let e17_rows = Workloads.Exp_transport.e17_rows () in
  write_bench_json ~bench:"transport"
    ~fields:[ ("tcp_available", string_of_bool tcp_ok) ]
    [
      ("subjects", "ns/op", subject_json subject_rows);
      ("e17", "per run", List.map e17_json e17_rows);
    ]
    "BENCH_transport.json";
  let table_rows =
    List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f ns" ns ]) subject_rows
  in
  Workloads.Table.make ~id:"transport"
    ~title:"wall-clock: round trips over the simulated and real transports"
    ~header:[ "subject"; "time/op" ]
    ~notes:
      [
        "one round trip per op: a raw frame echo (transport machinery only) and a typed RPC \
         (codec + stream layer + guardian dispatch), over the simulated net and over a real \
         loopback TCP socket (docs/TRANSPORT.md); results + E17's \
         prediction-vs-measurement figures written to BENCH_transport.json";
      ]
    table_rows

(* --- main ---------------------------------------------------------- *)

(* Named groups so CI and quick local runs can pick one with --only
   instead of paying for the whole suite. *)
let groups : (string * string * string option * (unit -> unit)) list =
  [
    ( "experiments",
      "simulated-time experiments (deterministic)",
      None,
      fun () -> List.iter Workloads.Table.print (Workloads.Experiments.run_all ()) );
    ( "e10",
      "wall-clock microbenchmarks (E10, Bechamel)",
      None,
      fun () -> Workloads.Table.print (run_e10 ()) );
    ( "wire",
      "wall-clock wire codec (Bechamel)",
      Some "BENCH_wire.json",
      fun () -> Workloads.Table.print (run_wire ()) );
    ( "pipeline",
      "wall-clock pipelining machinery (Bechamel)",
      Some "BENCH_pipeline.json",
      fun () -> Workloads.Table.print (run_pipeline ()) );
    ( "shard",
      "wall-clock sharded-dispatch machinery (Bechamel)",
      Some "BENCH_shard.json",
      fun () -> Workloads.Table.print (run_shard ()) );
    ( "overload",
      "wall-clock overload-survival machinery (Bechamel)",
      Some "BENCH_overload.json",
      fun () -> Workloads.Table.print (run_overload ()) );
    ( "domains",
      "wall-clock domain-pool offload + E16 fibers vs domains (Bechamel)",
      Some "BENCH_domains.json",
      fun () -> Workloads.Table.print (run_domains ()) );
    ( "transport",
      "wall-clock sim-vs-loopback-TCP round trips + E17 (Bechamel)",
      Some "BENCH_transport.json",
      fun () -> Workloads.Table.print (run_transport ()) );
  ]

let () =
  let selected = ref [] in
  let group_names = List.map (fun (n, _, _, _) -> n) groups in
  let spec =
    [
      ( "--only",
        Arg.String (fun s -> selected := s :: !selected),
        "GROUP run only the named group (repeatable); groups: "
        ^ String.concat ", " group_names );
    ]
  in
  Arg.parse spec
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "main.exe [--only GROUP]...";
  List.iter
    (fun n ->
      if not (List.mem n group_names) then (
        Printf.eprintf "unknown bench group %S (have: %s)\n" n
          (String.concat ", " group_names);
        exit 2))
    !selected;
  let want n = match !selected with [] -> true | l -> List.mem n l in
  print_endline "Promises (Liskov & Shrira, PLDI 1988) -- reproduction benchmarks";
  List.iter
    (fun (name, title, _, f) ->
      if want name then (
        print_endline (title ^ ":");
        print_newline ();
        f ()))
    groups;
  match
    List.filter_map (fun (name, _, json, _) -> if want name then json else None) groups
  with
  | [] -> ()
  | written -> print_endline ("wrote " ^ String.concat ", " written)

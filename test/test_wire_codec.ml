(* Tests for the binary wire layer (docs/WIRE.md): Xdr.Bin value codec
   round trips (property-based, incl. adversarial inputs), the Chanhub
   packet frame codec, ack piggybacking, Nagle-style adaptive flushing
   and the sender-side sliding window. *)

module S = Sched.Scheduler
module B = Xdr.Bin
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module T = Cstream.Target
module W = Cstream.Wire
module GC = Cstream.Group_config

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Random value trees *)

let gen_value : Xdr.value QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_string =
    oneof
      [
        string_size ~gen:printable (int_range 0 12);
        (* raw bytes incl. NUL and non-ASCII *)
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 20);
        return "héllo wörld ⇒ ünïcode";
        string_size ~gen:printable (int_range 65 120);  (* beyond intern threshold *)
      ]
  in
  let gen_int =
    oneof [ small_signed_int; int; oneofl [ 0; -1; 1; max_int; min_int; 1 lsl 62 ] ]
  in
  let gen_real =
    oneof
      [
        float;
        oneofl [ 0.0; -0.0; nan; infinity; neg_infinity; Float.min_float; Float.max_float ];
      ]
  in
  sized @@ fix (fun self n ->
      let gen_pref =
        map3
          (fun stream call field -> Xdr.Pref { Xdr.ps_stream = stream; ps_call = call; ps_field = field })
          gen_string
          (oneof [ small_nat; oneofl [ 0; 1; max_int ] ])
          (oneof [ return None; map Option.some gen_string ])
      in
      let leaf =
        oneof
          [
            return Xdr.Unit;
            map (fun b -> Xdr.Bool b) bool;
            map (fun i -> Xdr.Int i) gen_int;
            map (fun r -> Xdr.Real r) gen_real;
            map (fun s -> Xdr.Str s) gen_string;
            gen_pref;
          ]
      in
      if n <= 0 then leaf
      else
        let sub = self (n / 3) in
        oneof
          [
            leaf;
            map2 (fun a b -> Xdr.Pair (a, b)) sub sub;
            map (fun vs -> Xdr.List vs) (list_size (int_range 0 6) sub);
            (* all-Int lists take the packed encoding *)
            map
              (fun is -> Xdr.List (List.map (fun i -> Xdr.Int i) is))
              (list_size (int_range 0 6) gen_int);
            map
              (fun fields -> Xdr.Record fields)
              (list_size (int_range 0 5)
                 (pair (oneofl [ "q"; "i"; "p"; "k"; "a"; "name"; "grades" ]) sub));
            map2 (fun t v -> Xdr.Tagged (t, v)) (oneofl [ "n"; "g"; "u"; "f" ]) sub;
          ])

let arb_value = QCheck.make ~print:(Format.asprintf "%a" Xdr.pp_value) gen_value

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode v) = v" ~count:500 arb_value (fun v ->
      match B.of_string (B.to_string v) with
      | Ok v' -> Xdr.equal_value v v'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_size_matches =
  QCheck.Test.make ~name:"Bin.size v = length of encoding" ~count:200 arb_value (fun v ->
      B.size v = String.length (B.to_string v))

(* ------------------------------------------------------------------ *)
(* Explicit edge cases *)

let roundtrip v =
  match B.of_string (B.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "decode failed: %s" e

let assert_roundtrips what v =
  check Alcotest.bool what true (Xdr.equal_value v (roundtrip v))

let test_edge_values () =
  assert_roundtrips "min_int" (Xdr.Int min_int);
  assert_roundtrips "max_int" (Xdr.Int max_int);
  assert_roundtrips "negative" (Xdr.Int (-123456789));
  assert_roundtrips "nan" (Xdr.Real nan);
  assert_roundtrips "inf" (Xdr.Real infinity);
  assert_roundtrips "-inf" (Xdr.Real neg_infinity);
  assert_roundtrips "-0." (Xdr.Real (-0.0));
  assert_roundtrips "empty list" (Xdr.List []);
  assert_roundtrips "empty record" (Xdr.Record []);
  assert_roundtrips "empty string" (Xdr.Str "");
  assert_roundtrips "non-ascii" (Xdr.Str "日本語 résumé \x00\xff");
  assert_roundtrips "long string" (Xdr.Str (String.make 5000 '\xab'));
  assert_roundtrips "repeated fields"
    (Xdr.List
       (List.init 20 (fun i ->
            Xdr.Record [ ("q", Xdr.Int i); ("a", Xdr.Str "portname") ])));
  assert_roundtrips "promise ref"
    (Xdr.Pref { Xdr.ps_stream = "3|~r/a/main/1"; ps_call = 42; ps_field = None });
  assert_roundtrips "promise ref with field"
    (Xdr.Pref { Xdr.ps_stream = "3|~r/a/main/1"; ps_call = 0; ps_field = Some "hi" });
  assert_roundtrips "promise ref edge strings"
    (Xdr.Pref { Xdr.ps_stream = ""; ps_call = max_int; ps_field = Some "" });
  (* The stream id is repeated across a pipelined batch: it must go
     through the string-interning path like any other string. *)
  assert_roundtrips "interned stream ids"
    (Xdr.List
       (List.init 8 (fun i ->
            Xdr.Pref { Xdr.ps_stream = "7|~r/agent/group/9"; ps_call = i; ps_field = None })))

let test_pref_bad_field_marker_rejected () =
  (* Tag 0x0B (Pref), interned empty stream id (fresh entry, length 0),
     call 0, then a field marker that is neither 0 nor 1: the total
     decoder must reject, not crash. *)
  match B.of_string "\x0b\x00\x00\x00\x02" with
  | Ok v -> Alcotest.failf "bad field marker decoded as %a" Xdr.pp_value v
  | Error _ -> ()

let test_wrapped_string_ref_rejected () =
  (* A 9-byte string-ref marker that wraps to a negative int: the ref
     must be refused, not used as an array index. *)
  let frame = "\n\000\001n\n\001\005\239\166\161\142\187\193\202\192\127" in
  (match B.of_string frame with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "wrapped ref decoded as %a" Xdr.pp_value v);
  match Xdr.View.of_string frame with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrapped ref scanned"

let test_deep_nesting_roundtrips () =
  let rec deep n acc = if n = 0 then acc else deep (n - 1) (Xdr.Pair (Xdr.Int n, acc)) in
  assert_roundtrips "300 levels" (deep 300 Xdr.Unit)

let test_excessive_nesting_rejected () =
  (* Hand-built 2000-deep Pair spine: the decoder must refuse (depth
     cap) rather than risk a stack overflow — and refuse politely. *)
  let b = Buffer.create 4096 in
  for _ = 1 to 2000 do
    Buffer.add_char b '\x07' (* Pair *);
    Buffer.add_char b '\x00' (* Unit as first component *)
  done;
  Buffer.add_char b '\x00';
  match B.of_string (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "2000-deep nesting accepted"

let test_string_interning_compresses () =
  (* 50 records sharing field names and a port string: the intern table
     should make this far smaller than 50 standalone encodings. *)
  let item i = Xdr.Record [ ("port", Xdr.Str "record_grade"); ("seq", Xdr.Int i) ] in
  let batch = B.size (Xdr.List (List.init 50 item)) in
  let standalone = List.init 50 (fun i -> B.size (item i)) |> List.fold_left ( + ) 0 in
  check Alcotest.bool
    (Printf.sprintf "batched %dB < 60%% of standalone %dB" batch standalone)
    true
    (float_of_int batch < 0.6 *. float_of_int standalone)

(* ------------------------------------------------------------------ *)
(* Truncation / corruption: total decoding *)

let sample_handoff =
  { W.ho_owner = 2; ho_stream = "1|~r/a/grades/2"; ho_call = 5; ho_epoch = 1 }

let test_truncated_returns_error () =
  let victims =
    [
      Xdr.Int max_int;
      Xdr.Real 3.25;
      Xdr.Str "hello world";
      Xdr.List [ Xdr.Int 1; Xdr.Str "two"; Xdr.Real 3.0 ];
      Xdr.Record [ ("q", Xdr.Int 1); ("a", Xdr.Tagged ("n", Xdr.Unit)) ];
      (* packed: multi-byte varints, so cuts land inside an element *)
      Xdr.List [ Xdr.Int 1; Xdr.Int min_int; Xdr.Int 300; Xdr.Int max_int ];
      Xdr.Record [ ("grades", Xdr.List [ Xdr.Int 90; Xdr.Int (-7) ]); ("n", Xdr.Int 2) ];
      (* envelopes: a call with every optional element, replies of
         both forms, a packed int reply and a traced send-ok *)
      W.call_item ~resubmit:true ~handoff:[ sample_handoff ] ~cid:300 ~trace:(Some 70000)
        ~port:"record_grade" ~kind:W.Send ~args:(Xdr.Pair (Xdr.Str "stu1", Xdr.Int 85)) ();
      W.reply_item ~trace:None (W.W_normal (Xdr.Str "done"));
      W.reply_item ~trace:None (W.W_normal (Xdr.Int 70000));
      W.reply_item ~trace:(Some 70000) (W.W_signal ("no_such_user", Xdr.Str "bob"));
      W.send_ok_item ~trace:(Some 70000);
    ]
  in
  List.iter
    (fun v ->
      let enc = B.to_string v in
      for len = 0 to String.length enc - 1 do
        match B.of_string (String.sub enc 0 len) with
        | Error _ -> ()
        | Ok got ->
            Alcotest.failf "prefix %d/%d of %a decoded to %a" len (String.length enc)
              Xdr.pp_value v Xdr.pp_value got
      done)
    victims

let test_trailing_garbage_rejected () =
  let enc = B.to_string (Xdr.Int 5) ^ "x" in
  match B.of_string enc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let prop_corruption_never_raises =
  QCheck.Test.make ~name:"corrupted buffers never raise" ~count:300
    QCheck.(triple arb_value small_int (int_bound 255))
    (fun (v, pos, byte) ->
      let enc = Bytes.of_string (B.to_string v) in
      let pos = pos mod Bytes.length enc in
      Bytes.set enc pos (Char.chr byte);
      match B.of_string (Bytes.to_string enc) with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let prop_random_bytes_never_raise =
  QCheck.Test.make ~name:"arbitrary byte strings never raise" ~count:300
    QCheck.(string_gen_of_size (Gen.int_range 0 40) (Gen.map Char.chr (Gen.int_range 0 255)))
    (fun s ->
      match B.of_string s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Packet frame codec *)

let ack ?(pressure = 0) idx upto = { CH.a_idx = idx; a_upto = upto; a_pressure = pressure }

let equal_packet (a : Xdr.value CH.packet) (b : Xdr.value CH.packet) =
  match (a, b) with
  | ( CH.Data { src = s1; idx = x1; first_seq = f1; opening = o1; acks = a1; items = i1 },
      CH.Data { src = s2; idx = x2; first_seq = f2; opening = o2; acks = a2; items = i2 } ) ->
      s1 = s2 && x1 = x2 && f1 = f2 && o1 = o2 && a1 = a2
      && List.length i1 = List.length i2
      && List.for_all2 Xdr.equal_value i1 i2
  | CH.Ack { acks = a1 }, CH.Ack { acks = a2 } -> a1 = a2
  | CH.Reset _, CH.Reset _ -> a = b
  | _ -> false

let sample_opening = { CH.open_label = "grades"; open_meta = "~r/a/grades/1/0" }

let data ?(acks = []) ?(items = []) ~first_seq () =
  let opening = if first_seq = 0 then Some sample_opening else None in
  CH.Data { src = 3; idx = 7; first_seq; opening; acks; items }

let test_packet_roundtrips () =
  let packets =
    [
      data ~first_seq:42
        ~acks:[ ack 7 (-1); ack ~pressure:2 8 17 ]
        ~items:
          (List.init 5 (fun i ->
               W.call_item ~cid:(100 + i) ~trace:None ~port:"record_grade"
                 ~kind:W.Call
                 ~args:(Xdr.Pair (Xdr.Str "stu00001", Xdr.Int 85)) ()))
        ();
      data ~first_seq:0 ();
      CH.Ack { acks = [ ack ~pressure:1 7 12 ] };
      CH.Ack { acks = [] };
      CH.Reset { src = 3; idx = 7; reason = "no such port group" };
    ]
  in
  List.iter
    (fun p ->
      match CH.decode_packet (CH.encode_packet p) with
      | Ok p' -> check Alcotest.bool "packet roundtrip" true (equal_packet p p')
      | Error e -> Alcotest.failf "packet decode failed: %s" e)
    packets

let gen_packet : Xdr.value CH.packet QCheck.Gen.t =
  let open QCheck.Gen in
  let nat = oneof [ small_nat; int_bound max_int ] in
  let gen_ack =
    map3
      (fun a_idx a_upto a_pressure -> { CH.a_idx; a_upto; a_pressure })
      nat (oneof [ return (-1); nat ]) (int_bound 2)
  in
  let gen_string = string_size ~gen:printable (int_range 0 24) in
  let gen_data =
    (* first_seq = 0 half the time: the opening form is not a corner case *)
    let* first_seq = oneof [ return 0; map succ nat ] in
    let* opening =
      if first_seq = 0 then
        map2 (fun open_label open_meta -> Some { CH.open_label; open_meta }) gen_string gen_string
      else return None
    in
    map4
      (fun src idx acks items -> CH.Data { src; idx; first_seq; opening; acks; items })
      nat nat
      (list_size (int_range 0 4) gen_ack)
      (list_size (int_range 0 4) gen_value)
  in
  oneof
    [
      gen_data;
      gen_data;
      map (fun acks -> CH.Ack { acks }) (list_size (int_range 0 4) gen_ack);
      map3 (fun src idx reason -> CH.Reset { src; idx; reason }) nat nat gen_string;
    ]

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"decode (encode p) = p, and re-encodes byte-for-byte" ~count:500
    (QCheck.make gen_packet) (fun p ->
      let f = CH.encode_packet p in
      match CH.decode_packet f with
      | Ok p' -> equal_packet p p' && String.equal (CH.encode_packet p') f
      | Error e -> QCheck.Test.fail_reportf "packet decode failed: %s" e)

let test_opening_fields_only_at_seq_zero () =
  let compact = CH.encode_packet (data ~first_seq:1 ()) in
  let opening = CH.encode_packet (data ~first_seq:0 ()) in
  check Alcotest.int "an opening frame adds exactly its label and meta"
    (String.length compact
    + String.length (B.to_string (Xdr.Str sample_opening.open_label))
    + String.length (B.to_string (Xdr.Str sample_opening.open_meta))
    - 2)
    (String.length opening);
  let rejects p =
    match CH.encode_packet p with
    | _ -> Alcotest.fail "inconsistent opening encoded"
    | exception Invalid_argument _ -> ()
  in
  rejects (CH.Data { src = 3; idx = 7; first_seq = 0; opening = None; acks = []; items = [] });
  rejects
    (CH.Data
       { src = 3; idx = 7; first_seq = 1; opening = Some sample_opening; acks = []; items = [] })

let test_packet_garbage_rejected () =
  (match CH.decode_packet "" with Error _ -> () | Ok _ -> Alcotest.fail "empty frame accepted");
  (match CH.decode_packet "\x02\x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong version accepted");
  List.iter
    (fun p ->
      let enc = CH.encode_packet p in
      for len = 0 to String.length enc - 1 do
        match CH.decode_packet (String.sub enc 0 len) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "truncated frame (%d bytes) accepted" len
      done)
    [ CH.Reset { src = 3; idx = 7; reason = "r" }; data ~first_seq:0 () ]

(* ------------------------------------------------------------------ *)
(* Behaviour: piggybacking, Nagle flush, sliding window *)

type world = {
  sched : S.t;
  net : CH.frame Net.t;
  node_a : Net.node;
  node_b : Net.node;
  hub_a : CH.hub;
  hub_b : CH.hub;
}

let make_world ?(cfg = Net.default_config) ?(seed = 42) ?(ack_delay = 0.0) () =
  let sched = S.create ~seed () in
  let net = Net.create sched cfg in
  let node_a = Net.add_node net ~name:"a" in
  let node_b = Net.add_node net ~name:"b" in
  let hub_a = CH.create_hub ~ack_delay ~net:(net, node_a) () in
  let hub_b = CH.create_hub ~ack_delay ~net:(net, node_b) () in
  { sched; net; node_a; node_b; hub_a; hub_b }

let run_ok w =
  match S.run w.sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* A request/reply echo world over raw stream/target, returning the
   scheduler stats after [n] calls. *)
let run_echo ~w ~cfg ~n =
  let target =
    T.create w.hub_b ~gid:"echo"
      ~config:GC.(default |> with_reply_config cfg)
      (fun _conn ~seq:_ ~port:_ ~kind:_ ~args ~reply -> reply (W.W_normal args))
  in
  ignore (target : T.t);
  let se = SE.create w.hub_a ~agent:"t" ~dst:(Net.address w.node_b) ~gid:"echo" ~config:cfg () in
  let replies = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to n do
           match
             SE.call se ~port:"p" ~kind:W.Call ~args:(Xdr.Int i) ~on_reply:(fun _ -> incr replies)
           with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "call failed: %s" e
         done;
         match SE.synch se with
         | Ok () -> ()
         | Error `Exception_reply -> Alcotest.fail "exception reply"
         | Error (`Broken r) -> Alcotest.failf "stream broke: %s" r));
  run_ok w;
  check Alcotest.int "all replies arrived" n !replies;
  S.stats w.sched

let test_piggybacking_halves_standalone_acks () =
  let cfg = { CH.default_config with CH.max_batch = 8; flush_interval = 1e-3 } in
  let without = run_echo ~w:(make_world ()) ~cfg ~n:64 in
  let with_ = run_echo ~w:(make_world ~ack_delay:1e-3 ()) ~cfg ~n:64 in
  let acks_off = Sim.Stats.peek without "chan_ack_packets" in
  let acks_on = Sim.Stats.peek with_ "chan_ack_packets" in
  check Alcotest.bool
    (Printf.sprintf "standalone ack packets: %d with piggyback <= half of %d without" acks_on
       acks_off)
    true
    (acks_on * 2 <= acks_off);
  check Alcotest.bool "some acks actually piggybacked" true
    (Sim.Stats.peek with_ "chan_piggybacked_acks" > 0)

let test_nagle_first_item_flushes_immediately () =
  let w = make_world () in
  let received_at = ref nan in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ _ -> received_at := S.now w.sched));
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:""
      { CH.adaptive_config with CH.flush_interval = 100e-3 }
  in
  ignore (S.spawn w.sched (fun () -> ignore (CH.send out (Xdr.Int 1) : (unit, string) result)));
  run_ok w;
  (* Idle channel: the item must leave immediately (one RTT ~ 1.1 ms),
     not wait for the 100 ms flush timer. *)
  check Alcotest.bool
    (Printf.sprintf "delivered at %.4fs, not on the flush timer" !received_at)
    true
    (!received_at < 10e-3)

let test_nagle_coalesces_under_load () =
  let w = make_world () in
  let batches = ref [] in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items -> batches := List.length items :: !batches));
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:""
      { CH.adaptive_config with CH.flush_interval = 100e-3 }
  in
  ignore
    (S.spawn w.sched (fun () ->
         (* All 20 sends happen at t=0: the first flushes alone (idle);
            the rest coalesce while it is in flight. *)
         for i = 1 to 20 do
           ignore (CH.send out (Xdr.Int i) : (unit, string) result)
         done));
  run_ok w;
  let batches = List.rev !batches in
  check Alcotest.int "all items arrive" 20 (List.fold_left ( + ) 0 batches);
  check Alcotest.bool
    (Printf.sprintf "first batch is the lone idle flush: %s"
       (String.concat "," (List.map string_of_int batches)))
    true
    (match batches with 1 :: rest -> rest <> [] && List.for_all (fun b -> b > 1) rest | _ -> false)

let test_window_backpressures_and_bounds_inflight () =
  let w = make_world () in
  let item = Xdr.Str (String.make 100 'x') in
  let item_bytes = B.size item in
  (* Window fits ~4 items; 20 sends must block and drain in waves. *)
  let cfg =
    {
      CH.adaptive_config with
      CH.max_inflight_bytes = 4 * item_bytes;
      max_batch = 4;
      flush_interval = 1e-3;
    }
  in
  let received = ref 0 in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items -> received := !received + List.length items));
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" cfg in
  let max_seen = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         for _ = 1 to 20 do
           (match CH.await_window out ~bytes:item_bytes with
           | Ok () -> ()
           | Error e -> Alcotest.failf "window wait failed: %s" e);
           (match CH.send out item with
           | Ok () -> ()
           | Error e -> Alcotest.failf "send failed: %s" e);
           if CH.inflight_bytes out > !max_seen then max_seen := CH.inflight_bytes out
         done));
  run_ok w;
  check Alcotest.int "all delivered" 20 !received;
  check Alcotest.bool
    (Printf.sprintf "inflight bytes bounded: %d <= %d" !max_seen cfg.CH.max_inflight_bytes)
    true
    (!max_seen <= cfg.CH.max_inflight_bytes)

let test_window_waiters_released_on_break () =
  let w = make_world () in
  let item = Xdr.Str (String.make 100 'x') in
  let cfg = { CH.adaptive_config with CH.max_inflight_bytes = 50; max_retries = 0 } in
  (* No acceptor for the label on b: data is answered with Reset, so
     the channel breaks while the second sender waits for window room. *)
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"nobody" ~meta:"" cfg in
  let got_error = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         ignore (CH.send out item : (unit, string) result);
         match CH.await_window out ~bytes:(B.size item) with
         | Ok () -> Alcotest.fail "window opened on a broken channel"
         | Error e -> got_error := Some e));
  run_ok w;
  match !got_error with
  | Some _ -> ()
  | None -> Alcotest.fail "waiter never released"

let test_stream_call_window_preserves_order () =
  (* Two fibers race calls through a tiny window. Wake order under
     back-pressure decides how the fibers interleave, but each fiber's
     own calls must still execute in its issue order, and nothing may
     be lost or duplicated. *)
  let w = make_world () in
  let cfg =
    { CH.adaptive_config with CH.max_inflight_bytes = 60; max_batch = 2; flush_interval = 1e-3 }
  in
  let executed = ref [] in
  let target =
    T.create w.hub_b ~gid:"echo"
      ~config:GC.(default |> with_reply_config cfg)
      (fun _conn ~seq:_ ~port:_ ~kind:_ ~args ~reply ->
        (match args with Xdr.Int i -> executed := i :: !executed | _ -> ());
        reply (W.W_normal args))
  in
  ignore (target : T.t);
  let se = SE.create w.hub_a ~agent:"t" ~dst:(Net.address w.node_b) ~gid:"echo" ~config:cfg () in
  let caller lo hi =
    S.spawn w.sched (fun () ->
        for i = lo to hi do
          match SE.call se ~port:"p" ~kind:W.Call ~args:(Xdr.Int i) ~on_reply:(fun _ -> ()) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "call failed: %s" e
        done)
  in
  ignore (caller 1 15);
  ignore (caller 101 115);
  ignore
    (S.spawn w.sched (fun () ->
         S.sleep w.sched 1.0;
         match SE.synch se with Ok () -> () | Error _ -> Alcotest.fail "broke"));
  run_ok w;
  let executed = List.rev !executed in
  let of_fiber lo hi = List.filter (fun i -> lo <= i && i <= hi) executed in
  check Alcotest.(list int) "fiber 1's calls in its issue order"
    (List.init 15 (fun i -> i + 1))
    (of_fiber 1 15);
  check Alcotest.(list int) "fiber 2's calls in its issue order"
    (List.init 15 (fun i -> i + 101))
    (of_fiber 101 115);
  check Alcotest.int "nothing lost or duplicated" 30 (List.length executed)

(* ------------------------------------------------------------------ *)
(* Compact channel names: only the opening packet names a channel in
   full, so the hub must cope with compact packets it cannot place. *)

let peek w name = Sim.Stats.peek (S.stats w.sched) name

(* Hand packet [p] to [dst]'s hub as if [src] had sent it. *)
let inject w ~src ~dst p = Net.send w.net ~src ~dst:(Net.address dst) ~bytes_:0 (CH.encode_packet p)

let sink w =
  let got = ref [] and opened = ref 0 in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      incr opened;
      CH.set_deliver in_chan (fun _ items ->
          got := !got @ List.map (fun vw -> Result.get_ok (Xdr.View.materialize vw)) items));
  (got, opened)

let test_compact_for_unknown_channel_dropped () =
  let w = make_world () in
  let got, opened = sink w in
  let a = Net.address w.node_a in
  inject w ~src:w.node_a ~dst:w.node_b
    (CH.Data { src = a; idx = 0; first_seq = 3; opening = None; acks = []; items = [ Xdr.Int 1 ] });
  run_ok w;
  check Alcotest.int "no in-chan created" 0 !opened;
  check Alcotest.int "nothing delivered" 0 (List.length !got);
  check Alcotest.int "no Reset sent" 0 (peek w "chan_reset_packets");
  check Alcotest.int "no ack sent" 0 (peek w "chan_ack_packets");
  check Alcotest.int "counted" 1 (peek w "chan_unopened_drops")

let test_lost_opening_recovered_by_retransmit () =
  (* Hub a's link loses exactly the first frame it sends — the opening
     packet — and delivers the compact one behind it. *)
  let sched = S.create ~seed:42 () in
  let net = Net.create sched Net.default_config in
  let node_a = Net.add_node net ~name:"a" and node_b = Net.add_node net ~name:"b" in
  let tr = Transport_sim.endpoint net node_a in
  let lost = ref 0 in
  let lossy =
    {
      tr with
      Transport.send =
        (fun ~dst frame -> if !lost = 0 then incr lost else tr.Transport.send ~dst frame);
    }
  in
  let w =
    {
      sched;
      net;
      node_a;
      node_b;
      hub_a = CH.create_hub ~transport:lossy ();
      hub_b = CH.create_hub ~net:(net, node_b) ();
    }
  in
  let got, opened = sink w in
  let out =
    CH.connect w.hub_a ~dst:(Net.address node_b) ~label:"sink" ~meta:""
      { CH.rpc_config with CH.retransmit_timeout = 10e-3 }
  in
  ignore
    (S.spawn sched (fun () ->
         List.iter (fun i -> ignore (CH.send out (Xdr.Int i) : (unit, string) result)) [ 1; 2 ]));
  run_ok w;
  check Alcotest.int "the opening packet was lost" 1 !lost;
  check Alcotest.bool "the compact packet was dropped, not answered" true
    (peek w "chan_unopened_drops" >= 1 && peek w "chan_reset_packets" = 0);
  check Alcotest.bool "recovered by retransmit" true (peek w "chan_retransmits" >= 1);
  check Alcotest.int "opened once" 1 !opened;
  check Alcotest.bool "delivered exactly once, in order" true
    (List.equal Xdr.equal_value [ Xdr.Int 1; Xdr.Int 2 ] !got);
  check Alcotest.int "fully acked" 0 (CH.unacked_count out)

let test_ack_for_unknown_idx_ignored () =
  let w = make_world () in
  (* The channel's peer runs no hub: only the injected acks below can
     move the channel. *)
  let peer = Net.add_node w.net ~name:"silent" in
  let out =
    CH.connect w.hub_a ~dst:(Net.address peer) ~label:"sink" ~meta:""
      { CH.rpc_config with CH.retransmit_timeout = 10.0 }
  in
  ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
  let unacked_at = ref [] in
  let probe () = unacked_at := CH.unacked_count out :: !unacked_at in
  let ack_from node idx = inject w ~src:node ~dst:w.node_a (CH.Ack { acks = [ ack idx 0 ] }) in
  ack_from peer 5;  (* an idx hub a never opened *)
  ack_from w.node_b 0;  (* the right idx, from a node that is not the peer *)
  S.after w.sched 0.1 probe;
  S.after w.sched 0.2 (fun () -> ack_from peer 0);
  S.after w.sched 0.3 probe;
  ignore (S.run ~until:1.0 w.sched : S.outcome);
  check Alcotest.(list int) "stray acks ignored, the peer's ack frees the item" [ 0; 1 ]
    !unacked_at

(* An ack past the last transmitted seq frees what was sent and
   nothing more: the next item stays tracked until its own ack. *)
let test_ack_past_sent_clamped () =
  let w = make_world () in
  let peer = Net.add_node w.net ~name:"silent" in
  let out =
    CH.connect w.hub_a ~dst:(Net.address peer) ~label:"sink" ~meta:""
      { CH.rpc_config with CH.retransmit_timeout = 10.0 }
  in
  let idx = (CH.out_key out).CH.idx in
  let unacked_at = ref [] in
  let probe () = unacked_at := CH.unacked_count out :: !unacked_at in
  let ack_upto upto = inject w ~src:peer ~dst:w.node_a (CH.Ack { acks = [ ack idx upto ] }) in
  ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
  S.after w.sched 0.1 (fun () -> ack_upto 5);
  S.after w.sched 0.2 (fun () ->
      probe ();
      ignore (CH.send out (Xdr.Int 2) : (unit, string) result);
      probe ());
  S.after w.sched 0.3 (fun () -> ack_upto 1);
  S.after w.sched 0.4 probe;
  ignore (S.run ~until:1.0 w.sched : S.outcome);
  check Alcotest.(list int) "seq 0 freed, seq 1 tracked, then freed by its ack" [ 0; 1; 0 ]
    (List.rev !unacked_at);
  check Alcotest.bool "not broken" true (CH.out_broken out = None)

(* Only a channel's peer may feed or break it: Data or a Reset from a
   third node naming the a->b channel is dropped and counted, and the
   channel carries on. The peer sends item 1 before the forgery and
   item 2 after it, at the position the forged Data claimed. *)
let spoof_world () =
  let w = make_world () in
  let got, _ = sink w in
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" CH.rpc_config in
  let send_at time v =
    S.after w.sched time (fun () -> ignore (CH.send out (Xdr.Int v) : (unit, string) result))
  in
  send_at 0.0 1;
  send_at 0.2 2;
  (w, got, out, Net.add_node w.net ~name:"mallory")

let check_channel_survived w got out =
  check Alcotest.bool "the peer's items delivered, in order" true
    (List.equal Xdr.equal_value [ Xdr.Int 1; Xdr.Int 2 ] !got);
  check Alcotest.bool "sender not broken" true (CH.out_broken out = None);
  check Alcotest.int "fully acked" 0 (CH.unacked_count out);
  check Alcotest.int "counted" 1 (peek w "chan_spoofed_drops")

let test_spoofed_data_dropped () =
  let w, got, out, mallory = spoof_world () in
  let k = CH.out_key out in
  S.after w.sched 0.1 (fun () ->
      inject w ~src:mallory ~dst:w.node_b
        (CH.Data
           {
             src = k.CH.src;
             idx = k.CH.idx;
             first_seq = 1;
             opening = None;
             acks = [];
             items = [ Xdr.Int 99 ];
           }));
  run_ok w;
  check_channel_survived w got out;
  check Alcotest.int "acks only for the peer's two packets" 2 (peek w "chan_ack_packets")

let test_spoofed_reset_dropped at () =
  let w, got, out, mallory = spoof_world () in
  let k = CH.out_key out in
  S.after w.sched 0.1 (fun () ->
      inject w ~src:mallory ~dst:(at w)
        (CH.Reset { src = k.CH.src; idx = k.CH.idx; reason = "forged" }));
  run_ok w;
  check_channel_survived w got out

let test_truncated_opening_counted () =
  let w = make_world () in
  let _, opened = sink w in
  let frame =
    CH.encode_packet
      (CH.Data
         {
           src = Net.address w.node_a;
           idx = 0;
           first_seq = 0;
           opening = Some { CH.open_label = "sink"; open_meta = "~r/agent/g/1/0" };
           acks = [];
           items = [];
         })
  in
  (* The frame ends with meta's bytes, then the two empty list counts:
     cut four bytes into meta's tail. *)
  let cut = String.sub frame 0 (String.length frame - 6) in
  (match CH.decode_packet cut with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "frame truncated inside meta decoded");
  Net.send w.net ~src:w.node_a ~dst:(Net.address w.node_b) ~bytes_:0 cut;
  run_ok w;
  check Alcotest.int "counted as a decode error" 1 (peek w "chan_decode_errors");
  check Alcotest.int "no channel opened" 0 !opened

let test_stale_compact_after_reset_answered () =
  let w = make_world () in
  let got, _ = sink w in
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" CH.rpc_config in
  ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
  S.after w.sched 0.1 (fun () -> CH.break_out out ~reason:"restart");
  let stale =
    CH.Data
      {
        src = (CH.out_key out).CH.src;
        idx = (CH.out_key out).CH.idx;
        first_seq = 1;
        opening = None;
        acks = [];
        items = [ Xdr.Int 2 ];
      }
  in
  S.after w.sched 0.2 (fun () -> inject w ~src:w.node_a ~dst:w.node_b stale);
  run_ok w;
  check Alcotest.int "only the first item delivered" 1 (List.length !got);
  check Alcotest.int "the sender's Reset, then the receiver's answer to the stale packet" 2
    (peek w "chan_reset_packets");
  check Alcotest.int "not mistaken for an unopened channel" 0 (peek w "chan_unopened_drops")

(* ------------------------------------------------------------------ *)
(* Lazy views (docs/WIRE.md §Lazy views): a scan-validated slice must
   be interchangeable with the tree it covers. *)

let prop_view_materialize_equiv =
  QCheck.Test.make ~name:"materialize (view (encode v)) = v" ~count:500 arb_value (fun v ->
      match Xdr.View.of_string (B.to_string v) with
      | Error e -> QCheck.Test.fail_reportf "scan failed: %s" e
      | Ok vw -> (
          match Xdr.View.materialize vw with
          | Ok v' -> Xdr.equal_value v v'
          | Error e -> QCheck.Test.fail_reportf "materialize failed: %s" e))

let prop_view_navigation_equiv =
  QCheck.Test.make ~name:"view slicing = tree navigation" ~count:300 arb_value (fun v ->
      match Xdr.View.of_string (B.to_string v) with
      | Error e -> QCheck.Test.fail_reportf "scan failed: %s" e
      | Ok vw -> (
          let mat sub =
            match Xdr.View.materialize sub with
            | Ok x -> x
            | Error e -> QCheck.Test.fail_reportf "materialize failed: %s" e
          in
          match v with
          | Xdr.Pair (a, b) -> (
              match Xdr.View.pair_parts vw with
              | Ok (va, vb) -> Xdr.equal_value a (mat va) && Xdr.equal_value b (mat vb)
              | Error e -> QCheck.Test.fail_reportf "pair_parts: %s" e)
          | Xdr.List items -> (
              match (Xdr.View.list_items vw, Xdr.View.list_item vw (List.length items)) with
              | Ok subs, Ok None ->
                  List.length subs = List.length items
                  && List.for_all2 (fun x s -> Xdr.equal_value x (mat s)) items subs
                  && (items = []
                     ||
                     let k = List.length items / 2 in
                     match Xdr.View.list_item vw k with
                     | Ok (Some s) -> Xdr.equal_value (List.nth items k) (mat s)
                     | _ -> false)
              | _ -> false)
          | Xdr.Record fields -> (
              match Xdr.View.record_fields vw with
              | Ok subs ->
                  List.length subs = List.length fields
                  && List.for_all2
                       (fun (n, x) (n', s) -> String.equal n n' && Xdr.equal_value x (mat s))
                       fields subs
                  && (fields = []
                     ||
                     (* both sides resolve a duplicate name to its first
                        occurrence *)
                     let n, _ = List.hd fields in
                     match Xdr.View.record_field vw n with
                     | Ok (Some s) -> Xdr.equal_value (List.assoc n fields) (mat s)
                     | _ -> false)
              | Error e -> QCheck.Test.fail_reportf "record_fields: %s" e)
          | Xdr.Tagged (t, inner) -> (
              match Xdr.View.tagged_parts vw with
              | Ok (t', s) -> String.equal t t' && Xdr.equal_value inner (mat s)
              | Error e -> QCheck.Test.fail_reportf "tagged_parts: %s" e)
          | leaf -> Xdr.equal_value leaf (mat vw)))

let rec tree_has_prefs = function
  | Xdr.Pref _ -> true
  | Xdr.Pair (a, b) -> tree_has_prefs a || tree_has_prefs b
  | Xdr.List vs -> List.exists tree_has_prefs vs
  | Xdr.Record fs -> List.exists (fun (_, x) -> tree_has_prefs x) fs
  | Xdr.Tagged (_, x) -> tree_has_prefs x
  | Xdr.Unit | Xdr.Bool _ | Xdr.Int _ | Xdr.Real _ | Xdr.Str _ -> false

let prop_has_prefs_matches_tree =
  QCheck.Test.make ~name:"View.has_prefs = tree walk" ~count:300 arb_value (fun v ->
      match Xdr.View.of_string (B.to_string v) with
      | Error e -> QCheck.Test.fail_reportf "scan failed: %s" e
      | Ok vw -> Bool.equal (Xdr.View.has_prefs vw) (tree_has_prefs v))

let view_of v =
  match Xdr.View.of_string (B.to_string v) with
  | Ok vw -> vw
  | Error e -> Alcotest.failf "view scan failed: %s" e

let materialize_ok vw =
  match Xdr.View.materialize vw with Ok v -> v | Error e -> Alcotest.failf "materialize: %s" e

let test_view_projection_units () =
  let l = Xdr.List [ Xdr.Int 10; Xdr.Str "x"; Xdr.Real 2.5 ] in
  let lw = view_of l in
  (match Xdr.View.list_item lw 1 with
  | Ok (Some it) -> check Alcotest.bool "item 1" true (Xdr.equal_value (Xdr.Str "x") (materialize_ok it))
  | _ -> Alcotest.fail "list_item 1 missing");
  (match Xdr.View.list_item lw 3 with
  | Ok None -> ()
  | _ -> Alcotest.fail "index past the end must be Ok None");
  (match Xdr.View.list_item lw (-1) with
  | Error _ -> ()
  | _ -> Alcotest.fail "negative index must be an error");
  let r = Xdr.Record [ ("a", Xdr.Int 1); ("b", Xdr.Str "bee") ] in
  let rw = view_of r in
  (match Xdr.View.record_field rw "b" with
  | Ok (Some f) -> check Alcotest.bool "field b" true (Xdr.equal_value (Xdr.Str "bee") (materialize_ok f))
  | _ -> Alcotest.fail "record_field b missing");
  match Xdr.View.record_field rw "zz" with
  | Ok None -> ()
  | _ -> Alcotest.fail "absent field must be Ok None"

(* ------------------------------------------------------------------ *)
(* Connection dictionary (docs/WIRE.md §Connection dictionary) *)

let dict_frame dict v =
  B.with_encoder (fun e ->
      B.use_dict e dict;
      B.add_value e v;
      B.contents e)

let dict_decode dt s =
  let d = B.decoder s in
  B.use_dict_table d dt;
  match B.read_value d with
  | Error _ as e -> e
  | Ok v -> ( match B.expect_end d with Ok () -> Ok v | Error _ as e -> e)

let prop_dict_cross_frame_roundtrip =
  (* One dictionary, one table, a sequence of frames: every frame must
     decode back to its value, in order — defines land in the shared
     table exactly once and later refs resolve against it. *)
  QCheck.Test.make ~name:"dict frames roundtrip in sequence" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 5) arb_value)
    (fun vs ->
      let dict = B.create_dict () in
      let frames = List.map (dict_frame dict) vs in
      let dt = B.create_dict_table () in
      List.for_all2
        (fun v s ->
          match dict_decode dt s with
          | Ok v' -> Xdr.equal_value v v'
          | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)
        vs frames)

let prop_dict_view_cross_frame =
  (* Same, through views: scan every frame first (defines feed the
     shared table during the scan), materialize afterwards — and twice,
     because replays of an already-scanned slice must not re-append to
     the connection table. *)
  QCheck.Test.make ~name:"dict frames: scan all, then materialize = originals" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 5) arb_value)
    (fun vs ->
      let dict = B.create_dict () in
      let frames = List.map (dict_frame dict) vs in
      let dt = B.create_dict_table () in
      let views =
        List.map
          (fun s ->
            let d = B.decoder s in
            B.use_dict_table d dt;
            match Xdr.View.read d with
            | Ok vw -> vw
            | Error e -> QCheck.Test.fail_reportf "scan failed: %s" e)
          frames
      in
      List.for_all2
        (fun v vw ->
          match (Xdr.View.materialize vw, Xdr.View.materialize vw) with
          | Ok a, Ok b -> Xdr.equal_value v a && Xdr.equal_value v b
          | _ -> false)
        vs views)

let test_dict_compresses_across_frames () =
  let frame i = Xdr.Record [ ("host", Xdr.Str "shard-host-03.internal"); ("seq", Xdr.Int i) ] in
  let frames = List.init 10 frame in
  let plain = List.map B.to_string frames in
  let dict = B.create_dict () in
  let promoted = List.map (dict_frame dict) frames in
  (* First sighting stays an inline define: frame 1 is byte-identical
     to the dictionary-less encoding. *)
  check Alcotest.string "first frame unchanged" (List.nth plain 0) (List.nth promoted 0);
  let total l = List.fold_left (fun a s -> a + String.length s) 0 l in
  check Alcotest.bool
    (Printf.sprintf "promoted %dB < plain %dB" (total promoted) (total plain))
    true
    (total promoted < total plain);
  check Alcotest.bool "strings were promoted" true (B.dict_defines dict > 0);
  check Alcotest.bool "refs replaced re-sends" true (B.dict_refs dict > 0);
  let dt = B.create_dict_table () in
  List.iteri
    (fun i s ->
      match dict_decode dt s with
      | Ok v -> check Alcotest.bool "frame decodes" true (Xdr.equal_value (frame i) v)
      | Error e -> Alcotest.failf "frame %d failed: %s" i e)
    promoted

let test_dict_reset_bumps_epoch_and_redefines () =
  let dict = B.create_dict () in
  let v = Xdr.Str "shard-host-01.internal" in
  let f1 = dict_frame dict v in
  let _f2 = dict_frame dict v in
  let f3 = dict_frame dict v in
  check Alcotest.bool "steady state is a short slot ref" true
    (String.length f3 < String.length f1);
  let e0 = B.dict_epoch dict in
  B.reset_dict dict;
  check Alcotest.bool "epoch bumped" true (B.dict_epoch dict > e0);
  check Alcotest.int "promotions forgotten" 0 (B.dict_size dict);
  (* The incarnation's first frame looks exactly like a fresh
     connection's, and decodes against a fresh table. *)
  let g1 = dict_frame dict v in
  check Alcotest.string "first frame after reset re-defines" f1 g1;
  let _g2 = dict_frame dict v in
  let g3 = dict_frame dict v in
  let dt = B.create_dict_table () in
  List.iter
    (fun s ->
      match dict_decode dt s with
      | Ok v' -> check Alcotest.bool "new-epoch frame decodes" true (Xdr.equal_value v v')
      | Error e -> Alcotest.failf "new-epoch frame failed: %s" e)
    [ g1; _g2; g3 ];
  (* A stale ref frame against a fresh table must be refused, not
     crash — this is why receivers swap tables on an epoch change. *)
  match dict_decode (B.create_dict_table ()) f3 with
  | Error _ -> ()
  | Ok got -> Alcotest.failf "stale dict ref decoded as %a" Xdr.pp_value got

(* ------------------------------------------------------------------ *)
(* Packed int lists (docs/WIRE.md §1, tag 0x0C) *)

let ints is = Xdr.List (List.map (fun i -> Xdr.Int i) is)

(* Values built around int lists: empty, singleton, extreme ints, mixed
   int/non-int, nested in records, pairs and tagged values. *)
let gen_int_list_value : Xdr.value QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_int = oneof [ small_signed_int; int; oneofl [ 0; -1; 1; -6; max_int; min_int ] ] in
  let int_list =
    oneof
      [
        return (Xdr.List []);
        map (fun i -> ints [ i ]) gen_int;
        map ints (list_size (int_range 1 20) gen_int);
        return (ints [ min_int; max_int; 0 ]);
        (* mixed: one non-Int anywhere keeps the tagged encoding *)
        map2
          (fun is k ->
            let n = List.length is in
            Xdr.List
              (List.mapi
                 (fun j i -> if j = k mod (n + 1) then Xdr.Str "x" else Xdr.Int i)
                 (is @ [ 0 ])))
          (list_size (int_range 0 6) gen_int) nat;
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then int_list
      else
        let sub = self (n / 3) in
        oneof
          [
            int_list;
            map2 (fun a b -> Xdr.Pair (a, b)) sub sub;
            map (fun vs -> Xdr.List vs) (list_size (int_range 1 4) sub);
            map2
              (fun g v -> Xdr.Record [ ("name", Xdr.Str "stu"); ("grades", g); ("x", v) ])
              int_list sub;
            map2 (fun t v -> Xdr.Tagged (t, v)) (oneofl [ "n"; "some" ]) sub;
          ])

let prop_packed_roundtrip =
  QCheck.Test.make ~name:"int lists: decode, re-encode and size agree" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Xdr.pp_value) gen_int_list_value)
    (fun v ->
      let enc = B.to_string v in
      match B.of_string enc with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok v' ->
          Xdr.equal_value v v'
          && String.equal enc (B.to_string v')
          && B.size v = String.length enc)

let hex s =
  String.concat " " (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_packed_pinned_bytes () =
  let bytes what expect v = check Alcotest.string what expect (hex (B.to_string v)) in
  (* tag 0x0C, count, then zigzag varints with no per-element tags *)
  bytes "all-Int list is packed" "0c 03 02 01 d8 04" (ints [ 1; -1; 300 ]);
  bytes "singleton is packed" "0c 01 00" (ints [ 0 ]);
  bytes "extreme ints are packed"
    "0c 02 ff ff ff ff ff ff ff ff 7f fe ff ff ff ff ff ff ff 7f"
    (ints [ min_int; max_int ]);
  bytes "empty list keeps 0x08" "08 00" (Xdr.List []);
  bytes "mixed list keeps 0x08" "08 02 03 02 00" (Xdr.List [ Xdr.Int 1; Xdr.Unit ]);
  bytes "list of int lists: outer 0x08, inner 0x0C" "08 02 0c 01 02 08 00"
    (Xdr.List [ ints [ 1 ]; Xdr.List [] ]);
  (* 16 grades: one tag and one count instead of 16 tags *)
  let grades = ints (List.init 16 (fun g -> 40 + g)) in
  check Alcotest.int "16 one-byte grades" 18 (B.size grades)

let expect_rejected what frame =
  (match B.of_string frame with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "%s: decoded as %a" what Xdr.pp_value v
  | exception e -> Alcotest.failf "%s: decode raised %s" what (Printexc.to_string e));
  match Xdr.View.of_string frame with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: scanned" what
  | exception e -> Alcotest.failf "%s: scan raised %s" what (Printexc.to_string e)

let test_packed_hostile_rejected () =
  expect_rejected "count 0" "\x0c\x00";
  expect_rejected "count past the input" "\x0c\x05\x02\x04";
  expect_rejected "huge count" "\x0c\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x02";
  expect_rejected "truncated varint" "\x0c\x02\x02\x80";
  expect_rejected "10-byte varint" ("\x0c\x01" ^ String.make 9 '\xff' ^ "\x01");
  expect_rejected "truncated inside a record"
    "\x09\x01\x00\x06grades\x0c\x03\x02\x04";
  (* the bytes left cover the count but not the elements *)
  expect_rejected "elements past the input" "\x0c\x02\x80\x80";
  expect_rejected "inside a tagged list" "\x08\x01\x0c\x02\x02"

let test_packed_views () =
  (* -6 zigzags to 0x0b, the Pref tag byte: the memchr pre-filter hits,
     and the structural walk must still say no. *)
  let v = ints [ 5; -6; 300; min_int ] in
  let vw = view_of v in
  check Alcotest.bool "shape is Vlist" true (Xdr.View.shape vw = Xdr.View.Vlist);
  check Alcotest.bool "no prefs" false (Xdr.View.has_prefs vw);
  check Alcotest.bool "materialize" true (Xdr.equal_value v (materialize_ok vw));
  (match Xdr.View.list_items vw with
  | Ok items ->
      check Alcotest.(list int) "items" [ 5; -6; 300; min_int ]
        (List.map
           (fun it ->
             check Alcotest.bool "item shape" true (Xdr.View.shape it = Xdr.View.Vint);
             match Xdr.View.as_int it with Ok i -> i | Error e -> Alcotest.fail e)
           items)
  | Error e -> Alcotest.fail e);
  (match Xdr.View.list_item vw 2 with
  | Ok (Some it) -> check Alcotest.(result int string) "item 2" (Ok 300) (Xdr.View.as_int it)
  | _ -> Alcotest.fail "list_item 2 missing");
  (match Xdr.View.list_item vw 4 with
  | Ok None -> ()
  | _ -> Alcotest.fail "index past the end must be Ok None");
  (* a record field holding a packed list, reached by projection *)
  let r = Xdr.Record [ ("grades", v); ("mean", Xdr.Real 1.5) ] in
  match Xdr.View.record_field (view_of r) "mean" with
  | Ok (Some f) -> check Alcotest.bool "field after packed list" true
                     (Xdr.equal_value (Xdr.Real 1.5) (materialize_ok f))
  | _ -> Alcotest.fail "record_field mean missing"

let test_packed_dict_frames () =
  (* v2 frames: strings shift to the dictionary marker scheme, packed
     lists are unchanged and decode the same through tree and view. *)
  let frame i =
    Xdr.Record
      [
        ("host", Xdr.Str "shard-host-03.internal");
        ("grades", ints (List.init 8 (fun g -> (i * g) - 20)));
        ("mixed", Xdr.List [ Xdr.Int i; Xdr.Str "shard-host-03.internal" ]);
      ]
  in
  let dict = B.create_dict () in
  let frames = List.init 4 (fun i -> dict_frame dict (frame i)) in
  check Alcotest.bool "strings were promoted" true (B.dict_defines dict > 0);
  let dt = B.create_dict_table () in
  List.iteri
    (fun i s ->
      match dict_decode dt s with
      | Ok v -> check Alcotest.bool "frame decodes" true (Xdr.equal_value (frame i) v)
      | Error e -> Alcotest.failf "frame %d failed: %s" i e)
    frames;
  let dt = B.create_dict_table () in
  List.iteri
    (fun i s ->
      let d = B.decoder s in
      B.use_dict_table d dt;
      match Xdr.View.read d with
      | Ok vw -> (
          match Xdr.View.record_field vw "grades" with
          | Ok (Some g) ->
              check Alcotest.bool "grades via view" true
                (Xdr.equal_value (ints (List.init 8 (fun g -> (i * g) - 20))) (materialize_ok g))
          | _ -> Alcotest.fail "grades missing")
      | Error e -> Alcotest.failf "frame %d scan failed: %s" i e)
    frames

(* ------------------------------------------------------------------ *)
(* Golden wire bytes: with the dictionary off, every E12 cell must stay
   digit-for-digit on the pinned table (the same one the bench runner
   gates on before writing BENCH_wire.json). *)

let test_e12_golden_bytes () =
  let rows = Workloads.Exp_wire.e12_rows () in
  check Alcotest.int "row count" (List.length Workloads.Exp_wire.goldens) (List.length rows);
  check Alcotest.(list string) "E12 matches its goldens" []
    (Workloads.Exp_wire.golden_mismatches rows)

let test_reference_payload_sizes () =
  check Alcotest.(list string) "codec reference payloads match their sizes" []
    (Workloads.Exp_wire.payload_mismatches ())

(* ------------------------------------------------------------------ *)
(* Call and reply envelopes (docs/WIRE.md §1.2): positional lists whose
   head bits decide which optional elements follow. Parsed from views
   over the encoded bytes, as the receive path sees them. *)

let view_of v =
  match Xdr.View.of_string (B.to_string v) with
  | Ok vw -> vw
  | Error e -> Alcotest.failf "view scan failed: %s" e

let parse_reply v = Result.bind (W.parse_reply_view (view_of v)) W.outcome_of_view

(* Every head combination: kind × resubmit × elide × cid (present when
   it differs from the position) × trace × non-empty handoff, each with
   random contents. *)
let prop_call_envelope_roundtrip =
  QCheck.Test.make ~name:"call envelopes round-trip under every head" ~count:50
    QCheck.(quad small_nat (int_bound max_int) small_printable_string arb_value)
    (fun (cid, tid, port, args) ->
      List.for_all
        (fun combo ->
          let on b = combo land b <> 0 in
          let kind = if on 1 then W.Send else W.Call in
          let resubmit = on 2 and elide = on 4 in
          let cid = if on 8 then Some cid else None in
          let handoff =
            if on 16 then [ sample_handoff; { sample_handoff with W.ho_call = 6 } ] else []
          in
          let trace = if on 32 then Some tid else None in
          let item = W.call_item ~resubmit ~handoff ~elide ?cid ~trace ~port ~kind ~args () in
          let vw = view_of item in
          let fail fmt = QCheck.Test.fail_reportf ("combo 0x%x: " ^^ fmt) combo in
          match W.parse_call_view vw with
          | Error e -> fail "parse failed: %s" e
          | Ok cv -> (
              if (cv.W.cv_cid, cv.W.cv_port, cv.W.cv_kind) <> (cid, port, kind)
              then fail "envelope fields differ"
              else if (cv.W.cv_trace, cv.W.cv_resubmit, cv.W.cv_elide, cv.W.cv_handoff)
                      <> (trace, resubmit, elide, handoff)
              then fail "flags or optional elements differ"
              else if W.item_trace item <> trace || W.item_trace_view vw <> trace then
                fail "item_trace disagrees"
              else
                match Xdr.View.materialize cv.W.cv_args with
                | Ok a when Xdr.equal_value a args -> true
                | Ok _ -> fail "args differ"
                | Error e -> fail "args: %s" e))
        (List.init 64 Fun.id))

(* Every reply form: untraced [[v]] and [[]], and the coded form for
   everything else, each traced or not. *)
let equal_outcome a b =
  match (a, b) with
  | W.W_normal x, W.W_normal y -> Xdr.equal_value x y
  | W.W_signal (n, x), W.W_signal (m, y) -> n = m && Xdr.equal_value x y
  | a, b -> a = b

let check_reply_roundtrip ~trace item outcome =
  match parse_reply item with
  | Error e -> Error e
  | Ok got when not (equal_outcome got outcome) -> Error "outcome differs"
  | Ok _ ->
      if W.item_trace item <> trace || W.item_trace_view (view_of item) <> trace then
        Error "item_trace disagrees"
      else Ok ()

let all_reply_forms v =
  [
    ("normal", W.reply_item, W.W_normal v);
    ("signal", W.reply_item, W.W_signal ("no_such_user", v));
    ("unavailable", W.reply_item, W.W_unavailable "cannot communicate");
    ("failure", W.reply_item, W.W_failure "handler does not exist");
    ("send-ok", (fun ~trace _ -> W.send_ok_item ~trace), W.W_normal Xdr.Unit);
  ]

let prop_reply_envelope_roundtrip =
  QCheck.Test.make ~name:"reply envelopes round-trip in every form" ~count:100
    QCheck.(pair (option (int_bound max_int)) arb_value)
    (fun (trace, v) ->
      List.for_all
        (fun (what, build, outcome) ->
          match check_reply_roundtrip ~trace (build ~trace outcome) outcome with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "%s: %s" what e)
        (all_reply_forms v))

let test_reply_envelope_roundtrips () =
  let values =
    [
      Xdr.Int 7;
      (* a user value shaped like a coded reply or an old outcome: the
         element count, not the value, decides how a reply is read *)
      Xdr.Int 0x24;
      Xdr.List [ Xdr.Int 2; Xdr.Str "r" ];
      Xdr.Tagged ("g", Xdr.Pair (Xdr.Str "x", Xdr.Unit));
      Xdr.List [];
      Xdr.Unit;
    ]
  in
  List.iter
    (fun trace ->
      List.iter
        (fun v ->
          List.iter
            (fun (what, build, outcome) ->
              match check_reply_roundtrip ~trace (build ~trace outcome) outcome with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s of %a: %s" what Xdr.pp_value v e)
            (all_reply_forms v))
        values)
    [ None; Some 9; Some max_int ];
  (* The untraced forms: a one-element list is a normal reply whatever
     its value, and an int result packs. *)
  check Alcotest.string "int reply packs" "\x0c\x01\x0e"
    (B.to_string (W.reply_item ~trace:None (W.W_normal (Xdr.Int 7))));
  check Alcotest.bool "a lone int reads as a value, not a head" true
    (parse_reply (Xdr.List [ Xdr.Int 0x24 ]) = Ok (W.W_normal (Xdr.Int 0x24)));
  check Alcotest.bool "the empty list is a send-ok" true
    (parse_reply (Xdr.List []) = Ok (W.W_normal Xdr.Unit))

let ok_args = Xdr.Pair (Xdr.Str "stu1", Xdr.Int 85)

let hostile_calls =
  let i n = Xdr.Int n and port = Xdr.Str "p" in
  [
    ("not a list", i 3);
    ( "the field-named record form",
      Xdr.Record [ ("q", i 1); ("i", i 1); ("p", port); ("k", Xdr.Str "c"); ("a", i 1) ] );
    ("old form with a leading seq", Xdr.List [ i 12; i 0; Xdr.Str "work"; i 42 ]);
    ("old form with seq 0", Xdr.List [ i 0; i 0x20; port; ok_args; i 9 ]);
    ("short list", Xdr.List [ i 0; port ]);
    ("empty list", Xdr.List []);
    ("head mistyped", Xdr.List [ Xdr.Bool true; port; ok_args ]);
    ("port mistyped", Xdr.List [ i 0; i 5; ok_args ]);
    ("cid mistyped", Xdr.List [ i 0x08; port; ok_args; Xdr.Str "2" ]);
    ("trace mistyped", Xdr.List [ i 0x20; port; ok_args; Xdr.Unit ]);
    ("handoff mistyped", Xdr.List [ i 0x10; port; ok_args; i 3 ]);
    ("handoff list empty", Xdr.List [ i 0x10; port; ok_args; Xdr.List [] ]);
    ("handoff entry malformed", Xdr.List [ i 0x10; port; ok_args; Xdr.List [ i 3 ] ]);
    ("unknown head bit", Xdr.List [ i 0x40; port; ok_args ]);
    ("negative head", Xdr.List [ i (-1); port; ok_args ]);
    ("cid bit, no cid", Xdr.List [ i 0x08; port; ok_args ]);
    ("trace bit, no trace", Xdr.List [ i 0x20; port; ok_args ]);
    ("cid and trace bits, one element", Xdr.List [ i 0x28; port; ok_args; i 2 ]);
    ("trailing element", Xdr.List [ i 0; port; ok_args; i 2 ]);
    ("trailing after trace", Xdr.List [ i 0x20; port; ok_args; i 9; i 2 ]);
    ( "optional elements out of order",
      Xdr.List [ i 0x18; port; ok_args; Xdr.List [ W.handoff_value sample_handoff ]; i 2 ] );
  ]

let hostile_replies =
  let i n = Xdr.Int n in
  [
    ("not a list", Xdr.Str "nope");
    ( "the tagged-outcome record form",
      Xdr.Record [ ("q", i 1); ("t", i 9); ("o", Xdr.Tagged ("n", i 7)) ] );
    ("the old (seq, value) pair", Xdr.Pair (i 3, i 7));
    ("old send-ok with a leading seq", Xdr.List [ i 3; i 4 ]);
    ("old traced send-ok with a leading seq", Xdr.List [ i 3; i 0x24; i 9 ]);
    ("head mistyped", Xdr.List [ Xdr.Str "n"; i 7 ]);
    ("code out of range", Xdr.List [ i 5; Xdr.Str "x" ]);
    ("code out of range, traced", Xdr.List [ i 0x27; i 9 ]);
    ("negative code", Xdr.List [ i (-1); Xdr.Str "x" ]);
    ("untraced normal in coded form", Xdr.List [ i 0; i 7 ]);
    ("head and trace, no value", Xdr.List [ i 0x20; i 9 ]);
    ("trace mistyped", Xdr.List [ i 0x22; Xdr.Str "r"; Xdr.Str "9" ]);
    ("untraced send-ok in coded form", Xdr.List [ i 4; i 9 ]);
    ("traced send-ok with payload", Xdr.List [ i 0x24; i 1; i 9 ]);
    ("unavailable with extra", Xdr.List [ i 2; Xdr.Str "r"; Xdr.Str "extra" ]);
    ("signal missing value", Xdr.List [ i 1; Xdr.Str "oops" ]);
    ("signal name mistyped", Xdr.List [ i 1; i 3; Xdr.Unit ]);
    ("failure reason mistyped", Xdr.List [ i 3; i 5 ]);
  ]

let test_hostile_envelopes_rejected () =
  List.iter
    (fun (what, v) ->
      match W.parse_call_view (view_of v) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "hostile call accepted: %s" what
      | exception e -> Alcotest.failf "hostile call %s raised %s" what (Printexc.to_string e))
    hostile_calls;
  List.iter
    (fun (what, v) ->
      match parse_reply v with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "hostile reply accepted: %s" what
      | exception e -> Alcotest.failf "hostile reply %s raised %s" what (Printexc.to_string e))
    hostile_replies

(* Elements are read by position: the order is fixed, and a call
   without its argument is rejected. *)
let test_call_elements_positional () =
  let item =
    W.call_item ~cid:9 ~trace:None ~port:"work" ~kind:W.Call ~args:(Xdr.Str "payload") ()
  in
  (match item with
  | Xdr.List [ Xdr.Int 0x08; Xdr.Str "work"; Xdr.Str "payload"; Xdr.Int 9 ] -> ()
  | v -> Alcotest.failf "unexpected call layout %a" Xdr.pp_value v);
  let reordered = Xdr.List [ Xdr.Str "work"; Xdr.Int 0; Xdr.Str "payload" ] in
  match W.parse_call_view (view_of reordered) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reordered call accepted"

let test_call_missing_elements_rejected () =
  match W.parse_call_view (view_of (Xdr.List [ Xdr.Int 0; Xdr.Str "x" ])) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "incomplete call accepted"

(* ------------------------------------------------------------------ *)
(* Satellite regressions: NaN equality *)

let test_equal_value_nan () =
  check Alcotest.bool "NaN = NaN" true (Xdr.equal_value (Xdr.Real nan) (Xdr.Real nan));
  check Alcotest.bool "nested NaN" true
    (Xdr.equal_value
       (Xdr.List [ Xdr.Real nan; Xdr.Int 1 ])
       (Xdr.List [ Xdr.Real nan; Xdr.Int 1 ]));
  check Alcotest.bool "NaN <> 1." false (Xdr.equal_value (Xdr.Real nan) (Xdr.Real 1.0));
  check Alcotest.bool "0. = -0." true (Xdr.equal_value (Xdr.Real 0.0) (Xdr.Real (-0.0)));
  check Alcotest.bool "Int <> Real" false (Xdr.equal_value (Xdr.Int 1) (Xdr.Real 1.0))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wire_codec"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_size_matches;
          Alcotest.test_case "edge values" `Quick test_edge_values;
          Alcotest.test_case "deep nesting roundtrips" `Quick test_deep_nesting_roundtrips;
          Alcotest.test_case "excessive nesting rejected" `Quick test_excessive_nesting_rejected;
          Alcotest.test_case "promise-ref bad field marker rejected" `Quick
            test_pref_bad_field_marker_rejected;
          Alcotest.test_case "string interning compresses" `Quick test_string_interning_compresses;
        ] );
      ( "total decoding",
        [
          Alcotest.test_case "every truncation errors" `Quick test_truncated_returns_error;
          Alcotest.test_case "trailing garbage rejected" `Quick test_trailing_garbage_rejected;
          Alcotest.test_case "wrapped string ref rejected" `Quick test_wrapped_string_ref_rejected;
          QCheck_alcotest.to_alcotest prop_corruption_never_raises;
          QCheck_alcotest.to_alcotest prop_random_bytes_never_raise;
        ] );
      ( "packet frames",
        [
          Alcotest.test_case "packet roundtrips" `Quick test_packet_roundtrips;
          QCheck_alcotest.to_alcotest prop_packet_roundtrip;
          Alcotest.test_case "opening fields only at seq 0" `Quick
            test_opening_fields_only_at_seq_zero;
          Alcotest.test_case "garbage frames rejected" `Quick test_packet_garbage_rejected;
        ] );
      ( "adaptive wire",
        [
          Alcotest.test_case "piggybacking halves standalone acks" `Quick
            test_piggybacking_halves_standalone_acks;
          Alcotest.test_case "nagle: idle flush is immediate" `Quick
            test_nagle_first_item_flushes_immediately;
          Alcotest.test_case "nagle: coalesces under load" `Quick test_nagle_coalesces_under_load;
          Alcotest.test_case "window bounds inflight bytes" `Quick
            test_window_backpressures_and_bounds_inflight;
          Alcotest.test_case "window waiters released on break" `Quick
            test_window_waiters_released_on_break;
          Alcotest.test_case "window preserves call order" `Quick
            test_stream_call_window_preserves_order;
        ] );
      ( "compact channel names",
        [
          Alcotest.test_case "compact data for an unknown channel dropped" `Quick
            test_compact_for_unknown_channel_dropped;
          Alcotest.test_case "lost opening recovered by retransmit" `Quick
            test_lost_opening_recovered_by_retransmit;
          Alcotest.test_case "ack for an unknown idx ignored" `Quick
            test_ack_for_unknown_idx_ignored;
          Alcotest.test_case "ack past the last sent seq clamped" `Quick
            test_ack_past_sent_clamped;
          Alcotest.test_case "spoofed data neither delivered nor acked" `Quick
            test_spoofed_data_dropped;
          Alcotest.test_case "spoofed reset at the receiver ignored" `Quick
            (test_spoofed_reset_dropped (fun w -> w.node_b));
          Alcotest.test_case "spoofed reset at the sender ignored" `Quick
            (test_spoofed_reset_dropped (fun w -> w.node_a));
          Alcotest.test_case "opening truncated inside meta counted" `Quick
            test_truncated_opening_counted;
          Alcotest.test_case "stale compact data after reset answered" `Quick
            test_stale_compact_after_reset_answered;
        ] );
      ( "lazy views",
        [
          QCheck_alcotest.to_alcotest prop_view_materialize_equiv;
          QCheck_alcotest.to_alcotest prop_view_navigation_equiv;
          QCheck_alcotest.to_alcotest prop_has_prefs_matches_tree;
          Alcotest.test_case "projection units" `Quick test_view_projection_units;
        ] );
      ( "connection dictionary",
        [
          QCheck_alcotest.to_alcotest prop_dict_cross_frame_roundtrip;
          QCheck_alcotest.to_alcotest prop_dict_view_cross_frame;
          Alcotest.test_case "compresses across frames" `Quick test_dict_compresses_across_frames;
          Alcotest.test_case "reset bumps epoch and redefines" `Quick
            test_dict_reset_bumps_epoch_and_redefines;
        ] );
      ( "packed int lists",
        [
          QCheck_alcotest.to_alcotest prop_packed_roundtrip;
          Alcotest.test_case "pinned bytes" `Quick test_packed_pinned_bytes;
          Alcotest.test_case "hostile counts and varints rejected" `Quick
            test_packed_hostile_rejected;
          Alcotest.test_case "views" `Quick test_packed_views;
          Alcotest.test_case "v2 dictionary frames" `Quick test_packed_dict_frames;
        ] );
      ( "golden wire",
        [
          Alcotest.test_case "E12 dictionary-off bytes" `Quick test_e12_golden_bytes;
          Alcotest.test_case "codec reference payload sizes" `Quick
            test_reference_payload_sizes;
        ] );
      ( "envelopes",
        [
          QCheck_alcotest.to_alcotest prop_call_envelope_roundtrip;
          Alcotest.test_case "reply round-trips, traced and untraced" `Quick
            test_reply_envelope_roundtrips;
          Alcotest.test_case "hostile envelopes rejected" `Quick test_hostile_envelopes_rejected;
          QCheck_alcotest.to_alcotest prop_reply_envelope_roundtrip;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "parse_call_view reads elements by position" `Quick
            test_call_elements_positional;
          Alcotest.test_case "parse_call_view rejects missing elements" `Quick
            test_call_missing_elements_rejected;
          Alcotest.test_case "equal_value handles NaN" `Quick test_equal_value_nan;
        ] );
    ]

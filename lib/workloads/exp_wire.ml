(* Experiment E12: the wire itself. With the binary codec every byte
   charged by the simulator is a byte that would really travel, so the
   paper's §2 message-economy claim becomes measurable end to end:
   packets per call, bytes per call, calls per packet — RPC vs stream
   vs send — and on top of that what holding acks for a ride and
   Nagle-style adaptive flushing buy on the bidirectional call/reply
   workload. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module R = Core.Remote
module P = Core.Promise

open Fixtures

type row = {
  r_mode : string;
  r_ack_delay : float;  (** the hubs' ack hold: 0 = to the end of the scheduler turn *)
  r_calls : int;
  r_time : float;  (** completion (simulated seconds) *)
  r_msgs : int;  (** network messages of any kind *)
  r_bytes : int;  (** actual encoded bytes on the wire *)
  r_data_pkts : int;
  r_ack_pkts : int;  (** standalone Ack packets *)
  r_piggybacked : int;  (** acks that rode on reverse-direction Data *)
  r_standalone : int;  (** acks that needed their own packet *)
  r_decode_errors : int;  (** frames that failed to decode at a receiver *)
}

let calls_per_data_pkt r =
  (* Call items and reply items both count; divide by 2 to get calls. *)
  if r.r_data_pkts = 0 then 0.0
  else float_of_int r.r_calls *. 2.0 /. float_of_int r.r_data_pkts

let run_mode ?(n = 400) ~mode ~ack_delay () =
  let ccfg = chan_config mode in
  let pair =
    Fixtures.make_pair
      ~cfg:{ Net.default_config with Net.wire_latency = 1e-3 }
      ~service:0.0
      ~group_config:Cstream.Group_config.(default |> with_reply_config ccfg)
      ~ack_delay ()
  in
  let h = Fixtures.work_handle pair ~config:ccfg ~agent:"bench" () in
  let time =
    Fixtures.timed_run pair.Fixtures.sched (fun () ->
        (match mode with
        | Rpc ->
            for i = 1 to n do
              match R.rpc h i with
              | P.Normal _ -> ()
              | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "rpc failed"
            done
        | Stream _ | Adaptive ->
            for i = 1 to n do
              ignore (R.stream_call h i : (int, Core.Sigs.nothing) P.t)
            done
        | Send_mode _ ->
            for i = 1 to n do
              R.send h i
            done);
        match mode with
        | Rpc -> ()
        | Stream _ | Adaptive | Send_mode _ -> (
            match R.synch h with Ok () -> () | Error _ -> failwith "stream broke"))
  in
  let net_stats = Net.stats pair.Fixtures.net in
  let chan_stats = S.stats pair.Fixtures.sched in
  {
    r_mode = mode_name mode;
    r_ack_delay = ack_delay;
    r_calls = n;
    r_time = time;
    r_msgs = Sim.Stats.peek net_stats "msgs_sent";
    r_bytes = Sim.Stats.peek net_stats "bytes_sent";
    r_data_pkts = Sim.Stats.peek chan_stats "chan_data_packets";
    r_ack_pkts = Sim.Stats.peek chan_stats "chan_ack_packets";
    r_piggybacked = Sim.Stats.peek chan_stats "chan_piggybacked_acks";
    r_standalone = Sim.Stats.peek chan_stats "chan_standalone_acks";
    r_decode_errors = Sim.Stats.peek chan_stats "chan_decode_errors";
  }

let e12_rows ?(n = 400) () =
  List.concat_map
    (fun mode ->
      List.map (fun ack_delay -> run_mode ~n ~mode ~ack_delay ()) [ 0.0; 1e-3 ])
    [ Rpc; Stream 16; Send_mode 16; Adaptive ]

let ack_hold_name d = if d = 0.0 then "turn" else Printf.sprintf "%g ms" (d *. 1e3)

(* E12 at the default [n] and seed, per row: (mode, ack delay, msgs,
   bytes), with positional call and reply envelopes (docs/WIRE.md
   §1.2). The adaptive rows' 1 KiB batch budget holds about 57 of these
   items per data packet. With the end-of-turn hold a client's acks ride its
   next call, but a simulated server's do not: its reply leaves after
   the receive overhead [Target] charges as lane time, a turn later.
   Each stream names its port once: the first call defines it in the
   channel's port table and the other 399 carry table entry 0 in the
   head: 9 B less per RPC call item, at least 4 B less per batched one.
   An [Int n >= 0] is plain LEB128 (docs/WIRE.md §1), so the arguments
   and results in 64–127 and the define head take one byte each. An
   idle adaptive channel flushes at the end of the turn, not at its
   first item, so the adaptive rows' first call packet carries the
   whole turn's calls instead of a lone first call. A Data frame spells
   no sender, item count or count of one ack, and its uptos count from
   its first_seq when that is shorter (docs/WIRE.md §2). *)
let goldens =
  [
    ("RPC", 0.0, 1201, 9884);
    ("RPC", 1e-3, 801, 8748);
    ("stream B=16", 0.0, 76, 3761);
    ("stream B=16", 1e-3, 52, 3648);
    ("send B=16", 0.0, 76, 3088);
    ("send B=16", 1e-3, 52, 2975);
    ("stream adaptive", 0.0, 23, 3511);
    ("stream adaptive", 1e-3, 16, 3480);
  ]

let golden_mismatches rows =
  List.filter_map
    (fun (mode, ack_delay, msgs, bytes) ->
      let hold = ack_hold_name ack_delay in
      match List.find_opt (fun r -> r.r_mode = mode && r.r_ack_delay = ack_delay) rows with
      | Some r when r.r_msgs = msgs && r.r_bytes = bytes -> None
      | Some r ->
          Some
            (Printf.sprintf "E12 %s ack hold %s: %d msgs / %d B (golden %d / %d)" mode hold
               r.r_msgs r.r_bytes msgs bytes)
      | None -> Some (Printf.sprintf "E12 %s ack hold %s: row missing" mode hold))
    goldens

(* The untraced call, reply and send-ok envelopes (docs/WIRE.md §1.2),
   pinned byte for byte: (label, item, bytes). A trace id must cost
   bytes only when present, so with tracing off the wire is exactly
   this. *)
let envelope_goldens =
  let module W = Cstream.Wire in
  [
    ( "call item (port define)",
      W.call_item ~trace:None ~port:(W.Define "work") ~kind:W.Call ~args:(Xdr.Int 42) (),
      (* list of 3: head 0x40 (define), "work" (interned), 42; no seq,
         and the cid equals the position *)
      "\x08\x03\x03\x40\x05\x00\x04work\x03\x2a" );
    ( "call item (port ref)",
      W.call_item ~trace:None ~port:(W.Ref 0) ~kind:W.Call ~args:(Xdr.Int 42) (),
      (* packed int list of 2: head 0 (port table entry 0), 42 *)
      "\x0c\x02\x00\x2a" );
    ( "call item (port ref 3)",
      W.call_item ~trace:None ~port:(W.Ref 3) ~kind:W.Send ~args:(Xdr.Int 42) (),
      (* packed int list of 2: head 3 lsl 7 lor 0x01 (Send), 42 *)
      "\x0c\x02\x81\x03\x2a" );
    ( "reply item",
      W.reply_item ~trace:None (W.W_normal (Xdr.Int 7)),
      (* packed int list of 1: value 7 *)
      "\x0c\x01\x07" );
    ( "send-ok item",
      W.send_ok_item ~trace:None,
      (* the empty list *)
      "\x08\x00" );
  ]

let envelope_mismatches () =
  List.filter_map
    (fun (label, item, bytes) ->
      let got = Xdr.Bin.to_string item in
      if got = bytes then None
      else
        Some
          (Printf.sprintf "%s: %s (golden %s)" label (String.escaped got) (String.escaped bytes)))
    envelope_goldens

(* The codec bench's reference payloads, shaped like real traffic:
   one call item, a 16-call batch (the string table pays off: the port
   name repeats), a 64-record grade sheet whose 16 grades per record
   take the packed int-list encoding, and [sheet], shaped like
   loadbench's [stream_large] argument — a key and 32 [student]
   records, grades 0–100 and each mean their sum over 16, so every
   grade is a 1-byte varint and every mean a binary16. Both record
   lists share one field-name sequence, so each spells its names once
   (the packed record list, docs/WIRE.md §1). The sizes are pinned
   like the E12 cells: (label, value, bytes). *)
let sheet_record i =
  let grades = List.init 16 (fun g -> ((i * 37) + (g * 59) + (i * g * 11)) mod 101) in
  let letter j = Char.chr (Char.code 'a' + (((i * 7) + (j * 11)) mod 26)) in
  Xdr.Record
    [
      ("name", Xdr.Str (String.init (6 + (i * 5 mod 8)) letter));
      ("grades", Xdr.List (List.map (fun g -> Xdr.Int g) grades));
      ("mean", Xdr.Real (float_of_int (List.fold_left ( + ) 0 grades) /. 16.0));
    ]

let reference_payloads =
  let module W = Cstream.Wire in
  let small =
    W.call_item ~trace:None ~port:(W.Define "work") ~kind:W.Call ~args:(Xdr.Int 42) ()
  in
  let medium =
    Xdr.List
      (List.init 16 (fun i ->
           W.call_item ~trace:None ~port:(W.Define "record_grade") ~kind:W.Call
             ~args:(Xdr.Pair (Xdr.Str (Printf.sprintf "stu%05d" i), Xdr.Int (50 + i))) ()))
  in
  let large =
    Xdr.List
      (List.init 64 (fun i ->
           Xdr.Record
             [
               ("name", Xdr.Str (Printf.sprintf "student-%04d" i));
               ("grades", Xdr.List (List.init 16 (fun g -> Xdr.Int (40 + ((i * g) mod 60)))));
               ("mean", Xdr.Real (50.0 +. (float_of_int i /. 7.0)));
               ("active", Xdr.Bool (i mod 2 = 0));
             ]))
  in
  let sheet = Xdr.Pair (Xdr.Str "key-07-qhrzmtwe", Xdr.List (List.init 32 sheet_record)) in
  [
    ("small", small, 13);
    ("medium", medium, 335);
    ("large", large, 2723);
    ("sheet", sheet, 1114);
  ]

let payload_mismatches () =
  List.filter_map
    (fun (label, v, bytes) ->
      let got = String.length (Xdr.Bin.to_string v) in
      if got = bytes then None
      else Some (Printf.sprintf "payload %s: %d B (golden %d)" label got bytes))
    reference_payloads

let e12 ?(n = 400) () =
  let rows = e12_rows ~n () in
  let render r =
    let ratio =
      let total = r.r_piggybacked + r.r_standalone in
      if total = 0 then "-"
      else Printf.sprintf "%.0f%%" (100.0 *. float_of_int r.r_piggybacked /. float_of_int total)
    in
    [
      r.r_mode;
      ack_hold_name r.r_ack_delay;
      Table.cell_i r.r_msgs;
      Table.cell_i r.r_bytes;
      Table.cell_f (float_of_int r.r_msgs /. float_of_int r.r_calls);
      Table.cell_f (float_of_int r.r_bytes /. float_of_int r.r_calls);
      Table.cell_f (calls_per_data_pkt r);
      Table.cell_i r.r_ack_pkts;
      Table.cell_i r.r_piggybacked;
      Table.cell_i r.r_standalone;
      ratio;
      Table.cell_i r.r_decode_errors;
      Table.cell_ms r.r_time;
    ]
  in
  Table.make ~id:"E12"
    ~title:(Printf.sprintf "binary wire: packets and bytes for %d calls (1 ms latency)" n)
    ~header:
      [
        "mode"; "ack hold"; "msgs"; "bytes"; "msgs/call"; "bytes/call"; "items/data pkt";
        "ack pkts"; "piggy acks"; "solo acks"; "acks ridden"; "decode errs"; "completion";
      ]
    ~notes:
      [
        "paper claim (§2): buffering many calls into one message amortises per-message costs; \
         protocol traffic (acks) piggybacks on traffic flowing the other way";
        "'ack hold' is how long a hub parks an ack waiting for a reverse-direction Data \
         packet: 'turn' (the default ack_delay of 0) until the scheduler runs out of work \
         at the current instant, '1 ms' a timed hold; either way one standalone Ack \
         carries every entry still parked for that peer";
        "bytes are actual encoded sizes (Xdr.Bin, docs/WIRE.md), not the wire_size estimate; \
         'acks ridden' is the share of acks that travelled inside reverse-direction Data \
         packets ('piggy acks') instead of standalone Ack packets ('solo acks'); 'decode \
         errs' counts frames a receiver could not decode (0 on a clean run — the \
         total-decoder gate)";
        "'stream adaptive' uses Nagle-style flushing (at the end of the turn when idle, \
         coalesce while data is in flight) with a 1 KiB batch budget and an 8 KiB in-flight \
         window";
      ]
    (List.map render rows)

(* Experiment E12: the wire itself. With the binary codec every byte
   charged by the simulator is a byte that would really travel, so the
   paper's §2 message-economy claim becomes measurable end to end:
   packets per call, bytes per call, calls per packet — RPC vs stream
   vs send — and on top of that what ack piggybacking and Nagle-style
   adaptive flushing buy on the bidirectional call/reply workload. *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module R = Core.Remote
module P = Core.Promise

type mode = Rpc | Stream of int | Send_mode of int | Adaptive

let mode_name = function
  | Rpc -> "RPC"
  | Stream b -> Printf.sprintf "stream B=%d" b
  | Send_mode b -> Printf.sprintf "send B=%d" b
  | Adaptive -> "stream adaptive"

let chan_config = function
  | Rpc -> CH.rpc_config
  | Stream b | Send_mode b -> { CH.default_config with CH.max_batch = b; flush_interval = 1e-3 }
  | Adaptive -> CH.adaptive_config

type row = {
  r_mode : string;
  r_piggyback : bool;
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

let run_mode ?(n = 400) ~mode ~piggyback () =
  let ack_delay = if piggyback then 1e-3 else 0.0 in
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
    r_piggyback = piggyback;
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
      List.map (fun piggyback -> run_mode ~n ~mode ~piggyback ()) [ false; true ])
    [ Rpc; Stream 16; Send_mode 16; Adaptive ]

(* E12 at the default [n] and seed, per row: (mode, piggyback, msgs,
   bytes). The msgs cells are those of the first binary wire; the bytes
   are those of the compact channel header (docs/WIRE.md §2). *)
let goldens =
  [
    ("RPC", false, 1600, 30544);
    ("RPC", true, 801, 28147);
    ("stream B=16", false, 100, 12529);
    ("stream B=16", true, 52, 12205);
    ("send B=16", false, 100, 11792);
    ("send B=16", true, 52, 11468);
    ("stream adaptive", false, 48, 11963);
    ("stream adaptive", true, 29, 11852);
  ]

let golden_mismatches rows =
  List.filter_map
    (fun (mode, piggyback, msgs, bytes) ->
      match List.find_opt (fun r -> r.r_mode = mode && r.r_piggyback = piggyback) rows with
      | Some r when r.r_msgs = msgs && r.r_bytes = bytes -> None
      | Some r ->
          Some
            (Printf.sprintf "E12 %s piggyback=%b: %d msgs / %d B (golden %d / %d)" mode piggyback
               r.r_msgs r.r_bytes msgs bytes)
      | None -> Some (Printf.sprintf "E12 %s piggyback=%b: row missing" mode piggyback))
    goldens

(* The codec bench's reference payloads, shaped like real traffic at
   three sizes: one call item, a 16-call batch (the string table pays
   off: the port name and field names repeat), and a 64-record grade
   sheet whose 16 grades per record take the packed int-list encoding.
   The sizes are pinned like the E12 cells: (label, value, bytes). *)
let reference_payloads =
  let module W = Cstream.Wire in
  let small =
    W.call_item ~seq:12 ~cid:12 ~trace:None ~port:"work" ~kind:W.Call ~args:(Xdr.Int 42) ()
  in
  let medium =
    Xdr.List
      (List.init 16 (fun i ->
           W.call_item ~seq:i ~cid:i ~trace:None ~port:"record_grade" ~kind:W.Call
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
  [ ("small", small, 34); ("medium", medium, 493); ("large", large, 3701) ]

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
      (if r.r_piggyback then "on" else "off");
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
        "mode"; "piggyback"; "msgs"; "bytes"; "msgs/call"; "bytes/call"; "items/data pkt";
        "ack pkts"; "piggy acks"; "solo acks"; "acks ridden"; "decode errs"; "completion";
      ]
    ~notes:
      [
        "paper claim (§2): buffering many calls into one message amortises per-message costs; \
         protocol traffic (acks) piggybacks on traffic flowing the other way";
        "bytes are actual encoded sizes (Xdr.Bin, docs/WIRE.md), not the wire_size estimate; \
         'acks ridden' is the share of acks that travelled inside reverse-direction Data \
         packets ('piggy acks') instead of standalone Ack packets ('solo acks'); 'decode \
         errs' counts frames a receiver could not decode (0 on a clean run — the \
         total-decoder gate)";
        "'stream adaptive' uses Nagle-style flushing (immediate when idle, coalesce while \
         data is in flight) with a 1 KiB batch budget and an 8 KiB in-flight window";
      ]
    (List.map render rows)

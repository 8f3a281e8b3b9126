module S = Sched.Scheduler
module B = Xdr.Bin

type key = { src : Net.address; label : string; idx : int; meta : string }

type ack_entry = {
  a_idx : int;  (* the acked channel's index on the hub this ack goes to *)
  a_upto : int;  (* cumulative: everything up to this seq arrived *)
  a_pressure : int;
      (* receiver queue-depth signal for the acked channel: 0 = fine,
         1 = approaching the shed mark, 2 = at/over it (load-shedding
         imminent or underway). Senders treat >= 2 as congestion. *)
}

type opening = { open_label : string; open_meta : string }

(* One packet grammar for both item representations: trees for the
   public codec, frame-borrowing views on the receive path. *)
type 'item packet =
  | Data of {
      src : Net.address;
      idx : int;
      first_seq : int;
      opening : opening option;  (* present exactly when first_seq = 0 *)
      acks : ack_entry list;  (* piggybacked cumulative acks *)
      items : 'item list;
    }
  | Ack of { acks : ack_entry list }
  | Reset of { src : Net.address; idx : int; reason : string }

type frame = string

(* ------------------------------------------------------------------ *)
(* Packet frame codec. Layout: version byte, packet tag (1 = Data,
   2 = Ack, 3 = Reset), then the packet body. A channel is named by
   (src, idx); only a Data packet starting at seq 0 also carries its
   label and meta, so every frame decodes on its own and a retransmit
   from seq 0 re-opens the channel. Every string — label, meta, port
   names inside items — goes through one intern table per frame,
   so a batch of calls to the same port pays for the port name once. *)

let encode_ack e (a : ack_entry) =
  B.add_uvarint e a.a_idx;
  (* upto is -1 for "nothing received yet", hence signed *)
  B.add_varint e a.a_upto;
  B.add_uvarint e a.a_pressure

(* One pooled encoder per frame: the whole batch — envelope, acks and
   every item — shares a buffer and intern table, so a multi-item
   flush costs one encoder, not one per item. *)
let encode_packet_body e p =
  match p with
  | Data { src; idx; first_seq; opening; acks; items } ->
      B.add_byte e 1;
      B.add_uvarint e src;
      B.add_uvarint e idx;
      B.add_uvarint e first_seq;
      (match (first_seq, opening) with
      | 0, Some o ->
          B.add_string e o.open_label;
          B.add_string e o.open_meta
      | 0, None | _, Some _ ->
          invalid_arg "Chanhub.encode_packet: opening fields go with first_seq = 0 only"
      | _, None -> ());
      B.add_uvarint e (List.length acks);
      List.iter (encode_ack e) acks;
      B.add_uvarint e (List.length items);
      List.iter (B.add_value e) items
  | Ack { acks } ->
      B.add_byte e 2;
      B.add_uvarint e (List.length acks);
      List.iter (encode_ack e) acks
  | Reset { src; idx; reason } ->
      B.add_byte e 3;
      B.add_uvarint e src;
      B.add_uvarint e idx;
      B.add_raw_string e reason

let encode_packet p =
  B.with_encoder (fun e ->
      B.add_byte e B.version;
      encode_packet_body e p;
      B.contents e)

(* v2 frames: same packet grammar, but the header carries the
   dictionary epoch and every interned string uses the shifted marker
   scheme (docs/WIRE.md §Connection dictionary). Only emitted to a
   peer that answered our dict-hello. *)
let dict_version = 2

let encode_packet_dict dc p =
  B.with_encoder (fun e ->
      B.use_dict e dc;
      B.add_byte e dict_version;
      B.add_uvarint e (B.dict_epoch dc);
      encode_packet_body e p;
      B.contents e)

(* Dictionary negotiation control frames, always v1-encoded: tag 4 is
   hello (sender offers epoch), tag 5 welcome (receiver accepts). A
   peer without dictionary support answers a hello with a decode error
   on its own side and never welcomes, so the sender keeps speaking
   v1 — such peers see byte-identical Data frames. *)
let encode_dict_ctrl ~tag ~epoch =
  B.with_encoder (fun e ->
      B.add_byte e B.version;
      B.add_byte e tag;
      B.add_uvarint e epoch;
      B.contents e)

let ( let* ) = Result.bind

(* [n] elements of [read], the count bounded by the input left. *)
let decode_list what read d =
  let* n = B.read_uvarint d in
  if n < 0 || n > B.remaining d then Error (what ^ " count overruns input")
  else
    let rec go k acc =
      if k = 0 then Ok (List.rev acc)
      else
        let* x = read d in
        go (k - 1) (x :: acc)
    in
    go n []

let decode_acks =
  decode_list "ack" (fun d ->
      let* a_idx = B.read_uvarint d in
      let* a_upto = B.read_varint d in
      let* a_pressure = B.read_uvarint d in
      Ok { a_idx; a_upto; a_pressure })

(* The one frame decoder. [read] decodes a Data item (a tree or a
   view). [dict] maps a v2 frame's epoch to the peer's dictionary
   table; without it v2 frames are refused. Dictionary control frames
   come back as [`Hello] / [`Welcome], packets as [`Packet]. *)
let decode_frame ~read ?dict frame =
  let d = B.decoder frame in
  let* v = B.read_byte d in
  let* () =
    match dict with
    | Some table when v = dict_version ->
        let* epoch = B.read_uvarint d in
        Ok (B.use_dict_table d (table epoch))
    | _ -> if v = B.version then Ok () else Error (Printf.sprintf "unsupported wire version %d" v)
  in
  let* tag = B.read_byte d in
  let* p =
    match tag with
    | 1 ->
        let* src = B.read_uvarint d in
        let* idx = B.read_uvarint d in
        let* first_seq = B.read_uvarint d in
        let* opening =
          if first_seq <> 0 then Ok None
          else
            let* open_label = B.read_string d in
            let* open_meta = B.read_string d in
            Ok (Some { open_label; open_meta })
        in
        let* acks = decode_acks d in
        let* items = decode_list "item" read d in
        Ok (`Packet (Data { src; idx; first_seq; opening; acks; items }))
    | 2 ->
        let* acks = decode_acks d in
        Ok (`Packet (Ack { acks }))
    | 3 ->
        let* src = B.read_uvarint d in
        let* idx = B.read_uvarint d in
        let* reason = B.read_raw_string d in
        Ok (`Packet (Reset { src; idx; reason }))
    | 4 ->
        let* epoch = B.read_uvarint d in
        Ok (`Hello epoch)
    | 5 ->
        let* epoch = B.read_uvarint d in
        Ok (`Welcome epoch)
    | t -> Error (Printf.sprintf "unknown packet tag %d" t)
  in
  let* () = B.expect_end d in
  Ok p

let decode_packet frame =
  match decode_frame ~read:B.read_value frame with
  | Ok (`Packet p) -> Ok p
  | Ok (`Hello _ | `Welcome _) -> Error "dictionary control frame, not a packet"
  | Error _ as e -> e

(* ------------------------------------------------------------------ *)

type config = {
  max_batch : int;
  max_batch_bytes : int;
  flush_interval : float;
  flush_on_idle : bool;
  retransmit_timeout : float;
  max_retries : int;
  max_inflight_bytes : int;
  adaptive_window : bool;
  window_min_bytes : int;
  window_increase : int;
}

let default_config =
  {
    max_batch = 8;
    max_batch_bytes = 4096;
    flush_interval = 2e-3;
    flush_on_idle = false;
    retransmit_timeout = 50e-3;
    max_retries = 10;
    max_inflight_bytes = max_int;
    adaptive_window = false;
    window_min_bytes = 512;
    window_increase = 256;
  }

let rpc_config = { default_config with max_batch = 1; flush_interval = 0.0 }

let adaptive_config =
  {
    default_config with
    max_batch = 64;
    max_batch_bytes = 1024;
    flush_interval = 2e-3;
    flush_on_idle = true;
    max_inflight_bytes = 8192;
  }

(* AIMD flow control (docs/OVERLOAD.md): the live window starts at
   [window_min_bytes] and moves between the min clamp and
   [max_inflight_bytes] under the controller in [handle_ack] /
   [arm_retransmit]. *)
let aimd_config =
  { adaptive_config with adaptive_window = true; max_inflight_bytes = 64 * 1024 }

(* The AIMD multiplicative cut, and how many times the RTT average an
   ack's RTT sample must exceed to count as congestion. *)
let window_cut_factor = 0.5

let rtt_congestion_ratio = 2.0

(* One item on a sending channel: buffered until its flush, then
   unacked until a cumulative ack covers it. *)
type entry = {
  e_item : Xdr.value;
  e_size : int;  (* encoded bytes, charged to the window *)
  mutable e_sent_at : float;  (* time of the most recent transmission *)
  mutable e_retx : bool;  (* retransmitted at least once: no RTT sample (Karn) *)
}

type out_chan = {
  o_hub : hub;
  o_key : key;
  o_dst : Net.address;
  o_cfg : config;
  mutable o_next_seq : int;  (* seq of the next item accepted by [send] *)
  o_buf : entry Queue.t;  (* accepted, not yet transmitted *)
  mutable o_buf_bytes : int;  (* encoded bytes in [o_buf]: the batch-size trigger *)
  o_unacked : entry Queue.t;  (* transmitted; seqs [o_acked_upto + 1] onwards *)
  mutable o_inflight_bytes : int;  (* encoded bytes in both queues: the window's measure *)
  mutable o_acked_upto : int;
  mutable o_retries : int;
  mutable o_window : int;  (* live AIMD window; pinned to max_inflight_bytes when static *)
  mutable o_rtt_ewma : float;  (* 0.0 until the first clean sample *)
  mutable o_cut_barrier : int;
      (* seq outstanding at the last multiplicative decrease: no second
         cut until it is acked, so one congested flight costs one cut *)
  mutable o_broken : string option;
  mutable o_on_break : (string -> unit) list;
  mutable o_on_ack : (int -> int -> unit) option;
  mutable o_flush_gen : int;
  mutable o_retx_timer : S.timer option;
      (* the armed retransmit timer; every disarm cancels it, so a
         timer that fires is always the live one *)
  o_waiters : unit S.waker Queue.t;  (* fibers parked in await_window *)
}

and in_chan = {
  i_hub : hub;
  i_key : key;
  mutable i_expected : int;
  mutable i_deliver : (int -> Xdr.View.t list -> unit) option;
  mutable i_pressure : (unit -> int) option;  (* receiver queue-depth probe for acks *)
  mutable i_broken : string option;
  mutable i_on_break : (string -> unit) list;
}

and pending_acks = {
  p_acks : (int, int * int) Hashtbl.t;  (* per acked channel idx: max upto, max pressure *)
  mutable p_armed : bool;  (* delayed standalone-Ack timer pending *)
}

and out_dict = {
  od_dict : B.dict;
  mutable od_on : bool;  (* peer welcomed the current epoch: emit v2 *)
  mutable od_helloed : bool;  (* hello sent for the current epoch *)
}

(* Per-packet counters, resolved once per hub: a by-name lookup costs a
   mutex and a string hash on every packet. *)
and hub_counters = {
  hc_wire_bytes : Sim.Stats.counter;
  hc_data_packets : Sim.Stats.counter;
  hc_items_sent : Sim.Stats.counter;
  hc_ack_packets : Sim.Stats.counter;
  hc_reset_packets : Sim.Stats.counter;
  hc_piggybacked_acks : Sim.Stats.counter;
  hc_standalone_acks : Sim.Stats.counter;
  hc_dict_defines : Sim.Stats.counter;
  hc_dict_refs : Sim.Stats.counter;
}

and hub = {
  h_tr : Transport.t;
  h_sched : S.t;
  h_ctr : hub_counters;
  h_ack_delay : float;
  h_dict : bool;  (* offer the connection dictionary to peers *)
  h_outs : (int, out_chan) Hashtbl.t;  (* by idx *)
  h_ins : (Net.address * int, in_chan) Hashtbl.t;  (* by (src, idx) *)
  h_acceptors : (string, in_chan -> unit) Hashtbl.t;
  h_dead : (Net.address * int, string) Hashtbl.t;
  h_pending : (Net.address, pending_acks) Hashtbl.t;
  h_dict_out : (Net.address, out_dict) Hashtbl.t;  (* sender state per peer *)
  h_dict_in : (Net.address, int * B.dict_table) Hashtbl.t;  (* (epoch, table) per peer *)
  mutable h_next_idx : int;
  (* Third-party handoff state (docs/HANDOFF.md): outcome pushes travel
     on dedicated "~handoff"-labelled channels, one per destination
     peer, opened lazily. Pushes that arrive before anyone expects them
     wait in a bounded early buffer (they double as the dedup record
     for replayed pushes). *)
  mutable h_ho_epoch : int;
  h_ho_pushes : (Net.address, out_chan) Hashtbl.t;
  h_ho_expect : (string * int, (Xdr.value -> unit) list) Hashtbl.t;
  h_ho_early : (string * int, Xdr.value) Hashtbl.t;
  h_ho_order : (string * int) Queue.t;
  mutable h_ho_listening : bool;
}

let hub_addr h = h.h_tr.Transport.addr

let hub_sched h = h.h_sched

let out_key o = o.o_key

let out_broken o = o.o_broken

let on_out_break o f =
  match o.o_broken with
  | Some reason ->
      (* Already broken: fire immediately so late registrants still learn. *)
      f reason
  | None -> o.o_on_break <- f :: o.o_on_break

let unacked_count o = Queue.length o.o_buf + Queue.length o.o_unacked

let inflight_bytes o = o.o_inflight_bytes

let window_bytes o = o.o_window

let rtt_ewma o = o.o_rtt_ewma

let on_ack o f = o.o_on_ack <- Some f

let in_key i = i.i_key

let in_src i = i.i_key.src

let set_deliver i f = i.i_deliver <- Some f

let set_pressure i f = i.i_pressure <- Some f

let probe_pressure i = match i.i_pressure with Some f -> max 0 (f ()) | None -> 0

let on_in_break i f =
  match i.i_broken with Some reason -> f reason | None -> i.i_on_break <- f :: i.i_on_break

let mark_in_broken i reason =
  if i.i_broken = None then begin
    Sim.Stats.incr (Sim.Stats.counter (S.stats i.i_hub.h_sched) "chan_in_breaks");
    i.i_broken <- Some reason;
    let hooks = i.i_on_break in
    i.i_on_break <- [];
    List.iter (fun f -> f reason) hooks
  end

let hub_counter hub name = Sim.Stats.counter (S.stats hub.h_sched) name

let spans_on hub = Sim.Span.enabled (S.spans hub.h_sched)

(* Causal tracing (docs/TRACING.md): every item that carries a trace id
   gets a span at each transport edge. Items without one — all of them,
   when tracing is off — cost a single branch here; call sites that
   format a [note] test [spans_on] first, so they format nothing then. *)
let span_items hub kind ?note items =
  let spans = S.spans hub.h_sched in
  if Sim.Span.enabled spans then
    List.iter
      (fun item ->
        match Wire.item_trace item with
        | Some tid ->
            Sim.Span.record spans ~time:(S.now hub.h_sched) ~kind ~trace:tid
              ~node:hub.h_tr.Transport.addr ?note ()
        | None -> ())
      items

(* Receive-path twin of [span_items]: the trace id is projected out of
   the slice without materialising the item. *)
let span_views hub kind ?note items =
  let spans = S.spans hub.h_sched in
  if Sim.Span.enabled spans then
    List.iter
      (fun vw ->
        match Wire.item_trace_view vw with
        | Some tid ->
            Sim.Span.record spans ~time:(S.now hub.h_sched) ~kind ~trace:tid
              ~node:hub.h_tr.Transport.addr ?note ()
        | None -> ())
      items

(* Sender dictionary state for [dst]; created lazily on first use.
   Dictionaries need cross-frame agreement, so hubs only offer them on
   a reliable transport (see {!Transport.t.reliable}) — [h_dict]
   already folds that in. *)
let dict_out hub dst =
  if not hub.h_dict then None
  else
    match Hashtbl.find_opt hub.h_dict_out dst with
    | Some od -> Some od
    | None ->
        let od = { od_dict = B.create_dict (); od_on = false; od_helloed = false } in
        Hashtbl.replace hub.h_dict_out dst od;
        Some od

let transmit hub ~dst packet =
  let frame =
    match dict_out hub dst with
    | None -> encode_packet packet
    | Some od ->
        if not od.od_helloed then begin
          (* Offer once per epoch, ahead of the first frame so the
             welcome can only refer to state the peer has seen. *)
          od.od_helloed <- true;
          Sim.Stats.incr (hub_counter hub "chan_dict_hellos");
          let hf = encode_dict_ctrl ~tag:4 ~epoch:(B.dict_epoch od.od_dict) in
          Sim.Stats.add hub.h_ctr.hc_wire_bytes (String.length hf);
          hub.h_tr.Transport.send ~dst hf
        end;
        if od.od_on then begin
          let d0 = B.dict_defines od.od_dict and r0 = B.dict_refs od.od_dict in
          let f = encode_packet_dict od.od_dict packet in
          Sim.Stats.add hub.h_ctr.hc_dict_defines (B.dict_defines od.od_dict - d0);
          Sim.Stats.add hub.h_ctr.hc_dict_refs (B.dict_refs od.od_dict - r0);
          f
        end
        else encode_packet packet
  in
  let ctr = hub.h_ctr in
  Sim.Stats.add ctr.hc_wire_bytes (String.length frame);
  (match packet with
  | Data { items; _ } ->
      Sim.Stats.incr ctr.hc_data_packets;
      Sim.Stats.add ctr.hc_items_sent (List.length items)
  | Ack _ -> Sim.Stats.incr ctr.hc_ack_packets
  | Reset _ -> Sim.Stats.incr ctr.hc_reset_packets);
  hub.h_tr.Transport.send ~dst frame

(* --- delayed acks and piggybacking -------------------------------- *)

let pending_for hub dst =
  match Hashtbl.find_opt hub.h_pending dst with
  | Some p -> p
  | None ->
      let p = { p_acks = Hashtbl.create 4; p_armed = false } in
      Hashtbl.replace hub.h_pending dst p;
      p

let drain_pending hub dst =
  match Hashtbl.find_opt hub.h_pending dst with
  | None -> []
  | Some p ->
      let acks =
        Hashtbl.fold
          (fun a_idx (a_upto, a_pressure) acc -> { a_idx; a_upto; a_pressure } :: acc)
          p.p_acks []
      in
      Hashtbl.reset p.p_acks;
      acks

(* Acks waiting for [dst] hitch a ride on this Data packet. *)
let take_piggyback hub ~dst =
  let acks = drain_pending hub dst in
  if acks <> [] then Sim.Stats.add hub.h_ctr.hc_piggybacked_acks (List.length acks);
  acks

(* Acknowledge [upto] on channel [idx] of the hub at [dst], the
   channel's sender. With no ack delay the standalone Ack goes out
   immediately (the pre-piggybacking behaviour). With a delay, the ack
   is parked hoping a reverse-direction Data packet picks it up; a
   timer bounds how long the sender waits (it must come well under the
   retransmit timeout). *)
let post_ack hub ~dst ~idx ~upto ~pressure =
  if hub.h_ack_delay <= 0.0 then begin
    Sim.Stats.incr hub.h_ctr.hc_standalone_acks;
    transmit hub ~dst (Ack { acks = [ { a_idx = idx; a_upto = upto; a_pressure = pressure } ] })
  end
  else begin
    let p = pending_for hub dst in
    (match Hashtbl.find_opt p.p_acks idx with
    | Some (prev_upto, prev_pressure) ->
        Hashtbl.replace p.p_acks idx (max prev_upto upto, max prev_pressure pressure)
    | None -> Hashtbl.replace p.p_acks idx (upto, pressure));
    if not p.p_armed then begin
      p.p_armed <- true;
      S.after hub.h_sched hub.h_ack_delay (fun () ->
          p.p_armed <- false;
          let acks = drain_pending hub dst in
          if acks <> [] then begin
            Sim.Stats.add hub.h_ctr.hc_standalone_acks (List.length acks);
            transmit hub ~dst (Ack { acks })
          end)
    end
  end

(* --- sending end -------------------------------------------------- *)

let wake_waiters o =
  (* Wake everyone; each re-checks the window and re-parks if it is
     still full, preserving FIFO order through the queue. *)
  while not (Queue.is_empty o.o_waiters) do
    ignore (S.wake (Queue.pop o.o_waiters) ())
  done

let disarm_retransmit o =
  Option.iter S.cancel_timer o.o_retx_timer;
  o.o_retx_timer <- None

let mark_broken o reason =
  if o.o_broken = None then begin
    Sim.Stats.incr (hub_counter o.o_hub "chan_out_breaks");
    o.o_broken <- Some reason;
    Queue.clear o.o_buf;
    o.o_buf_bytes <- 0;
    Queue.clear o.o_unacked;
    o.o_inflight_bytes <- 0;
    o.o_flush_gen <- o.o_flush_gen + 1;
    disarm_retransmit o;
    wake_waiters o;
    let hooks = o.o_on_break in
    o.o_on_break <- [];
    List.iter (fun f -> f reason) hooks
  end

let break_out o ~reason =
  if o.o_broken = None then begin
    (* Tell the receiver to discard its end before we forget the
       channel; the Reset itself may be lost, in which case the
       receiver end lingers harmlessly until a retransmit hits the
       tombstone on our side. *)
    transmit o.o_hub ~dst:o.o_dst (Reset { src = o.o_key.src; idx = o.o_key.idx; reason });
    mark_broken o reason
  end

(* --- AIMD window controller (docs/OVERLOAD.md) -------------------- *)

(* Multiplicative decrease, at most once per outstanding flight: after
   a cut, everything that was in the air at cut time must be acked
   before the next cut, so one congestion episode costs one halving
   instead of collapsing the window to the floor. *)
let cut_window o =
  if o.o_cfg.adaptive_window && o.o_acked_upto >= o.o_cut_barrier then begin
    let next =
      max o.o_cfg.window_min_bytes
        (int_of_float (float_of_int o.o_window *. window_cut_factor))
    in
    if next < o.o_window then begin
      o.o_window <- next;
      Sim.Stats.incr (hub_counter o.o_hub "chan_window_cuts")
    end;
    o.o_cut_barrier <- o.o_next_seq - 1
  end

let grow_window o =
  if o.o_cfg.adaptive_window && o.o_window < o.o_cfg.max_inflight_bytes then
    o.o_window <- min o.o_cfg.max_inflight_bytes (o.o_window + o.o_cfg.window_increase)

(* Only a packet starting at seq 0 names the channel in full, so a
   go-back-n retransmit from an unacked seq 0 re-opens it. *)
let data_packet o ~first_seq ~acks ~items =
  let opening =
    if first_seq = 0 then Some { open_label = o.o_key.label; open_meta = o.o_key.meta } else None
  in
  Data { src = o.o_key.src; idx = o.o_key.idx; first_seq; opening; acks; items }

(* The items of [q], oldest first, each stamped as (re)transmitted now. *)
let stamp_sent o q ~retx =
  let now = S.now o.o_hub.h_sched in
  List.rev
    (Queue.fold
       (fun acc e ->
         e.e_sent_at <- now;
         e.e_retx <- retx;
         e.e_item :: acc)
       [] q)

(* The timer is anchored to the oldest unacked item: further sends do
   not push it back, so a dead peer is detected after at most
   [retransmit_timeout * (max_retries + 1)] even under a continuous
   call stream. *)
let rec arm_retransmit o =
  if o.o_broken = None && o.o_retx_timer = None && not (Queue.is_empty o.o_unacked) then
    o.o_retx_timer <-
      Some
        (S.after_cancellable o.o_hub.h_sched o.o_cfg.retransmit_timeout (fun () ->
             o.o_retx_timer <- None;
             o.o_retries <- o.o_retries + 1;
             if o.o_retries > o.o_cfg.max_retries then
               mark_broken o "retransmit limit exceeded: peer unreachable"
             else begin
               Sim.Stats.incr (hub_counter o.o_hub "chan_retransmits");
               cut_window o;
               (* Re-send only: the bytes are already counted in
                  [o_inflight_bytes] from their first transmission, so a
                  retransmit — including one racing a receiver shed —
                  must not charge the window a second time. *)
               let items = stamp_sent o o.o_unacked ~retx:true in
               let acks = take_piggyback o.o_hub ~dst:o.o_dst in
               transmit o.o_hub ~dst:o.o_dst
                 (data_packet o ~first_seq:(o.o_acked_upto + 1) ~acks ~items);
               if spans_on o.o_hub then
                 span_items o.o_hub Sim.Span.Retransmit
                   ~note:(Printf.sprintf "try %d -> n%d" o.o_retries o.o_dst)
                   items;
               arm_retransmit o
             end))

let flush_out o =
  if o.o_broken = None && not (Queue.is_empty o.o_buf) then begin
    let first_seq = o.o_next_seq - Queue.length o.o_buf in
    let items = stamp_sent o o.o_buf ~retx:false in
    Queue.transfer o.o_buf o.o_unacked;
    o.o_buf_bytes <- 0;
    o.o_flush_gen <- o.o_flush_gen + 1;
    let acks = take_piggyback o.o_hub ~dst:o.o_dst in
    transmit o.o_hub ~dst:o.o_dst (data_packet o ~first_seq ~acks ~items);
    if spans_on o.o_hub then
      span_items o.o_hub Sim.Span.Transmit ~note:(Printf.sprintf "-> n%d" o.o_dst) items;
    arm_retransmit o
  end

(* Window has room for [bytes] more. When nothing at all is pending the
   answer is always yes, so a single item larger than the whole window
   still goes through (alone) instead of deadlocking. [o_window] is the
   live bound: pinned to [max_inflight_bytes] for a static config,
   moved by the AIMD controller for an adaptive one; at its floor that
   one flies exactly one item, whatever the item's size. *)
let window_admits o bytes =
  let at_floor = o.o_cfg.adaptive_window && o.o_window <= o.o_cfg.window_min_bytes in
  inflight_bytes o = 0 || ((not at_floor) && inflight_bytes o + bytes <= o.o_window)

let await_window o ~bytes =
  match o.o_broken with
  | Some reason -> Error reason
  | None ->
      if window_admits o bytes || S.current o.o_hub.h_sched = None then Ok ()
      else begin
        let rec wait () =
          S.suspend o.o_hub.h_sched (fun w -> Queue.add w o.o_waiters);
          match o.o_broken with
          | Some reason -> Error reason
          | None -> if window_admits o bytes then Ok () else wait ()
        in
        wait ()
      end

let send ?size o item =
  match o.o_broken with
  | Some reason -> Error reason
  | None ->
      let size = match size with Some n -> n | None -> B.size item in
      Queue.add { e_item = item; e_size = size; e_sent_at = 0.0; e_retx = false } o.o_buf;
      o.o_buf_bytes <- o.o_buf_bytes + size;
      o.o_inflight_bytes <- o.o_inflight_bytes + size;
      o.o_next_seq <- o.o_next_seq + 1;
      let buffered = Queue.length o.o_buf in
      if
        buffered >= o.o_cfg.max_batch
        || o.o_buf_bytes >= o.o_cfg.max_batch_bytes
        || (o.o_cfg.flush_on_idle && Queue.is_empty o.o_unacked)
      then flush_out o
      else if buffered = 1 && o.o_cfg.flush_interval < infinity then begin
        if o.o_cfg.flush_interval <= 0.0 then flush_out o
        else begin
          o.o_flush_gen <- o.o_flush_gen + 1;
          let gen = o.o_flush_gen in
          S.after o.o_hub.h_sched o.o_cfg.flush_interval (fun () ->
              if gen = o.o_flush_gen then flush_out o)
        end
      end;
      Ok ()

let handle_ack o ~upto ~pressure =
  (* An ack covers transmitted seqs only: [upto] past the unacked
     queue's tail (a confused or hostile peer) is clamped, so the pops
     below never overrun the queue. *)
  let upto = min upto (o.o_acked_upto + Queue.length o.o_unacked) in
  if o.o_broken = None && upto > o.o_acked_upto then begin
    let first = o.o_acked_upto + 1 in
    o.o_acked_upto <- upto;
    let spans = spans_on o.o_hub in
    let freed = ref 0 in
    let freed_items = ref [] in
    let rtt_sample = ref nan in
    let freed_retx = ref false in
    let now = S.now o.o_hub.h_sched in
    for _ = first to upto do
      let e = Queue.pop o.o_unacked in
      freed := !freed + e.e_size;
      if spans then freed_items := e.e_item :: !freed_items;
      if e.e_retx then freed_retx := true else rtt_sample := now -. e.e_sent_at
    done;
    if spans then span_items o.o_hub Sim.Span.Ack (List.rev !freed_items);
    o.o_inflight_bytes <- o.o_inflight_bytes - !freed;
    o.o_retries <- 0;
    (* AIMD step. The RTT sample comes from the newest freed item that
       was never retransmitted (Karn: retransmitted items give no
       sample — the ack could match either copy). Receiver pressure or
       a clearly inflated RTT cuts the window; an unremarkable ack with
       a relaxed receiver grows it by one additive step. *)
    if o.o_cfg.adaptive_window then begin
      let congested =
        Float.is_nan !rtt_sample = false
        && o.o_rtt_ewma > 0.0
        && !rtt_sample > rtt_congestion_ratio *. o.o_rtt_ewma
      in
      if pressure >= 2 || congested then cut_window o
      else if pressure = 0 && not !freed_retx then grow_window o;
      if Float.is_nan !rtt_sample = false then begin
        Sim.Stats.observe (Sim.Stats.summary (S.stats o.o_hub.h_sched) "chan_rtt") !rtt_sample;
        o.o_rtt_ewma <-
          (if o.o_rtt_ewma <= 0.0 then !rtt_sample
           else (0.875 *. o.o_rtt_ewma) +. (0.125 *. !rtt_sample))
      end
    end;
    Option.iter (fun f -> f first upto) o.o_on_ack;
    (* restart the timer for the (new) oldest unacked item *)
    disarm_retransmit o;
    arm_retransmit o;
    if !freed > 0 then wake_waiters o;
    (* Nagle release: the wire went idle — ship what accumulated while
       the previous batch was in flight. *)
    if o.o_cfg.flush_on_idle && Queue.is_empty o.o_unacked && not (Queue.is_empty o.o_buf) then
      flush_out o
  end

let in_id i = (i.i_key.src, i.i_key.idx)

let break_in i ~reason =
  let hub = i.i_hub in
  if Hashtbl.mem hub.h_ins (in_id i) then begin
    Hashtbl.remove hub.h_ins (in_id i);
    Hashtbl.replace hub.h_dead (in_id i) reason;
    transmit hub ~dst:i.i_key.src (Reset { src = i.i_key.src; idx = i.i_key.idx; reason })
  end;
  mark_in_broken i reason

(* Only an opening packet can create the receiving end. A compact one
   for a channel never opened here (its opening packet was lost or
   overtaken) is dropped without a Reset: the sender's retransmit from
   seq 0 carries the opening fields again. *)
let handle_data hub ~src ~idx ~first_seq ~opening ~items =
  match Hashtbl.find_opt hub.h_dead (src, idx) with
  | Some reason ->
      (* The channel was broken here earlier; keep telling the sender. *)
      transmit hub ~dst:src (Reset { src; idx; reason })
  | None ->
      let chan =
        match (Hashtbl.find_opt hub.h_ins (src, idx), opening) with
        | (Some _ as found), _ -> found
        | None, None ->
            Sim.Stats.incr (hub_counter hub "chan_unopened_drops");
            None
        | None, Some { open_label; open_meta } -> (
            match Hashtbl.find_opt hub.h_acceptors open_label with
            | None ->
                transmit hub ~dst:src (Reset { src; idx; reason = "no such port group" });
                None
            | Some acceptor ->
                let i =
                  {
                    i_hub = hub;
                    i_key = { src; label = open_label; idx; meta = open_meta };
                    i_expected = 0;
                    i_deliver = None;
                    i_pressure = None;
                    i_broken = None;
                    i_on_break = [];
                  }
                in
                Hashtbl.replace hub.h_ins (src, idx) i;
                acceptor i;
                Some i)
      in
      match chan with
      | None -> ()
      | Some i ->
          let count = List.length items in
          if first_seq > i.i_expected then
            (* Gap: go-back-n — drop and re-ack what we have. *)
            post_ack hub ~dst:src ~idx ~upto:(i.i_expected - 1) ~pressure:(probe_pressure i)
          else begin
            let skip = i.i_expected - first_seq in
            if skip > 0 then
              Sim.Stats.add (hub_counter hub "chan_dup_items_suppressed") (min skip count);
            let fresh = if skip >= count then [] else List.filteri (fun k _ -> k >= skip) items in
            if fresh <> [] then begin
              i.i_expected <- i.i_expected + List.length fresh;
              if spans_on hub then
                span_views hub Sim.Span.Deliver ~note:(Printf.sprintf "from n%d" src) fresh;
              (match i.i_deliver with Some f -> f (first_seq + skip) fresh | None -> ())
            end;
            post_ack hub ~dst:src ~idx ~upto:(i.i_expected - 1) ~pressure:(probe_pressure i)
          end

(* A frame naming a channel that its sender is not a peer of: counted
   and dropped, so no node can feed or break another pair's channel. *)
let spoofed hub = Sim.Stats.incr (hub_counter hub "chan_spoofed_drops")

(* A Reset names a channel by its sender: ours when [src] is this hub
   (the receiver refused it), the peer's otherwise. Only the channel's
   peer — [from], the frame's transport sender — may break it. *)
let handle_reset hub ~from ~src ~idx ~reason =
  (if src = hub_addr hub then
     match Hashtbl.find_opt hub.h_outs idx with
     | Some o when o.o_dst = from ->
         Hashtbl.remove hub.h_outs idx;
         mark_broken o reason
     | Some _ -> spoofed hub
     | None -> ());
  match Hashtbl.find_opt hub.h_ins (src, idx) with
  | Some i when src = from ->
      Hashtbl.remove hub.h_ins (src, idx);
      Hashtbl.replace hub.h_dead (src, idx) reason;
      mark_in_broken i reason
  | Some _ -> spoofed hub
  | None -> ()

(* An ack always travels to the acked channel's sender, so its index
   alone names one of our out-channels — provided it came from that
   channel's peer. *)
let handle_acks hub ~from acks =
  List.iter
    (fun a ->
      match Hashtbl.find_opt hub.h_outs a.a_idx with
      | Some o when o.o_dst = from -> handle_ack o ~upto:a.a_upto ~pressure:a.a_pressure
      | _ -> ())
    acks

(* Receiver dictionary table for [(src, epoch)]; an epoch change swaps
   in a fresh table (views over old frames keep the old one alive). *)
let dict_in hub src epoch =
  match Hashtbl.find_opt hub.h_dict_in src with
  | Some (e, dt) when e = epoch -> dt
  | _ ->
      let dt = B.create_dict_table () in
      Hashtbl.replace hub.h_dict_in src (epoch, dt);
      dt

(* Inbound frames decode lazily: Data items become views, not trees. *)
let receive hub ~src frame =
  match decode_frame ~read:Xdr.View.read ~dict:(dict_in hub src) frame with
  | Error _ ->
      (* Corrupt frame: drop it; go-back-n retransmission recovers. *)
      Sim.Stats.incr (hub_counter hub "chan_decode_errors")
  | Ok (`Packet (Data { src = chan_src; _ })) when chan_src <> src -> spoofed hub
  | Ok (`Packet (Data { idx; first_seq; opening; acks; items; _ })) ->
      (* Acks ride in front of the data they share a packet with. *)
      handle_acks hub ~from:src acks;
      handle_data hub ~src ~idx ~first_seq ~opening ~items
  | Ok (`Packet (Ack { acks })) -> handle_acks hub ~from:src acks
  | Ok (`Packet (Reset { src = chan_src; idx; reason })) ->
      handle_reset hub ~from:src ~src:chan_src ~idx ~reason
  | Ok (`Hello epoch) ->
      (* Any hub can decode v2 frames; accepting costs one table. *)
      ignore (dict_in hub src epoch : B.dict_table);
      let f = encode_dict_ctrl ~tag:5 ~epoch in
      Sim.Stats.add hub.h_ctr.hc_wire_bytes (String.length f);
      hub.h_tr.Transport.send ~dst:src f
  | Ok (`Welcome epoch) -> (
      match Hashtbl.find_opt hub.h_dict_out src with
      | Some od when od.od_helloed && B.dict_epoch od.od_dict = epoch ->
          if not od.od_on then begin
            od.od_on <- true;
            Sim.Stats.incr (hub_counter hub "chan_dict_negotiated")
          end
      | _ -> ())

(* The transport told us every connection to [peer] is gone: break each
   channel touching it so supervision (stream restart + resubmit) takes
   over. Incoming ends are tombstoned exactly as a Reset would, so a
   stale retransmit arriving over a fresh connection is answered with
   Reset rather than resurrecting the old incarnation. Only real
   transports fire this; the simulated net has no connections. *)
let peer_down hub ~peer ~reason =
  let reason = Printf.sprintf "connection to n%d lost: %s" peer reason in
  (* Dictionary state is connection-scoped: the next incarnation must
     start from an empty table on both ends, so reset (epoch bump) on
     our sending side and drop the peer's receive table — resubmitted
     calls then decode against a fresh dictionary. *)
  (match Hashtbl.find_opt hub.h_dict_out peer with
  | Some od ->
      B.reset_dict od.od_dict;
      od.od_on <- false;
      od.od_helloed <- false
  | None -> ());
  Hashtbl.remove hub.h_dict_in peer;
  let outs =
    Hashtbl.fold (fun _ o acc -> if o.o_dst = peer then o :: acc else acc) hub.h_outs []
  in
  List.iter
    (fun o ->
      Hashtbl.remove hub.h_outs o.o_key.idx;
      mark_broken o reason)
    outs;
  let ins =
    Hashtbl.fold (fun _ i acc -> if i.i_key.src = peer then i :: acc else acc) hub.h_ins []
  in
  List.iter
    (fun i ->
      Hashtbl.remove hub.h_ins (in_id i);
      Hashtbl.replace hub.h_dead (in_id i) reason;
      mark_in_broken i reason)
    ins

let create_hub_on ?(ack_delay = 0.0) ?(dict = false) tr =
  let counter = Sim.Stats.counter (S.stats tr.Transport.sched) in
  let hub =
    {
      h_tr = tr;
      h_sched = tr.Transport.sched;
      h_ctr =
        {
          hc_wire_bytes = counter "chan_wire_bytes";
          hc_data_packets = counter "chan_data_packets";
          hc_items_sent = counter "chan_items_sent";
          hc_ack_packets = counter "chan_ack_packets";
          hc_reset_packets = counter "chan_reset_packets";
          hc_piggybacked_acks = counter "chan_piggybacked_acks";
          hc_standalone_acks = counter "chan_standalone_acks";
          hc_dict_defines = counter "chan_dict_defines";
          hc_dict_refs = counter "chan_dict_refs";
        };
      h_ack_delay = ack_delay;
      (* Dictionary frames need every frame delivered exactly once and
         in order; on an unreliable endpoint the request is dropped
         rather than negotiated. *)
      h_dict = dict && tr.Transport.reliable;
      h_outs = Hashtbl.create 16;
      h_ins = Hashtbl.create 16;
      h_acceptors = Hashtbl.create 16;
      h_dead = Hashtbl.create 16;
      h_pending = Hashtbl.create 4;
      h_dict_out = Hashtbl.create 4;
      h_dict_in = Hashtbl.create 4;
      h_next_idx = 0;
      h_ho_epoch = 0;
      h_ho_pushes = Hashtbl.create 4;
      h_ho_expect = Hashtbl.create 16;
      h_ho_early = Hashtbl.create 16;
      h_ho_order = Queue.create ();
      h_ho_listening = false;
    }
  in
  tr.Transport.set_receiver (fun ~src frame -> receive hub ~src frame);
  tr.Transport.set_peer_watch (fun ~peer ~reason -> peer_down hub ~peer ~reason);
  hub

let create_hub ?ack_delay ?dict ?transport ?net () =
  match (transport, net) with
  | Some tr, None -> create_hub_on ?ack_delay ?dict tr
  | None, Some (n, node) -> create_hub_on ?ack_delay ?dict (Transport_sim.endpoint n node)
  | Some _, Some _ | None, None ->
      invalid_arg "Chanhub.create_hub: pass exactly one of ~transport / ~net"

let on_connect hub ~label acceptor = Hashtbl.replace hub.h_acceptors label acceptor

let remove_acceptor hub ~label = Hashtbl.remove hub.h_acceptors label

let connect hub ~dst ~label ~meta cfg =
  if cfg.max_batch <= 0 then invalid_arg "Chanhub.connect: max_batch must be positive";
  if cfg.max_batch_bytes <= 0 then
    invalid_arg "Chanhub.connect: max_batch_bytes must be positive";
  if cfg.max_inflight_bytes <= 0 then
    invalid_arg "Chanhub.connect: max_inflight_bytes must be positive";
  if cfg.adaptive_window then begin
    if cfg.window_min_bytes <= 0 || cfg.window_min_bytes > cfg.max_inflight_bytes then
      invalid_arg "Chanhub.connect: window_min_bytes must be in (0, max_inflight_bytes]";
    if cfg.window_increase <= 0 then
      invalid_arg "Chanhub.connect: window_increase must be positive"
  end;
  let key = { src = hub.h_tr.Transport.addr; label; idx = hub.h_next_idx; meta } in
  hub.h_next_idx <- hub.h_next_idx + 1;
  let o =
    {
      o_hub = hub;
      o_key = key;
      o_dst = dst;
      o_cfg = cfg;
      o_next_seq = 0;
      o_buf = Queue.create ();
      o_buf_bytes = 0;
      o_unacked = Queue.create ();
      o_inflight_bytes = 0;
      o_acked_upto = -1;
      o_window = (if cfg.adaptive_window then cfg.window_min_bytes else cfg.max_inflight_bytes);
      o_rtt_ewma = 0.0;
      o_cut_barrier = -1;
      o_on_ack = None;
      o_retries = 0;
      o_broken = None;
      o_on_break = [];
      o_flush_gen = 0;
      o_retx_timer = None;
      o_waiters = Queue.create ();
    }
  in
  Hashtbl.replace hub.h_outs key.idx o;
  o

let hub_recv_overhead h = h.h_tr.Transport.recv_overhead ()

(* --- third-party handoff (docs/HANDOFF.md) ------------------------ *)

(* How many unclaimed early pushes a hub keeps. Entries also serve as
   the push dedup record, so the cap bounds both memory and the window
   in which a replayed push is recognised as a duplicate. *)
let handoff_early_cap = 4096

let handoff_label = "~handoff"

let handoff_epoch hub = hub.h_ho_epoch

let set_handoff_epoch hub e = hub.h_ho_epoch <- e

(* One pushed outcome landed (or was replayed). First sighting is
   buffered and wakes whoever already expects the key; a repeat is the
   exactly-once machinery absorbing a replay. *)
let handle_push hub (stream, call, ov) =
  let key = (stream, call) in
  if Hashtbl.mem hub.h_ho_early key then
    Sim.Stats.incr (hub_counter hub "handoff_dedup_joins")
  else begin
    if Queue.length hub.h_ho_order >= handoff_early_cap then begin
      let victim = Queue.pop hub.h_ho_order in
      Hashtbl.remove hub.h_ho_early victim
    end;
    Hashtbl.replace hub.h_ho_early key ov;
    Queue.push key hub.h_ho_order;
    match Hashtbl.find_opt hub.h_ho_expect key with
    | None -> ()
    | Some ks ->
        Hashtbl.remove hub.h_ho_expect key;
        List.iter (fun k -> k ov) (List.rev ks)
  end

let handoff_listen hub =
  if not hub.h_ho_listening then begin
    hub.h_ho_listening <- true;
    on_connect hub ~label:handoff_label (fun i ->
        set_deliver i (fun _seq items ->
            List.iter
              (fun item ->
                match Result.bind (Xdr.View.materialize item) Wire.parse_handoff_push with
                | Ok push -> handle_push hub push
                | Error _ -> Sim.Stats.incr (hub_counter hub "handoff_malformed_pushes"))
              items))
  end

let handoff_expect hub ~stream ~call k =
  match Hashtbl.find_opt hub.h_ho_early (stream, call) with
  | Some ov -> k ov
  | None ->
      let key = (stream, call) in
      let existing = Option.value ~default:[] (Hashtbl.find_opt hub.h_ho_expect key) in
      Hashtbl.replace hub.h_ho_expect key (k :: existing)

let handoff_push hub ~dst ~stream ~call ov =
  Sim.Stats.incr (hub_counter hub "handoff_forwards");
  if dst = hub_addr hub then
    (* Producer and forwarded call share a node: no wire leg. *)
    handle_push hub (stream, call, ov)
  else begin
    let o =
      match Hashtbl.find_opt hub.h_ho_pushes dst with
      | Some o when o.o_broken = None -> o
      | _ ->
          let o = connect hub ~dst ~label:handoff_label ~meta:"" rpc_config in
          Sim.Stats.incr (hub_counter hub "handoff_streams_opened");
          Hashtbl.replace hub.h_ho_pushes dst o;
          on_out_break o (fun _ ->
              match Hashtbl.find_opt hub.h_ho_pushes dst with
              | Some o' when o' == o -> Hashtbl.remove hub.h_ho_pushes dst
              | _ -> ());
          o
    in
    (* A send on a just-broken channel is lost with the peer it was for;
       exactly-once is preserved by the fallback pushes the claimant's
       side makes on abnormal outcomes. *)
    (match send o (Wire.handoff_push_item ~stream ~call ov) with
    | Ok () -> ()
    | Error _ -> ());
    flush_out o
  end

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
(* Packet frame codec (docs/WIRE.md §2): version byte, kind byte,
   body. The kind's bits 0-1 are the tag (1 = Data, 2 = Ack, 3 =
   Reset), bits 2-3 the ack form (none, one, or a count >= 2), bit 4
   (Data only) counts uptos from first_seq. A Data packet names its
   channel by idx: the source is the frame's transport sender. Only a
   Data packet starting at seq 0 carries the label and meta, so every
   frame decodes on its own and a retransmit from seq 0 re-opens the
   channel. Every string — label, meta, port names inside items — goes
   through one intern table per frame, so a batch of calls to the same
   port pays for the port name once. *)

let ack_form = function [] -> 0 | [ _ ] -> 1 | _ -> 2

(* An entry packs the pressure into its idx varint's low two bits; its
   upto (-1 for "nothing received yet", hence signed) is from [base]. *)
let add_acks e ~base acks =
  if ack_form acks = 2 then B.add_uvarint e (List.length acks);
  List.iter
    (fun a ->
      if a.a_idx < 0 || a.a_idx > max_int lsr 2 then
        invalid_arg "Chanhub.encode_packet: ack idx out of range";
      B.add_uvarint e ((a.a_idx lsl 2) lor max 0 (min 3 a.a_pressure));
      B.add_varint e (a.a_upto - base))
    acks

(* Uptos count from first_seq exactly when that is strictly shorter
   and no [upto - first_seq] overflows. *)
let relative_acks ~first_seq acks =
  let rec go gain = function
    | [] -> gain > 0
    | { a_upto = u; _ } :: rest ->
        let d = u - first_seq in
        (u lxor first_seq) land (u lxor d) >= 0
        && go (gain + B.varint_length u - B.varint_length d) rest
  in
  go 0 acks

(* A Data packet up to its items, which follow in the same intern
   table. *)
let add_data_head e ~idx ~first_seq ~opening ~acks =
  let rel = relative_acks ~first_seq acks in
  B.add_byte e (1 lor (ack_form acks lsl 2) lor if rel then 16 else 0);
  B.add_uvarint e idx;
  B.add_uvarint e first_seq;
  (match (first_seq, opening) with
  | 0, Some o ->
      B.add_string e o.open_label;
      B.add_string e o.open_meta
  | 0, None | _, Some _ ->
      invalid_arg "Chanhub.encode_packet: opening fields go with first_seq = 0 only"
  | _, None -> ());
  add_acks e ~base:(if rel then first_seq else 0) acks

(* One pooled encoder per frame: the whole batch — envelope, acks and
   every item — shares a buffer and intern table. *)
let encode_packet p =
  let e = B.acquire () in
  B.add_byte e B.version;
  (match p with
  | Data { idx; first_seq; opening; acks; items } ->
      add_data_head e ~idx ~first_seq ~opening ~acks;
      List.iter (B.add_value e) items
  | Ack { acks } ->
      B.add_byte e (2 lor (ack_form acks lsl 2));
      add_acks e ~base:0 acks
  | Reset { src; idx; reason } ->
      B.add_byte e 3;
      B.add_uvarint e src;
      B.add_uvarint e idx;
      B.add_raw_string e reason);
  let frame = B.contents e in
  B.release e;
  frame

let ( let* ) = Result.bind

let rec decode_entries d ~base k acc =
  if k = 0 then Ok (List.rev acc)
  else
    let* v = B.read_uvarint d in
    let* delta = B.read_varint d in
    let a_upto = base + delta in
    if v < 0 || (base lxor a_upto) land (delta lxor a_upto) < 0 then Error "ack out of range"
    else
      let a = { a_idx = v lsr 2; a_upto; a_pressure = v land 3 } in
      decode_entries d ~base (k - 1) (a :: acc)

let decode_acks d ~kind ~first_seq =
  let base = if kind land 16 = 0 then 0 else first_seq in
  match (kind lsr 2) land 3 with
  | (0 | 1) as n -> decode_entries d ~base n []
  | 2 ->
      let* n = B.read_uvarint d in
      if n < 2 || n > B.remaining d then Error "ack count out of range"
      else decode_entries d ~base n []
  | _ -> Error "ack form 3"

(* Data items run to the end of the frame. *)
let rec decode_items read d acc =
  if B.remaining d = 0 then Ok (List.rev acc)
  else
    let* x = read d in
    decode_items read d (x :: acc)

(* The one frame decoder. [read] decodes a Data item (a tree or a
   view). A frame needs no state from earlier frames to decode. *)
let decode_frame ~read frame =
  let d = B.decoder frame in
  let* v = B.read_byte d in
  let* () =
    if v = B.version then Ok () else Error (Printf.sprintf "unsupported wire version %d" v)
  in
  let* kind = B.read_byte d in
  let* p =
    match kind land 3 with
    (* bits 5-7 clear, and bit 4 only with acks *)
    | 1 when kind land 0xe0 = 0 && kind land 0x1c <> 0x10 ->
        let* idx = B.read_uvarint d in
        (* so that the idx's acks cannot overflow their varint *)
        let* () = if idx < 0 || idx > max_int lsr 2 then Error "idx out of range" else Ok () in
        let* first_seq = B.read_uvarint d in
        let* opening =
          if first_seq <> 0 then Ok None
          else
            let* open_label = B.read_string d in
            let* open_meta = B.read_string d in
            Ok (Some { open_label; open_meta })
        in
        let* acks = decode_acks d ~kind ~first_seq in
        let* items = decode_items read d [] in
        Ok (Data { idx; first_seq; opening; acks; items })
    | 2 when kind land 0xf0 = 0 ->
        let* acks = decode_acks d ~kind ~first_seq:0 in
        Ok (Ack { acks })
    | 3 when kind = 3 ->
        let* src = B.read_uvarint d in
        let* idx = B.read_uvarint d in
        let* reason = B.read_raw_string d in
        Ok (Reset { src; idx; reason })
    | _ -> Error (Printf.sprintf "unknown frame kind %#x" kind)
  in
  let* () = B.expect_end d in
  Ok p

let decode_packet frame = decode_frame ~read:B.read_value frame

let decode_packet_view frame = decode_frame ~read:Xdr.View.read frame

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
  e_size : int;  (* the bytes it added to its packet, charged to the window *)
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
  mutable o_pkt : B.encoder option;
      (* the open packet: [o_buf]'s items, already encoded; held from
         the pool exactly while [o_buf] is not empty *)
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
  o_waiters : unit S.waker Queue.t;  (* fibers parked by a refused [offer] *)
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

(* What waits for the end of the scheduler turn on the way to one
   peer: parked acks and idle channels with buffered items. *)
and pending_acks = {
  p_acks : (int, int * int) Hashtbl.t;  (* per acked channel idx: max upto, max pressure *)
  mutable p_idle : out_chan list;  (* idle channels to flush at turn end, newest first *)
  mutable p_turn : bool;  (* the end-of-turn callback is armed *)
  mutable p_armed : bool;  (* delayed standalone-Ack timer pending ([ack_delay] > 0) *)
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
}

and hub = {
  h_tr : Transport.t;
  h_sched : S.t;
  h_ctr : hub_counters;
  h_ack_delay : float;
  h_outs : (int, out_chan) Hashtbl.t;  (* by idx *)
  h_ins : (Net.address * int, in_chan) Hashtbl.t;  (* by (src, idx) *)
  h_acceptors : (string, in_chan -> unit) Hashtbl.t;
  h_dead : (Net.address * int, string) Hashtbl.t;
  h_pending : (Net.address, pending_acks) Hashtbl.t;
  mutable h_next_idx : int;
  h_outcomes : Wire.routcome Pipeline.Registry.t;
      (* the node's outcome registry (docs/PIPELINE.md): every port
         group on the node records into it and parks on it, and pushed
         outcomes land in it *)
  (* Third-party handoff state (docs/HANDOFF.md): outcome pushes travel
     on dedicated "~handoff"-labelled channels, one per destination
     peer, opened lazily. *)
  mutable h_ho_epoch : int;
  h_ho_pushes : (Net.address, out_chan) Hashtbl.t;
  mutable h_ho_listening : bool;
}

let hub_addr h = h.h_tr.Transport.addr

type table_sizes = { outs : int; ins : int; dead : int }

let table_sizes h =
  { outs = Hashtbl.length h.h_outs; ins = Hashtbl.length h.h_ins; dead = Hashtbl.length h.h_dead }

let hub_sched h = h.h_sched

let outcomes h = h.h_outcomes

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
   format a [note] test [spans_on] first, so they format nothing then.
   [trace_of] projects the trace id: out of the item on the send path,
   out of the slice (nothing materialised) on the receive path. *)
let span_items hub kind ?note trace_of items =
  let spans = S.spans hub.h_sched in
  if Sim.Span.enabled spans then
    List.iter
      (fun item ->
        match trace_of item with
        | Some tid ->
            Sim.Span.record spans ~time:(S.now hub.h_sched) ~kind ~trace:tid
              ~node:hub.h_tr.Transport.addr ?note ()
        | None -> ())
      items

let send_frame hub ~dst frame =
  Sim.Stats.add hub.h_ctr.hc_wire_bytes (String.length frame);
  hub.h_tr.Transport.send ~dst frame

let count_data hub items =
  Sim.Stats.incr hub.h_ctr.hc_data_packets;
  Sim.Stats.add hub.h_ctr.hc_items_sent items

let transmit hub ~dst packet =
  (match packet with
  | Data { items; _ } -> count_data hub (List.length items)
  | Ack _ -> Sim.Stats.incr hub.h_ctr.hc_ack_packets
  | Reset _ -> Sim.Stats.incr hub.h_ctr.hc_reset_packets);
  send_frame hub ~dst (encode_packet packet)

(* --- delayed acks and piggybacking -------------------------------- *)

let pending_for hub dst =
  match Hashtbl.find_opt hub.h_pending dst with
  | Some p -> p
  | None ->
      let p = { p_acks = Hashtbl.create 4; p_idle = []; p_turn = false; p_armed = false } in
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

let send_standalone_acks hub ~dst =
  let acks = drain_pending hub dst in
  if acks <> [] then begin
    Sim.Stats.add hub.h_ctr.hc_standalone_acks (List.length acks);
    transmit hub ~dst (Ack { acks })
  end

(* --- sending end -------------------------------------------------- *)

let wake_waiters o =
  (* Wake everyone; each offers again and re-parks if it is still
     refused, preserving FIFO order through the queue. *)
  while not (Queue.is_empty o.o_waiters) do
    ignore (S.wake (Queue.pop o.o_waiters) ())
  done

let disarm_retransmit o =
  Option.iter S.cancel_timer o.o_retx_timer;
  o.o_retx_timer <- None

let drop_packet o =
  Option.iter B.release o.o_pkt;
  o.o_pkt <- None

(* A broken channel leaves the hub's table: acks and Resets for it do
   nothing anyway. *)
let mark_broken o reason =
  if o.o_broken = None then begin
    Sim.Stats.incr (hub_counter o.o_hub "chan_out_breaks");
    o.o_broken <- Some reason;
    Hashtbl.remove o.o_hub.h_outs o.o_key.idx;
    Queue.clear o.o_buf;
    drop_packet o;
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
let opening_at o ~first_seq =
  if first_seq = 0 then Some { open_label = o.o_key.label; open_meta = o.o_key.meta } else None

let data_packet o ~first_seq ~acks ~items =
  let opening = opening_at o ~first_seq in
  Data { idx = o.o_key.idx; first_seq; opening; acks; items }

(* Stamp every entry of [q] as (re)transmitted now. *)
let stamp_sent o q ~retx =
  let now = S.now o.o_hub.h_sched in
  Queue.iter
    (fun e ->
      e.e_sent_at <- now;
      e.e_retx <- retx)
    q

let items_of q = List.rev (Queue.fold (fun acc e -> e.e_item :: acc) [] q)

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
               stamp_sent o o.o_unacked ~retx:true;
               let items = items_of o.o_unacked in
               let acks = take_piggyback o.o_hub ~dst:o.o_dst in
               transmit o.o_hub ~dst:o.o_dst
                 (data_packet o ~first_seq:(o.o_acked_upto + 1) ~acks ~items);
               if spans_on o.o_hub then
                 span_items o.o_hub Sim.Span.Retransmit
                   ~note:(Printf.sprintf "try %d -> n%d" o.o_retries o.o_dst)
                   Wire.item_trace items;
               arm_retransmit o
             end))

(* The open packet's items are already encoded: the frame is its head,
   with the acks parked for the peer, and then those bytes. *)
let flush_out o =
  match o.o_pkt with
  | Some pkt when o.o_broken = None ->
      let count = Queue.length o.o_buf in
      let first_seq = o.o_next_seq - count in
      stamp_sent o o.o_buf ~retx:false;
      let items = if spans_on o.o_hub then items_of o.o_buf else [] in
      Queue.transfer o.o_buf o.o_unacked;
      o.o_flush_gen <- o.o_flush_gen + 1;
      let acks = take_piggyback o.o_hub ~dst:o.o_dst in
      let e = B.acquire () in
      B.add_byte e B.version;
      add_data_head e ~idx:o.o_key.idx ~first_seq ~opening:(opening_at o ~first_seq) ~acks;
      B.append e pkt;
      let frame = B.contents e in
      B.release e;
      drop_packet o;
      count_data o.o_hub count;
      send_frame o.o_hub ~dst:o.o_dst frame;
      if spans_on o.o_hub then
        span_items o.o_hub Sim.Span.Transmit ~note:(Printf.sprintf "-> n%d" o.o_dst)
          Wire.item_trace items;
      arm_retransmit o
  | Some _ | None -> ()

(* The peer's end-of-turn callback, run once the run queue is empty.
   Idle channels flush first, each taking the parked acks as piggyback;
   only then, at [ack_delay = 0], do the acks left over go as one
   standalone Ack. The other order would put an Ack frame in front of
   the replies that could have carried it. *)
let end_of_turn hub ~dst p () =
  p.p_turn <- false;
  let idle = List.rev p.p_idle in
  p.p_idle <- [];
  List.iter (fun o -> if Queue.is_empty o.o_unacked then flush_out o) idle;
  if hub.h_ack_delay <= 0.0 then send_standalone_acks hub ~dst

let arm_turn hub ~dst p =
  if not p.p_turn then begin
    p.p_turn <- true;
    S.after hub.h_sched 0.0 (end_of_turn hub ~dst p)
  end

(* Acknowledge [upto] on channel [idx] of the hub at [dst], the
   channel's sender. The ack parks with [dst]'s other pending entries
   and rides the next Data packet to [dst]; if none leaves first, the
   [ack_delay] timer sends them all as one standalone Ack. At the
   default 0 that is the end-of-turn callback, so an ack never waits
   on a clock. *)
let post_ack hub ~dst ~idx ~upto ~pressure =
  let p = pending_for hub dst in
  (match Hashtbl.find_opt p.p_acks idx with
  | Some (prev_upto, prev_pressure) ->
      Hashtbl.replace p.p_acks idx (max prev_upto upto, max prev_pressure pressure)
  | None -> Hashtbl.replace p.p_acks idx (upto, pressure));
  if hub.h_ack_delay <= 0.0 then arm_turn hub ~dst p
  else if not p.p_armed then begin
    p.p_armed <- true;
    S.after hub.h_sched hub.h_ack_delay (fun () ->
        p.p_armed <- false;
        send_standalone_acks hub ~dst)
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

(* Encode [item] at the tail of the open packet and return the bytes it
   added. At seq 0 the head will spell the label and meta in front of
   the items, so a new packet starts with them interned. *)
let encode_item o item =
  let e =
    match o.o_pkt with
    | Some e -> e
    | None ->
        let e = B.acquire () in
        if o.o_next_seq = 0 then List.iter (B.seed e) [ o.o_key.label; o.o_key.meta ];
        o.o_pkt <- Some e;
        e
  in
  let before = B.length e in
  B.mark e;
  B.add_value e item;
  B.length e - before

let enqueue o item bytes =
  Queue.add { e_item = item; e_size = bytes; e_sent_at = 0.0; e_retx = false } o.o_buf;
  o.o_inflight_bytes <- o.o_inflight_bytes + bytes;
  o.o_next_seq <- o.o_next_seq + 1

let offer o item =
  match o.o_broken with
  | Some reason -> Error reason
  | None ->
      let bytes = encode_item o item in
      let admit = window_admits o bytes || S.current o.o_hub.h_sched = None in
      if admit then enqueue o item bytes
      else begin
        if Queue.is_empty o.o_buf then drop_packet o else Option.iter B.rewind o.o_pkt;
        (* until an ack frees bytes or the channel breaks *)
        S.suspend o.o_hub.h_sched (fun w -> Queue.add w o.o_waiters)
      end;
      match o.o_broken with Some reason -> Error reason | None -> Ok admit

let commit o =
  let buffered = Queue.length o.o_buf in
  let packet_bytes = match o.o_pkt with Some e -> B.length e | None -> 0 in
  if buffered >= o.o_cfg.max_batch || packet_bytes >= o.o_cfg.max_batch_bytes then flush_out o
  else if o.o_cfg.flush_on_idle && Queue.is_empty o.o_unacked then begin
    (* Idle: the first item queues the channel for the end of the turn,
       so the rest of the turn's sends and the peer's parked acks leave
       with it. *)
    if buffered = 1 then begin
      let p = pending_for o.o_hub o.o_dst in
      p.p_idle <- o :: p.p_idle;
      arm_turn o.o_hub ~dst:o.o_dst p
    end
  end
  else if buffered = 1 && o.o_cfg.flush_interval < infinity then begin
    if o.o_cfg.flush_interval <= 0.0 then flush_out o
    else begin
      o.o_flush_gen <- o.o_flush_gen + 1;
      let gen = o.o_flush_gen in
      S.after o.o_hub.h_sched o.o_cfg.flush_interval (fun () ->
          if gen = o.o_flush_gen then flush_out o)
    end
  end

let send o item =
  match o.o_broken with
  | Some reason -> Error reason
  | None ->
      enqueue o item (encode_item o item);
      commit o;
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
    if spans then span_items o.o_hub Sim.Span.Ack Wire.item_trace (List.rev !freed_items);
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
                span_items hub Sim.Span.Deliver ~note:(Printf.sprintf "from n%d" src)
                  Wire.item_trace_view fresh;
              (match i.i_deliver with Some f -> f (first_seq + skip) fresh | None -> ())
            end;
            post_ack hub ~dst:src ~idx ~upto:(i.i_expected - 1) ~pressure:(probe_pressure i)
          end

(* A Reset naming a channel that its sender is not a peer of: counted
   and dropped, so no node can break another pair's channel. (A Data
   packet can name only its sender's own channels.) *)
let spoofed hub = Sim.Stats.incr (hub_counter hub "chan_spoofed_drops")

(* A Reset names a channel by its sender: ours when [src] is this hub
   (the receiver refused it), the peer's otherwise. Only the channel's
   peer — [from], the frame's transport sender — may break it. *)
let handle_reset hub ~from ~src ~idx ~reason =
  (if src = hub_addr hub then
     match Hashtbl.find_opt hub.h_outs idx with
     | Some o when o.o_dst = from -> mark_broken o reason
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

(* Inbound frames decode lazily: Data items become views, not trees. *)
let receive hub ~src frame =
  match decode_packet_view frame with
  | Error _ ->
      (* Corrupt frame: drop it; go-back-n retransmission recovers. *)
      Sim.Stats.incr (hub_counter hub "chan_decode_errors")
  | Ok (Data { idx; first_seq; opening; acks; items }) ->
      (* Acks ride in front of the data they share a packet with. *)
      handle_acks hub ~from:src acks;
      handle_data hub ~src ~idx ~first_seq ~opening ~items
  | Ok (Ack { acks }) -> handle_acks hub ~from:src acks
  | Ok (Reset { src = chan_src; idx; reason }) ->
      handle_reset hub ~from:src ~src:chan_src ~idx ~reason

(* The transport told us every connection to [peer] is gone: break each
   channel touching it so supervision (stream restart + resubmit) takes
   over. Tombstones die with the connection they came from: the peer's
   own [peer_down] broke every channel it sent on, so nothing from the
   old incarnation can arrive later, and a restarted peer numbering its
   channels from 0 again must not meet its predecessor's Resets. This
   also bounds [h_dead] by the live connections. Only real transports
   fire this; the simulated net has no connections. *)
let peer_down hub ~peer ~reason =
  let reason = Printf.sprintf "connection to n%d lost: %s" peer reason in
  (* Parked acks name the old incarnation's channel indexes, which a
     restarted peer reuses from 0: drop them (the armed callback then
     finds nothing to send, and the idle channels it would flush break
     below). *)
  Hashtbl.remove hub.h_pending peer;
  let outs =
    Hashtbl.fold (fun _ o acc -> if o.o_dst = peer then o :: acc else acc) hub.h_outs []
  in
  List.iter (fun o -> mark_broken o reason) outs;
  let ins =
    Hashtbl.fold (fun _ i acc -> if i.i_key.src = peer then i :: acc else acc) hub.h_ins []
  in
  Hashtbl.filter_map_inplace
    (fun (src, _) reason -> if src = peer then None else Some reason)
    hub.h_dead;
  List.iter
    (fun i ->
      Hashtbl.remove hub.h_ins (in_id i);
      mark_in_broken i reason)
    ins

let create_hub_on ?(ack_delay = 0.0) tr =
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
        };
      h_ack_delay = ack_delay;
      h_outs = Hashtbl.create 16;
      h_ins = Hashtbl.create 16;
      h_acceptors = Hashtbl.create 16;
      h_dead = Hashtbl.create 16;
      h_pending = Hashtbl.create 4;
      h_next_idx = 0;
      h_outcomes = Pipeline.Registry.create ();
      h_ho_epoch = 0;
      h_ho_pushes = Hashtbl.create 4;
      h_ho_listening = false;
    }
  in
  tr.Transport.set_receiver (fun ~src frame -> receive hub ~src frame);
  tr.Transport.set_peer_watch (fun ~peer ~reason -> peer_down hub ~peer ~reason);
  hub

let create_hub ?ack_delay ?transport ?net () =
  match (transport, net) with
  | Some tr, None -> create_hub_on ?ack_delay tr
  | None, Some (n, node) -> create_hub_on ?ack_delay (Transport_sim.endpoint n node)
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
      o_pkt = None;
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

let handoff_label = "~handoff"

let handoff_epoch hub = hub.h_ho_epoch

let set_handoff_epoch hub e = hub.h_ho_epoch <- e

(* One pushed outcome landed (or was replayed). First sighting is
   recorded in the node's registry, waking whoever parked on the key,
   and is marked spare: under cap pressure a push is evicted after
   every acked local outcome but before any outcome a local caller has
   not acked yet. A repeat is the exactly-once machinery absorbing a
   replay. *)
let handle_push hub ~stream ~call o =
  if Pipeline.Registry.find hub.h_outcomes ~stream ~call <> None then
    Sim.Stats.incr (hub_counter hub "handoff_dedup_joins")
  else begin
    Pipeline.Registry.record hub.h_outcomes ~stream ~call o;
    Pipeline.Registry.mark_spare hub.h_outcomes ~stream ~call
  end

let parse_push item =
  let* stream, call, ov = Result.bind (Xdr.View.materialize item) Wire.parse_handoff_push in
  let* o = Wire.outcome_of_value ov in
  Ok (stream, call, o)

let handoff_listen hub =
  if not hub.h_ho_listening then begin
    hub.h_ho_listening <- true;
    on_connect hub ~label:handoff_label (fun i ->
        set_deliver i (fun _seq items ->
            List.iter
              (fun item ->
                match parse_push item with
                | Ok (stream, _, _) when Wire.stream_id_dst stream = Some (hub_addr hub) ->
                    (* Only this node's own groups produce outcomes of a
                       stream sent here, and they record them
                       themselves: a peer pushing one is forging it. *)
                    Sim.Stats.incr (hub_counter hub "handoff_malformed_pushes")
                | Ok (stream, call, o) -> handle_push hub ~stream ~call o
                | Error _ -> Sim.Stats.incr (hub_counter hub "handoff_malformed_pushes"))
              items))
  end

let handoff_push hub ~dst ~stream ~call outcome =
  Sim.Stats.incr (hub_counter hub "handoff_forwards");
  if dst = hub_addr hub then
    (* Producer and forwarded call share a node: no wire leg. *)
    handle_push hub ~stream ~call outcome
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
    (match send o (Wire.handoff_push_item ~stream ~call (Wire.outcome_value outcome)) with
    | Ok () -> ()
    | Error _ -> ());
    flush_out o
  end

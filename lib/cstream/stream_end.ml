module S = Sched.Scheduler

type pending = {
  p_cid : int;
  p_trace : int;  (* causal trace id; survives resubmission with the cid *)
  p_port : string;
  p_kind : Wire.kind;
  p_args : Xdr.value;
  p_handoff : Wire.handoff list;  (* annotations replayed verbatim on resubmit *)
  p_elide : bool;
  p_on_reply : Wire.routcome -> unit;
}

type t = {
  hub : Chanhub.hub;
  sched : S.t;
  s_agent : string;
  s_dst : Net.address;
  s_gid : string;
  s_stable : string;  (* incarnation-independent: computed once at [create] *)
  s_cfg : Chanhub.config;
  mutable chan : Chanhub.out_chan;
  mutable ports : Wire.port_names;  (* this incarnation's channel port table *)
  mutable incarnation : int;
  mutable s_broken : string option;
  pending : (int, pending) Hashtbl.t;
  mutable next_seq : int;
  mutable next_cid : int;  (* stable call-ids: never reset, even across restarts *)
  mutable completed_upto : int;
  mutable exn_since_synch : bool;
  mutable synch_waiters : (int * unit S.waker) list;
  mutable break_hooks : (string -> unit) list;
  mutable preserve_on_break : bool;
  mutable progress_hook : (unit -> unit) option;
}

let agent t = t.s_agent

let sched t = t.sched

let gid t = t.s_gid

let dst t = t.s_dst

let broken t = t.s_broken

let incarnation t = t.incarnation

let outstanding t = Hashtbl.length t.pending

let set_preserve_on_break t b = t.preserve_on_break <- b

let on_progress t f = t.progress_hook <- Some f

let counter t name = Sim.Stats.counter (S.stats t.sched) name

let spans t = S.spans t.sched

let node_addr t = Chanhub.hub_addr t.hub

let hub t = t.hub

let reply_label_for ~agent ~gid ~dst ~incarnation =
  Printf.sprintf "~r/%s/%s/%d/%d" agent gid dst incarnation

let reply_label t =
  reply_label_for ~agent:t.s_agent ~gid:t.s_gid ~dst:t.s_dst ~incarnation:t.incarnation

let stable_id t = t.s_stable

let span t ~kind ~trace ~call ?note () =
  let sp = spans t in
  if Sim.Span.sampled sp trace then
    Sim.Span.record sp ~time:(S.now t.sched) ~kind ~trace ~node:(node_addr t)
      ~stream:t.s_stable ~call ?note ()

let wake_satisfied_synchers t =
  let ready, waiting =
    List.partition (fun (target, _) -> t.completed_upto >= target) t.synch_waiters
  in
  t.synch_waiters <- waiting;
  List.iter (fun (_, w) -> ignore (S.wake w () : bool)) ready

let complete t seq outcome =
  match Hashtbl.find_opt t.pending seq with
  | None -> () (* stale reply after a break resolved everything *)
  | Some p ->
      Hashtbl.remove t.pending seq;
      if seq > t.completed_upto then t.completed_upto <- seq;
      (match outcome with
      | Wire.W_normal _ -> ()
      | Wire.W_signal _ | Wire.W_unavailable _ | Wire.W_failure _ ->
          t.exn_since_synch <- true);
      p.p_on_reply outcome;
      wake_satisfied_synchers t

(* Resolve every still-outstanding call with [unavailable] (in call
   order, each exactly once) — the terminal fate of in-flight calls
   when nobody will retry them. *)
let fail_pending t ~reason =
  if Hashtbl.length t.pending > 0 then begin
    let seqs = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.pending [] in
    let seqs = List.sort compare seqs in
    List.iter (fun seq -> complete t seq (Wire.W_unavailable reason)) seqs
  end;
  t.completed_upto <- t.next_seq - 1;
  wake_satisfied_synchers t

let handle_break t reason =
  if t.s_broken = None then begin
    t.s_broken <- Some reason;
    Sim.Stats.incr (counter t "stream_breaks");
    if Sim.Span.enabled (spans t) then
      Hashtbl.iter
        (fun _ p -> span t ~kind:Sim.Span.Break ~trace:p.p_trace ~call:p.p_cid ~note:reason ())
        t.pending;
    (* Outstanding calls will never get replies on this incarnation.
       Default (§2): complete them with [unavailable] — "we rely on the
       language to cause the calls to terminate with an exception".
       Under supervision ([preserve_on_break]) they are kept pending so
       a reincarnation can re-submit them with their stable call-ids;
       the supervisor calls {!fail_pending} if it gives up. *)
    if not t.preserve_on_break then fail_pending t ~reason:("stream broken: " ^ reason)
    else wake_satisfied_synchers t;
    let hooks = t.break_hooks in
    t.break_hooks <- [];
    List.iter (fun f -> f reason) hooks
  end

(* Replies arrive as lazy views, in call order: a reply's channel
   position is its call's seq. The outcome bytes are only decoded when
   that seq is still pending, so stale replies (after a break resolved
   everything, or a resubmit raced a late original) cost an envelope
   scan, not a full outcome materialisation. *)
let deliver_replies t first items =
  List.iteri
    (fun k vw ->
      let seq = first + k in
      match Wire.parse_reply_view vw with
      | Ok ovw ->
          if Hashtbl.mem t.pending seq then (
            match Wire.outcome_of_view ovw with
            | Ok outcome ->
                complete t seq outcome;
                (* A reply made it back: the stream demonstrably works.
                   Supervisors use this to close their circuit breaker. *)
                (match t.progress_hook with Some f -> f () | None -> ())
            | Error _ -> handle_break t "malformed reply from receiver")
      | Error _ ->
          (* A malformed reply means our peer is garbage; break. *)
          handle_break t "malformed reply from receiver")
    items

(* Wire an incarnation's channel and reply acceptor to [t]. The channel
   itself is created by the caller (it does not need [t]). *)
let attach t chan =
  let label = reply_label t in
  Chanhub.on_connect t.hub ~label (fun in_chan ->
      Chanhub.set_deliver in_chan (fun seq items -> deliver_replies t seq items));
  Chanhub.on_out_break chan (fun reason -> handle_break t reason);
  t.chan <- chan

let create hub ~agent ~dst ~gid ?(config = Chanhub.default_config) () =
  let label = reply_label_for ~agent ~gid ~dst ~incarnation:0 in
  let chan = Chanhub.connect hub ~dst ~label:gid ~meta:label config in
  let t =
    {
      hub;
      sched = Chanhub.hub_sched hub;
      s_agent = agent;
      s_dst = dst;
      s_gid = gid;
      (* As the receiver will compute it from our reply-channel label —
         the address half is this hub's node, the label half drops the
         incarnation suffix, so the id survives restarts. *)
      s_stable = Wire.stable_stream_id ~src:(Chanhub.hub_addr hub) ~reply_label:label;
      s_cfg = config;
      chan;
      ports = Wire.port_names ();
      incarnation = 0;
      s_broken = None;
      pending = Hashtbl.create 32;
      next_seq = 0;
      next_cid = 0;
      completed_upto = -1;
      exn_since_synch = false;
      synch_waiters = [];
      break_hooks = [];
      preserve_on_break = false;
      progress_hook = None;
    }
  in
  attach t chan;
  t

let cid_element ~seq cid = if cid = seq then None else Some cid

(* Offer the call until the window admits it, built for the seq and
   port form of each offer. The seq is claimed only once admitted: a
   fiber that blocked after taking its seq would let later calls enter
   the channel first and violate in-call-order delivery. *)
let rec offer_call t ~handoff ~elide ~tid ~wire_trace ~port ~kind ~args ~on_reply =
  let seq = t.next_seq and cid = t.next_cid in
  let item =
    Wire.call_item ~handoff ~elide ?cid:(cid_element ~seq cid) ~trace:wire_trace
      ~port:(Wire.port_form t.ports port) ~kind ~args ()
  in
  match Chanhub.offer t.chan item with
  | Error reason -> Error reason
  | Ok false -> (
      match t.s_broken with
      | Some reason -> Error reason
      | None -> offer_call t ~handoff ~elide ~tid ~wire_trace ~port ~kind ~args ~on_reply)
  | Ok true ->
      t.next_seq <- seq + 1;
      t.next_cid <- cid + 1;
      (* The port is interned with the seq, so the table fills in
         channel order. *)
      ignore (Wire.intern_port t.ports port : Wire.port);
      Hashtbl.replace t.pending seq
        {
          p_cid = cid;
          p_trace = tid;
          p_port = port;
          p_kind = kind;
          p_args = args;
          p_handoff = handoff;
          p_elide = elide;
          p_on_reply = on_reply;
        };
      span t ~kind:Sim.Span.Issue ~trace:tid ~call:cid ~note:port ();
      Chanhub.commit t.chan;
      span t ~kind:Sim.Span.Enqueue ~trace:tid ~call:cid ();
      Ok (cid, tid)

let call ?(handoff = []) ?(elide = false) t ~port ~kind ~args ~on_reply =
  match t.s_broken with
  | Some reason -> Error reason
  | None ->
      (* The trace id is allocated at issue and kept for the call's
         whole life, across resubmissions; it rides the wire only while
         tracing is on AND the id passes the 1-in-N sampling filter
         (docs/TRACING.md), so the off-path encoding is unchanged and a
         sampled-out call records nothing anywhere. *)
      let tid = Sim.Span.next_trace (spans t) in
      let wire_trace = if Sim.Span.sampled (spans t) tid then Some tid else None in
      offer_call t ~handoff ~elide ~tid ~wire_trace ~port ~kind ~args ~on_reply

let flush t = if t.s_broken = None then Chanhub.flush_out t.chan

let window_bytes t = Chanhub.window_bytes t.chan

let rtt_ewma t = Chanhub.rtt_ewma t.chan

let inflight_bytes t = Chanhub.inflight_bytes t.chan

let synch t =
  match t.s_broken with
  | Some reason -> Error (`Broken reason)
  | None ->
      flush t;
      let target = t.next_seq - 1 in
      if t.completed_upto < target then
        S.suspend t.sched (fun w -> t.synch_waiters <- (target, w) :: t.synch_waiters);
      (match t.s_broken with
      | Some reason -> Error (`Broken reason)
      | None ->
          if t.exn_since_synch then begin
            t.exn_since_synch <- false;
            Error `Exception_reply
          end
          else Ok ())

let on_break t f =
  match t.s_broken with Some reason -> f reason | None -> t.break_hooks <- f :: t.break_hooks

(* Shared tail of both restart flavours: bump the incarnation and open
   its fresh channel pair, whose port table starts empty. *)
let reincarnate t =
  Chanhub.remove_acceptor t.hub ~label:(reply_label t);
  t.incarnation <- t.incarnation + 1;
  t.s_broken <- None;
  t.ports <- Wire.port_names ();
  let label = reply_label t in
  let chan = Chanhub.connect t.hub ~dst:t.s_dst ~label:t.s_gid ~meta:label t.s_cfg in
  attach t chan

let restart t =
  (match t.s_broken with
  | None ->
      (* A restart of a live stream is "a break done by the system at
         the sender at that moment" (§2). *)
      Chanhub.break_out t.chan ~reason:"restarted by sender";
      handle_break t "restarted by sender"
  | Some _ -> ());
  (* Under supervision the break left in-flight calls pending; a manual
     restart abandons them — each resolves [unavailable] exactly once. *)
  (match t.s_broken with
  | Some reason -> fail_pending t ~reason:("stream broken: " ^ reason)
  | None -> ());
  Sim.Stats.incr (counter t "stream_restarts");
  t.next_seq <- 0;
  t.completed_upto <- -1;
  t.exn_since_synch <- false;
  reincarnate t

let restart_resubmit t =
  match t.s_broken with
  | None -> invalid_arg "Stream_end.restart_resubmit: stream is not broken"
  | Some _ ->
      (* Re-key the surviving in-flight calls into the new incarnation's
         seq space (preserving call order and their stable cids), then
         replay them. Replies already received form a contiguous prefix,
         so the pending seqs are exactly [completed_upto+1 .. next_seq-1]. *)
      let pend = Hashtbl.fold (fun seq p acc -> (seq, p) :: acc) t.pending [] in
      let pend = List.sort (fun (a, _) (b, _) -> compare a b) pend in
      let shift = t.completed_upto + 1 in
      Hashtbl.reset t.pending;
      List.iteri (fun i (_, p) -> Hashtbl.replace t.pending i p) pend;
      t.synch_waiters <- List.map (fun (target, w) -> (target - shift, w)) t.synch_waiters;
      t.next_seq <- List.length pend;
      t.completed_upto <- -1;
      Sim.Stats.incr (counter t "stream_restarts");
      Sim.Stats.add (counter t "stream_resubmitted_calls") (List.length pend);
      reincarnate t;
      let wire_trace p =
        if Sim.Span.sampled (spans t) p.p_trace then Some p.p_trace else None
      in
      List.iteri
        (fun i (_, p) ->
          span t ~kind:Sim.Span.Resubmit ~trace:p.p_trace ~call:p.p_cid
            ~note:(Printf.sprintf "incarnation %d" t.incarnation) ();
          (* Marked [resubmit] so a load-shedding receiver lets it
             through to its dedup store rather than rejecting it. *)
          ignore
            (Chanhub.send t.chan
               (Wire.call_item ~resubmit:true ~handoff:p.p_handoff ~elide:p.p_elide
                  ?cid:(cid_element ~seq:i p.p_cid) ~trace:(wire_trace p)
                  ~port:(Wire.intern_port t.ports p.p_port) ~kind:p.p_kind ~args:p.p_args ())
              : (unit, string) result))
        pend;
      if pend <> [] then Chanhub.flush_out t.chan;
      wake_satisfied_synchers t;
      List.length pend

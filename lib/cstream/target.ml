module S = Sched.Scheduler

(* A call's arguments ride the work queue still encoded whenever
   nothing on the way to the handler needs their structure: dedup
   replays, sheds and joins then never pay the decode. [Materialized]
   appears when the shard router had to hash the first argument, or
   once the handler is about to run. Views are bound to the arrival
   frame's intern state and are not domain-safe, so an [Encoded]
   payload is always forced on the scheduler's domain before dispatch
   (which may hand the value to a worker domain). *)
type lazy_args = Materialized of Xdr.value | Encoded of Xdr.View.t

type work =
  | Overhead  (** one arriving network message: charge kernel overhead *)
  | Exec of {
      seq : int;
      cid : int;
      trace : int option;  (* causal trace id carried by the call item *)
      port : string;
      kind : Wire.kind;
      args : lazy_args;
      handoff : Wire.handoff list;  (* annotations for foreign Prefs in args *)
      elide : bool;  (* strip a normal result from the reply (docs/HANDOFF.md) *)
    }

(* Per-call counters, resolved once at [create]: a by-name lookup costs
   a mutex and a string hash on every call. *)
type counters = {
  n_lazy_args : Sim.Stats.counter;
  n_materialized : Sim.Stats.counter;
  n_sheds : Sim.Stats.counter;
  n_shard_dispatches : Sim.Stats.counter;
  n_shard_hwm : Sim.Stats.counter;
  n_shard_imbalance : Sim.Stats.counter;
}

type t = {
  hub : Chanhub.hub;
  sched : S.t;
  t_ctr : counters;
  t_gid : string;
  reply_config : Chanhub.config;
  t_ordered : bool;
  t_dedup : bool;
  t_shards : int;
  t_shed : int option;  (* load-shed high-water mark on lane queue depth *)
  t_dispatch_counts : int array;
      (* cumulative calls routed to each shard, for the imbalance stat *)
  t_registry : Wire.routcome Pipeline.Registry.t;
      (* the node's outcome registry ({!Chanhub.outcomes}), shared with
         every target on the hub; also the dedup store *)
  t_running : (string * int, unit) Hashtbl.t;
      (* dedup only: (stable stream id, call-id) of running executions *)
  dispatch : dispatch;
  conns : (Chanhub.key, conn) Hashtbl.t;
  mutable closed : bool;
}

and conn = {
  c_target : t;
  c_in : Chanhub.in_chan;
  c_reply : Chanhub.out_chan;
  c_stable : string;  (* incarnation-independent identity of the sending stream *)
  c_shards : shard array;  (* one execution lane per shard (docs/SHARDING.md) *)
  c_ports : Wire.port_table;  (* the call channel's port table, filled in delivery order *)
  mutable c_broken : bool;
  mutable c_inflight : int;  (* calls being executed right now, across all lanes *)
  mutable c_breaking : string option;  (* break requested mid-call *)
  c_execs : S.group;
      (* orphanable handler executions, killed as a group when the
         connection goes away (docs/FAULTS.md) *)
  c_parked : (int, Pipeline.Registry.waiter list) Hashtbl.t;
      (* cid -> registry waiters of a parked or joined call: such a
         call dies with its connection *)
  (* outcomes parked until all earlier replies went out *)
  c_done : (int, Wire.kind * int option * bool * Wire.routcome) Hashtbl.t;
      (* (kind, trace, elide, outcome) *)
  mutable c_next_reply : int;
  (* reply seq -> stable call-id, for ack-tied registry release: when the
     reply channel's ack frees a reply item, the corresponding outcome can
     no longer be claimed through this stream (docs/PIPELINE.md) *)
  c_seq2cid : (int, int) Hashtbl.t;
}

and shard = {
  sh_work : work Sched.Bqueue.t;
  mutable sh_driver : S.fiber option;
}

and dispatch =
  conn ->
  seq:int ->
  port:string ->
  kind:Wire.kind ->
  args:Xdr.value ->
  reply:(Wire.routcome -> unit) ->
  unit

let gid t = t.t_gid

let dedup t = t.t_dedup

let shards t = t.t_shards

(* The partition function: hash of the first argument, so a
   [Pair (key, payload)] argument shards on the key alone. It is pure —
   a resubmitted call (same stable call item, possibly a new stream
   incarnation) re-hashes to the same shard, which is what keeps dedup
   joins and per-key order stable across restarts. *)
let first_arg = function Xdr.Pair (a, _) -> a | v -> v

let default_shard_key args = Hashtbl.hash (first_arg args)

let conn_src c = Chanhub.in_src c.c_in

let counter t name = Sim.Stats.counter (S.stats t.sched) name

(* Receiver-side span emission (docs/TRACING.md): a no-op unless the
   arriving item carried a trace id, which it only does while the
   sender's (shared) span store is enabled. *)
let span t ~kind ~trace ?stream ?call ?note () =
  match trace with
  | None -> ()
  | Some tid ->
      let sp = S.spans t.sched in
      if Sim.Span.enabled sp then
        Sim.Span.record sp ~time:(S.now t.sched) ~kind ~trace:tid
          ~node:(Chanhub.hub_addr t.hub)
          ?stream ?call ?note ()

(* Whether [span] would record for [trace]. Call sites that format a
   note test this first, so a tracing-off run formats nothing. *)
let traced t trace = Option.is_some trace && Sim.Span.enabled (S.spans t.sched)

(* Raise a counter to a new high-water mark (counters only add). *)
let bump_hwm c v = if v > Sim.Stats.count c then Sim.Stats.add c (v - Sim.Stats.count c)

let materialize_view t vw =
  Sim.Stats.incr t.t_ctr.n_materialized;
  Xdr.View.materialize vw

let force_args t = function
  | Materialized v -> Ok v
  | Encoded vw -> materialize_view t vw

(* Whether any argument is a pipelined reference — answered on the
   encoded bytes (a tag-byte scan) when the args are still lazy. *)
let args_have_refs = function
  | Materialized v -> Pipeline.has_refs v
  | Encoded vw -> Xdr.View.has_prefs vw

let flush_replies c = if Chanhub.out_broken c.c_reply = None then Chanhub.flush_out c.c_reply

(* Tear down the connection without notifying the sender — used when
   the sender side is already gone (its reply channel broke). *)
let remove_conn c =
  if not c.c_broken then begin
    c.c_broken <- true;
    Hashtbl.remove c.c_target.conns (Chanhub.in_key c.c_in);
    Array.iter
      (fun sh ->
        (match sh.sh_driver with
        | Some fiber -> S.kill c.c_target.sched fiber
        | None -> ());
        Sched.Bqueue.close sh.sh_work)
      c.c_shards;
    S.Group.terminate c.c_target.sched c.c_execs;
    let reg = c.c_target.t_registry in
    Hashtbl.iter (fun _ ws -> List.iter (Pipeline.Registry.cancel reg) ws) c.c_parked
  end

let conn_group c = c.c_execs

(* Receiver-initiated break proper: flush replies already produced
   (calls answered before the break are unaffected — the paper's
   synchronous break), then Reset the sender. *)
let do_break c reason =
  if not c.c_broken then begin
    flush_replies c;
    Chanhub.break_in c.c_in ~reason;
    remove_conn c
  end

let break_conn c ~reason =
  if c.c_inflight > 0 then begin
    (* A call is mid-execution (typically the one whose handler is
       requesting the break): wait for its reply — with several lanes,
       for every in-flight call's reply — to be emitted first. *)
    if c.c_breaking = None then c.c_breaking <- Some reason
  end
  else do_break c reason

(* Back-pressure: a slow/unreachable caller bounds the reply channel's
   in-flight bytes, parking the driver fiber (in ordered mode) instead
   of growing the unacked queue without limit. Outside fiber context,
   or with an unbounded reply window, the first offer is admitted. *)
let rec offer_reply c item =
  match Chanhub.offer c.c_reply item with
  | Ok true -> Chanhub.commit c.c_reply
  | Ok false -> if not c.c_broken then offer_reply c item
  | Error _ -> ()

(* Replies leave in call order: a reply's channel position is its
   call's seq. *)
let emit_reply c ~kind ~trace ~elide outcome =
  if not c.c_broken then begin
    let t = c.c_target in
    (* The reply carries the call's trace id only while tracing is on,
       so the off-path reply encoding stays the compact pair. *)
    let wire_trace = if Sim.Span.enabled (S.spans t.sched) then trace else None in
    let item =
      match (kind, outcome) with
      | Wire.Send, Wire.W_normal _ -> Wire.send_ok_item ~trace:wire_trace
      | Wire.Call, Wire.W_normal _ when elide ->
          (* The value travels by handoff push (docs/HANDOFF.md); the
             reply only needs to preserve stream ordering and synch.
             Abnormal outcomes always ship in full — the caller turns
             them into its fallback push. *)
          Sim.Stats.incr (counter t "handoff_elided_replies");
          Wire.send_ok_item ~trace:wire_trace
      | (Wire.Call | Wire.Send), _ -> Wire.reply_item ~trace:wire_trace outcome
    in
    span t ~kind:Sim.Span.Reply ~trace ~stream:c.c_stable ();
    offer_reply c item
  end

(* The sending stream's identity across restarts: its reply-channel
   label minus the trailing incarnation number, qualified by source
   address. This is what a resubmitted call's cid is stable within. *)
let stable_stream_id (key : Chanhub.key) =
  Wire.stable_stream_id ~src:key.Chanhub.src ~reply_label:key.Chanhub.meta

(* Hand a call's registry waiters to its connection, which cancels
   them when it goes away. A dedup lane may still drain its queue after
   the break; such a call is an orphan before it parks. *)
let park c cid ws =
  if c.c_broken then List.iter (Pipeline.Registry.cancel c.c_target.t_registry) ws
  else Hashtbl.replace c.c_parked cid ws

(* Whether [stream], a stable stream id, was sent to a group on this
   node: only then can its outcomes ever land in the node's registry. *)
let serves t stream =
  Wire.stream_id_dst stream = Some (Chanhub.hub_addr t.hub)
  &&
  match Wire.stream_id_group stream with
  | Some g -> Pipeline.Registry.in_scope t.t_registry g
  | None -> false

(* Promise pipelining (docs/PIPELINE.md): substitute {!Xdr.Pref}
   placeholders among [args] with the produced outcomes from the
   node's registry, parking the call until every referenced outcome
   has landed; a parked call belongs to its connection, in every group,
   and dies with it. [k] receives the fully substituted arguments; if
   any producer terminated abnormally the call completes through
   [reply] with the corresponding abnormal outcome and [k] never runs. *)
let resolve_refs c ~cid ~trace ~args ~handoffs ~reply k =
  let t = c.c_target in
  (* Nothing before the handler needed the decoded structure, so it is
     forced only now, immediately before dispatch — and on this
     (scheduler) domain, never a worker's. Whether refs are present is
     asked of the lazy args, so the hot path walks no tree. *)
  match force_args t args with
  | Error reason -> reply (Wire.W_failure ("malformed call arguments: " ^ reason))
  | Ok v when not (args_have_refs args) -> k v
  | Ok args ->
    let reg = t.t_registry in
    let fail reason =
      Sim.Stats.incr (counter t "ref_failures");
      reply (Wire.W_failure reason)
    in
    let find (r : Xdr.promise_ref) =
      Pipeline.Registry.find reg ~stream:r.Xdr.ps_stream ~call:r.Xdr.ps_call
    in
    (* The empty stream id names this call's own stream
       ({!Wire.own_stream}). Mapped here, once, so every check below
       sees the stable id; a ref spelled both ways is one ref. *)
    let own (r : Xdr.promise_ref) =
      if String.equal r.Xdr.ps_stream Wire.own_stream then { r with Xdr.ps_stream = c.c_stable }
      else r
    in
    let refs =
      List.rev
        (List.fold_left
           (fun acc r ->
             let r = own r in
             if List.mem r acc then acc else r :: acc)
           [] (Pipeline.refs args))
    in
    if handoffs <> [] && traced t trace then
      span t ~kind:Sim.Span.Handoff ~trace ~stream:c.c_stable ~call:cid
        ~note:(Printf.sprintf "%d foreign ref(s) accepted" (List.length handoffs))
        ();
    (* The registry is the node's: a reference resolves here only if
       some port group on this node produces it (the stable stream id
       names this node and the producing group), or if another node
       pushes it (docs/HANDOFF.md) — which this call's own handoff
       annotations say. Anything else could park forever; reject it. *)
    let reachable (r : Xdr.promise_ref) =
      find r <> None
      || List.exists
           (fun (h : Wire.handoff) ->
             String.equal h.Wire.ho_stream r.Xdr.ps_stream && h.Wire.ho_call = r.Xdr.ps_call)
           handoffs
      || serves t r.Xdr.ps_stream
    in
    if not (List.for_all reachable refs) then
      fail "pipelined reference to a call no group on this node runs; claim it instead"
    else if
      (* A reference to a call on this same stream at our cid or later
         can never resolve (calls execute in stream order), so parking
         would deadlock the stream on itself. *)
      List.exists (fun r -> String.equal r.Xdr.ps_stream c.c_stable && r.Xdr.ps_call >= cid) refs
    then fail "pipelined reference to a not-earlier call on the same stream"
    else begin
      let proceed () =
        (* All referenced outcomes are in the registry now. The first
           abnormal producer (in argument order) decides the call's
           fate; otherwise every reference is replaced by its produced
           (possibly field-projected) value. *)
        let abnormal = ref None in
        List.iter
          (fun r ->
            if !abnormal = None then
              match find r with
              | Some (Wire.W_normal _) | None -> ()
              | Some ((Wire.W_signal _ | Wire.W_unavailable _ | Wire.W_failure _) as o) ->
                  abnormal := Some o)
          refs;
        match !abnormal with
        | Some o ->
            Sim.Stats.incr (counter t "ref_failures");
            reply o
        | None -> (
            let lookup (r : Xdr.promise_ref) =
              match find (own r) with
              | Some (Wire.W_normal v) -> Pipeline.project ~field:r.Xdr.ps_field v
              | Some _ | None -> Error "referenced outcome disappeared" (* unreachable *)
            in
            match Pipeline.substitute ~lookup args with
            | Ok args' ->
                Sim.Stats.add (counter t "ref_substitutions") (List.length refs);
                if traced t trace then
                  span t ~kind:Sim.Span.Substitute ~trace ~stream:c.c_stable ~call:cid
                    ~note:(Printf.sprintf "%d ref(s)" (List.length refs))
                    ();
                k args'
            | Error reason -> fail reason)
      in
      let missing = List.filter (fun r -> find r = None) refs in
      if
        (* A missing outcome at or below its stream's eviction mark was
           already produced and forgotten: it will never be re-recorded
           (a resubmitted producer re-executes under a new record, but
           nothing tells this call to wait for it), so parking would
           hang the dependent call forever. *)
        List.exists
          (fun (r : Xdr.promise_ref) ->
            Pipeline.Registry.evicted reg ~stream:r.Xdr.ps_stream ~call:r.Xdr.ps_call)
          missing
      then fail "referenced outcome already evicted from the pipeline registry; claim it instead"
      else if missing = [] then proceed ()
      else begin
        let remaining = ref (List.length missing) in
        let aborted = ref false in
        let deliver _o =
          (* Fires when a producer's outcome lands. A parked call dies
             with its conn: its waiters sit in [c_parked], which
             [remove_conn] cancels. *)
          if not !aborted then begin
            decr remaining;
            if !remaining = 0 then begin
              Hashtbl.remove c.c_parked cid;
              proceed ()
            end
          end
        in
        let rec register acc = function
          | [] -> Ok acc
          | (r : Xdr.promise_ref) :: rest -> (
              match
                Pipeline.Registry.await reg ~stream:r.Xdr.ps_stream ~call:r.Xdr.ps_call deliver
              with
              | `Fired -> register acc rest
              | `Parked w -> register (w :: acc) rest
              | `Refused -> Error acc)
        in
        match register [] missing with
        | Error registered ->
            (* Nothing parked after all: release the waiter slots
               already taken, and don't count an aborted park. *)
            aborted := true;
            List.iter (Pipeline.Registry.cancel reg) registered;
            fail "pipeline dependency table full"
        | Ok registered ->
            Sim.Stats.incr (counter t "parked_calls");
            if traced t trace then
              span t ~kind:Sim.Span.Park ~trace ~stream:c.c_stable ~call:cid
                ~note:(Printf.sprintf "%d outcome(s) missing" (List.length missing))
                ();
            park c cid registered
      end
    end

(* Reserved ports of the third-party handoff protocol
   (docs/HANDOFF.md). Both are handled here, inside the normal work
   path — so they keep their place in the stream's reply order — and
   {e before} any dedup lookup, so a resubmitted notice re-runs and
   re-forwards (the push side absorbs the duplicate). *)
let handoff_notice_port = Wire.handoff_notice_port

let handoff_redeem_port = Wire.handoff_redeem_port

(* Validate a notice/redeem item and hand the node's registry to [k].
   The registry checks mirror resolve_refs: a stream no group on this
   node serves, or an evicted outcome, can never be served. *)
let with_handoff_target c ~what ~check_epoch ~args ~reply k =
  let t = c.c_target in
  match force_args t args with
  | Error reason -> reply (Wire.W_failure (Printf.sprintf "malformed %s: %s" what reason))
  | Ok v -> (
      match Wire.parse_handoff v with
      | Error e -> reply (Wire.W_failure e)
      | Ok ho ->
          let refuse reason =
            Sim.Stats.incr (counter t "handoff_refusals");
            reply (Wire.W_unavailable (Printf.sprintf "%s refused: %s" what reason))
          in
          if check_epoch && ho.Wire.ho_epoch <> Chanhub.handoff_epoch t.hub then
            refuse
              (Printf.sprintf "epoch mismatch (theirs %d, ours %d)" ho.Wire.ho_epoch
                 (Chanhub.handoff_epoch t.hub))
          else
            let reg = t.t_registry in
            if not (serves t ho.Wire.ho_stream) then refuse "stream feeds no group on this node"
            else if Pipeline.Registry.evicted reg ~stream:ho.Wire.ho_stream ~call:ho.Wire.ho_call
            then refuse "outcome already evicted"
            else k reg ho)

(* "The call at (stream, call) on your node was forwarded to [owner]:
   push its outcome there." Accepting replies normally (a [Send]'s ok
   marker); the push fires as soon as the outcome exists. *)
let handle_handoff_notice c ~trace ~args ~reply =
  let t = c.c_target in
  with_handoff_target c ~what:"handoff" ~check_epoch:true ~args ~reply (fun reg ho ->
      let push o =
        if traced t trace then
          span t ~kind:Sim.Span.Handoff ~trace ~stream:ho.Wire.ho_stream ~call:ho.Wire.ho_call
            ~note:(Printf.sprintf "push -> n%d" ho.Wire.ho_owner)
            ();
        Chanhub.handoff_push t.hub ~dst:ho.Wire.ho_owner ~stream:ho.Wire.ho_stream
          ~call:ho.Wire.ho_call o
      in
      match
        Pipeline.Registry.await reg ~stream:ho.Wire.ho_stream ~call:ho.Wire.ho_call push
      with
      | `Fired | `Parked _ -> reply (Wire.W_normal Xdr.Unit)
      | `Refused ->
          Sim.Stats.incr (counter t "handoff_refusals");
          reply (Wire.W_unavailable "handoff refused: dependency table full"))

(* Claim-by-reference: reply with the outcome of (stream, call) itself.
   The proxy-equivalent fallback a caller uses when its handoff was
   refused after the producer's reply was already elided. *)
let handle_handoff_redeem c ~trace:_ ~args ~reply =
  with_handoff_target c ~what:"redeem" ~check_epoch:false ~args ~reply (fun reg ho ->
      match
        Pipeline.Registry.await reg ~stream:ho.Wire.ho_stream ~call:ho.Wire.ho_call reply
      with
      | `Fired | `Parked _ -> ()
      | `Refused ->
          Sim.Stats.incr (counter (c.c_target) "handoff_refusals");
          reply (Wire.W_unavailable "redeem refused: dependency table full"))

(* Execute one call, or don't: with dedup on, a call-id already seen is
   never re-executed — its outcome in the node's registry is replayed,
   or joined if the first execution is still running. This is what
   turns the sender's resubmission protocol into cross-incarnation
   exactly-once execution. Pipelined arguments are substituted (parking
   the call if needed) before the handler dispatches; every Call
   outcome, and in a dedup group every Send outcome, is recorded in the
   registry. *)
let exec_call c ~seq ~cid ~trace ~port ~kind ~args ~handoff ~reply =
  let t = c.c_target in
  if String.equal port handoff_notice_port then handle_handoff_notice c ~trace ~args ~reply
  else if String.equal port handoff_redeem_port then
    handle_handoff_redeem c ~trace ~args ~reply
  else begin
    let reg = t.t_registry in
    let recorded outcome =
      Pipeline.Registry.record reg ~stream:c.c_stable ~call:cid outcome;
      reply outcome
    in
    let start ~reply args =
      span t ~kind:Sim.Span.Exec_begin ~trace ~stream:c.c_stable ~call:cid ~note:port ();
      t.dispatch c ~seq ~port ~kind ~args ~reply:(fun outcome ->
          span t ~kind:Sim.Span.Exec_end ~trace ~stream:c.c_stable ~call:cid ();
          reply outcome)
    in
    if not t.t_dedup then begin
      let reply = match kind with Wire.Call -> recorded | Wire.Send -> reply in
      resolve_refs c ~cid ~trace ~args ~handoffs:handoff ~reply (start ~reply)
    end
    else begin
      let id = (c.c_stable, cid) in
      (* Replay a recorded outcome, join a running execution, or
         [otherwise ()]. Decided before the refs are resolved, so a
         duplicate of a running call never touches them, and again where
         the handler would start: while this call was parked, its
         original may have finished or begun. *)
      let decide ~otherwise =
        match Pipeline.Registry.find reg ~stream:c.c_stable ~call:cid with
        | Some outcome ->
            Sim.Stats.incr (counter t "target_dedup_replays");
            span t ~kind:Sim.Span.Dedup_replay ~trace ~stream:c.c_stable ~call:cid ();
            reply outcome
        | None when Hashtbl.mem t.t_running id -> (
            let joined outcome =
              Hashtbl.remove c.c_parked cid;
              reply outcome
            in
            match Pipeline.Registry.await reg ~stream:c.c_stable ~call:cid joined with
            | `Parked w ->
                Sim.Stats.incr (counter t "target_dedup_joins");
                span t ~kind:Sim.Span.Dedup_join ~trace ~stream:c.c_stable ~call:cid ();
                park c cid [ w ]
            | `Fired -> ()
            | `Refused ->
                Sim.Stats.incr (counter t "target_dedup_join_refusals");
                reply (Wire.W_unavailable "dedup join refused: dependency table full"))
        | None -> otherwise ()
      in
      decide ~otherwise:(fun () ->
          resolve_refs c ~cid ~trace ~args ~handoffs:handoff ~reply:recorded (fun args ->
              decide ~otherwise:(fun () ->
                  Hashtbl.replace t.t_running id ();
                  start args ~reply:(fun outcome ->
                      Hashtbl.remove t.t_running id;
                      recorded outcome))))
    end
  end

(* The one reply route: outcomes are released strictly by call
   sequence, whatever order lanes, unordered execution or sheds produce
   them in. The next reply due leaves at once. *)
let release_in_order c =
  let rec go () =
    match Hashtbl.find_opt c.c_done c.c_next_reply with
    | Some (kind, trace, elide, outcome) ->
        Hashtbl.remove c.c_done c.c_next_reply;
        emit_reply c ~kind ~trace ~elide outcome;
        c.c_next_reply <- c.c_next_reply + 1;
        go ()
    | None -> ()
  in
  go ()

(* Sequential execution of one lane's calls: the driver parks until
   the handler replies before taking the next piece of work. With one
   shard this is the paper's per-stream order; with several, each lane
   keeps that discipline for its own partition of the key space while
   lanes run concurrently (docs/SHARDING.md). With [t_ordered = false]
   (the override hinted at in §2.1), calls are dispatched as they
   arrive and run concurrently. Either way replies are parked in
   [c_done] so they leave in call order. *)
let driver_loop c sh =
  let t = c.c_target in
  let overhead = Chanhub.hub_recv_overhead t.hub in
  let park_reply ~seq ~kind ~trace ~elide o =
    if not c.c_broken then begin
      Hashtbl.replace c.c_done seq (kind, trace, elide, o);
      release_in_order c
    end
  in
  let rec loop () =
    match Sched.Bqueue.deq sh.sh_work with
    | Overhead ->
        if overhead > 0.0 then S.sleep t.sched overhead;
        loop ()
    | Exec _ when c.c_breaking <> None || (c.c_broken && not t.t_dedup) ->
        (* A break is pending: work queued behind the in-flight calls
           is discarded, as it would be by the break itself. A lane that
           broke its own conn mid-loop still drains its queue; without
           dedup those calls are orphans before they start. *)
        loop ()
    | Exec { seq; cid; trace; port; kind; args; handoff; elide } when not t.t_ordered ->
        exec_call c ~seq ~cid ~trace ~port ~kind ~args ~handoff
          ~reply:(park_reply ~seq ~kind ~trace ~elide);
        loop ()
    | Exec { seq; cid; trace; port; kind; args; handoff; elide } -> (
        c.c_inflight <- c.c_inflight + 1;
        let outcome =
          S.suspend t.sched (fun w ->
              exec_call c ~seq ~cid ~trace ~port ~kind ~args ~handoff ~reply:(fun o ->
                  ignore (S.wake w o : bool)))
        in
        c.c_inflight <- c.c_inflight - 1;
        park_reply ~seq ~kind ~trace ~elide outcome;
        match c.c_breaking with
        | Some reason when c.c_inflight = 0 ->
            c.c_breaking <- None;
            do_break c reason
        | Some _ | None -> loop ())
    | exception Sched.Bqueue.Closed -> ()
  in
  loop ()

let accept t in_chan =
  let key = Chanhub.in_key in_chan in
  let reply =
    Chanhub.connect t.hub ~dst:key.Chanhub.src ~label:key.Chanhub.meta ~meta:"" t.reply_config
  in
  let c =
    {
      c_target = t;
      c_in = in_chan;
      c_reply = reply;
      c_stable = stable_stream_id key;
      c_shards =
        Array.init t.t_shards (fun _ ->
            { sh_work = Sched.Bqueue.create t.sched; sh_driver = None });
      c_ports = Wire.port_table ();
      c_broken = false;
      c_inflight = 0;
      c_breaking = None;
      c_execs = S.Group.create t.sched;
      c_parked = Hashtbl.create 8;
      c_done = Hashtbl.create 8;
      c_next_reply = 0;
      c_seq2cid = Hashtbl.create 8;
    }
  in
  Hashtbl.replace t.conns key c;
  (* If either direction dies — the sender Reset the call channel (a
     restart) or the reply path broke — drop the connection; the
     sender side has already broken or forgotten the stream. *)
  Chanhub.on_in_break in_chan (fun _reason -> remove_conn c);
  Chanhub.on_out_break reply (fun _reason -> remove_conn c);
  (* Overload signalling (docs/OVERLOAD.md): acks on the call channel
     carry the deepest lane's queue depth relative to the shed mark, so
     adaptive senders cut their window before sheds begin. *)
  (match t.t_shed with
  | None -> ()
  | Some hwm ->
      Chanhub.set_pressure in_chan (fun () ->
          let depth =
            Array.fold_left (fun acc sh -> max acc (Sched.Bqueue.length sh.sh_work)) 0 c.c_shards
          in
          if depth >= hwm then 2 else if 2 * depth >= hwm then 1 else 0));
  (* Ack-tied registry release (docs/PIPELINE.md): once the reply
     channel's cumulative ack covers a Call's reply item, no live
     stream can still claim or reference that outcome through this
     connection — mark it preferentially evictable. *)
  Chanhub.on_ack reply (fun first last ->
      for seq = first to last do
        match Hashtbl.find_opt c.c_seq2cid seq with
        | Some cid ->
            Hashtbl.remove c.c_seq2cid seq;
            Pipeline.Registry.mark_releasable t.t_registry ~stream:c.c_stable ~call:cid
        | None -> ()
      done);
  Chanhub.set_deliver in_chan (fun first items ->
      if not c.c_broken then begin
        (* The cost model charges kernel overhead once per arriving
           network message; every lane the message feeds charges it
           before that message's calls so the sleep delays them all,
           while concurrent lanes absorb it in parallel. Lane 0 always
           pays (preserving the single-lane behaviour exactly). *)
        Sched.Bqueue.enq c.c_shards.(0).sh_work Overhead;
        let touched = Array.make t.t_shards false in
        touched.(0) <- true;
        List.iteri
          (fun k item ->
            if not c.c_broken then
              match Wire.parse_call_view item with
              | Ok cv -> (
                  (* Ports resolve in delivery order, before anything
                     can drop the call, so this table stays in step with
                     the sender's. *)
                  match Wire.resolve_port c.c_ports cv.Wire.cv_port with
                  | None ->
                      Sim.Stats.incr (counter t "target_bad_port_refs");
                      break_conn c ~reason:"call names a port the channel never defined"
                  | Some port ->
                  let seq = first + k in
                  let cid = Option.value cv.Wire.cv_cid ~default:seq in
                  let kind = cv.Wire.cv_kind in
                  let trace = cv.Wire.cv_trace in
                  (* The shard router hashes the first argument, so with
                     several lanes the value is materialised here; on a
                     single lane the arguments stay encoded and ride the
                     work queue as a view. *)
                  let routed =
                    if t.t_shards = 1 then (
                      Sim.Stats.incr t.t_ctr.n_lazy_args;
                      Ok (Encoded cv.Wire.cv_args, 0))
                    else
                      match materialize_view t cv.Wire.cv_args with
                      | Ok v -> Ok (Materialized v, default_shard_key v mod t.t_shards)
                      | Error reason -> Error reason
                  in
                  match routed with
                  | Error reason -> break_conn c ~reason
                  | Ok (args, s) ->
                  let lane = c.c_shards.(s) in
                  let shed =
                    (* Load-shedding (docs/OVERLOAD.md): a lane at its
                       high-water mark rejects the call with the paper's
                       [unavailable] — a typed, immediately-claimable
                       failure instead of an unbounded queue. Resubmits
                       are exempt: the original may already have
                       executed, so the caller must reach the dedup
                       cache, not be turned away. The call never touches
                       exec_call — no cache entry, no registry record —
                       so at-most-once execution is untouched. *)
                    match t.t_shed with
                    | Some hwm
                      when Sched.Bqueue.length lane.sh_work >= hwm
                           && not cv.Wire.cv_resubmit ->
                        true
                    | Some _ | None -> false
                  in
                  if shed then begin
                    Sim.Stats.incr t.t_ctr.n_sheds;
                    if traced t trace then
                      span t ~kind:Sim.Span.Shed ~trace ~stream:c.c_stable ~call:cid
                        ~note:
                          (Printf.sprintf "lane %d depth %d" s (Sched.Bqueue.length lane.sh_work))
                        ();
                    Hashtbl.replace c.c_done seq
                      (kind, trace, false, Wire.W_unavailable "overloaded: call shed by receiver");
                    release_in_order c
                  end
                  else begin
                  if not touched.(s) then begin
                    touched.(s) <- true;
                    Sched.Bqueue.enq lane.sh_work Overhead
                  end;
                  if traced t trace then
                    span t ~kind:Sim.Span.Dispatch ~trace ~stream:c.c_stable ~call:cid
                      ~note:(Printf.sprintf "lane %d/%d" s t.t_shards)
                      ();
                  (* Elided calls skip the ack-tied release map: the
                     reply carries no outcome, so its ack proves
                     nothing about who may still redeem the result. A
                     dedup group records Send outcomes too, so their
                     acks release them as well. *)
                  if (kind = Wire.Call || t.t_dedup) && not cv.Wire.cv_elide then
                    Hashtbl.replace c.c_seq2cid seq cid;
                  Sched.Bqueue.enq lane.sh_work
                    (Exec
                       {
                         seq;
                         cid;
                         trace;
                         port;
                         kind;
                         args;
                         handoff = cv.Wire.cv_handoff;
                         elide = cv.Wire.cv_elide;
                       });
                  if t.t_shards > 1 then begin
                    Sim.Stats.incr t.t_ctr.n_shard_dispatches;
                    t.t_dispatch_counts.(s) <- t.t_dispatch_counts.(s) + 1;
                    bump_hwm t.t_ctr.n_shard_hwm (Sched.Bqueue.length lane.sh_work);
                    let mx = Array.fold_left max 0 t.t_dispatch_counts in
                    let mn = Array.fold_left min max_int t.t_dispatch_counts in
                    bump_hwm t.t_ctr.n_shard_imbalance (mx - mn)
                  end
                  end)
              | Error reason -> break_conn c ~reason)
          items
      end);
  Array.iteri
    (fun k sh ->
      let name =
        if t.t_shards = 1 then Printf.sprintf "target:%s<-%d" t.t_gid key.Chanhub.src
        else Printf.sprintf "target:%s<-%d#%d" t.t_gid key.Chanhub.src k
      in
      sh.sh_driver <- Some (S.spawn t.sched ~daemon:true ~name (fun () -> driver_loop c sh)))
    c.c_shards

let create hub ~gid ?(config = Group_config.default) dispatch =
  if config.Group_config.shards <= 0 then
    invalid_arg "Target.create: shards must be positive";
  let sched = Chanhub.hub_sched hub in
  let counter = Sim.Stats.counter (S.stats sched) in
  let t =
    {
      hub;
      sched;
      t_ctr =
        {
          n_lazy_args = counter "target_lazy_args";
          n_materialized = counter "target_args_materialized";
          n_sheds = counter "target_sheds";
          n_shard_dispatches = counter "shard_dispatches";
          n_shard_hwm = counter "shard_queue_hwm";
          n_shard_imbalance = counter "shard_imbalance";
        };
      t_gid = gid;
      reply_config = config.Group_config.reply_config;
      t_ordered = config.Group_config.ordered;
      t_dedup = config.Group_config.dedup;
      t_shards = config.Group_config.shards;
      t_shed = config.Group_config.shed_hwm;
      t_dispatch_counts = Array.make config.Group_config.shards 0;
      t_registry = Chanhub.outcomes hub;
      t_running = Hashtbl.create (if config.Group_config.dedup then 16 else 1);
      dispatch;
      conns = Hashtbl.create 8;
      closed = false;
    }
  in
  (* References to this group's calls resolve anywhere on the node. *)
  Pipeline.Registry.add_scope t.t_registry gid;
  (* Receiving a handoff push needs no per-group state, but the hub
     only listens once someone on this node can be an owner — any port
     group (or guardian) being created is that signal. *)
  Chanhub.handoff_listen hub;
  Chanhub.on_connect hub ~label:gid (fun in_chan -> accept t in_chan);
  t

let close t =
  if not t.closed then begin
    t.closed <- true;
    Chanhub.remove_acceptor t.hub ~label:t.t_gid;
    let live = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter (fun c -> break_conn c ~reason:"port group closed") live
  end

module S = Sched.Scheduler
module SE = Cstream.Stream_end
module W = Cstream.Wire

type ('a, 'r, 'e) h = {
  h_sig : ('a, 'r, 'e) Sigs.hsig;
  h_stream : SE.t;
  h_sched : S.t;
}

let bind agent ~dst ~gid hs =
  { h_sig = hs; h_stream = Agent.stream_to agent ~dst ~gid; h_sched = Agent.sched agent }

let bind_ref agent pref hs =
  let hs = { hs with Sigs.hname = pref.Sigs.pr_port } in
  bind agent ~dst:pref.Sigs.pr_addr ~gid:pref.Sigs.pr_group hs

let hsig h = h.h_sig

let stream h = h.h_stream

let decode_outcome (hs : ('a, 'r, 'e) Sigs.hsig) (w : W.routcome) : ('r, 'e) Promise.outcome =
  match w with
  | W.W_normal v -> (
      match Xdr.decode hs.Sigs.res_c v with
      | Ok r -> Promise.Normal r
      | Error reason -> Promise.Failure ("could not decode: " ^ reason))
  | W.W_signal (sig_name, payload) -> (
      match hs.Sigs.sig_c.Sigs.dec_sig (sig_name, payload) with
      | Ok e -> Promise.Signal e
      | Error reason -> Promise.Failure ("could not decode signal: " ^ reason))
  | W.W_unavailable reason -> Promise.Unavailable reason
  | W.W_failure reason -> Promise.Failure reason

(* Put one already-encoded call on the stream: wounded-fiber check,
   stream-broken check. On success returns the stable call-id and the
   call's causal trace id, and [on_reply] will fire exactly once. *)
let start_encoded ?handoff ?elide h ~kind ~args ~on_reply =
  if S.wounded h.h_sched then
    (* "It cannot make any remote calls at such a point" (§4.2). *)
    raise S.Terminated;
  match SE.call ?handoff ?elide h.h_stream ~port:h.h_sig.Sigs.hname ~kind ~args ~on_reply with
  | Ok ids -> ids
  | Error reason -> raise (Promise.Unavailable_exn reason)

let encode h arg =
  match Xdr.encode h.h_sig.Sigs.arg_c arg with
  | Error reason -> raise (Promise.Failure_exn ("encoding failed: " ^ reason))
  | Ok args -> args

let start_call h ~kind arg ~on_reply = start_encoded h ~kind ~args:(encode h arg) ~on_reply

(* A promise born here can be piped into a later call on the same node
   (remember which call produces it), forwarded to another node
   (remember the home stream), and claimed under tracing (stamp the
   call's trace id so the claim edge lands in its timeline). *)
let stamp_origin h p (cid, tid) =
  Promise.set_origin p
    { Promise.og_stream = SE.stable_id h.h_stream; og_call = cid; og_dst = SE.dst h.h_stream };
  Promise.set_trace p tid;
  Promise.set_home p h.h_stream

(* Issue one call whose result is a promise. With [elide] the receiver
   strips the normal result from the reply, so the promise's typed
   state is only ever a deferred-result marker (or a real abnormal
   outcome). *)
let issue ?handoff ?elide h ~args =
  let p = Promise.create h.h_sched in
  if Option.value elide ~default:false then Promise.set_elided p;
  let ids =
    start_encoded ?handoff ?elide h ~kind:W.Call ~args ~on_reply:(function
      | W.W_normal _ when Promise.elided p ->
          (* the elision marker, not a value — the real result lives
             only in the producer's registry *)
          Promise.resolve p
            (Promise.Failure "result deferred (Remote.Call.defer_result): pipe it, do not claim")
      | w ->
          Promise.put_wire p w;
          Promise.resolve p (decode_outcome h.h_sig w))
  in
  stamp_origin h p ids;
  p

(* {2 Promise pipelining (docs/PIPELINE.md)} *)

type ref_arg = {
  ar_origin : Promise.origin;
  ar_field : string option;
  ar_home : SE.t;  (* the stream the producing call went out on *)
  ar_watch : (W.routcome -> unit) -> unit;
      (* register for the producer's wire outcome — the handoff
         machinery's hook for pushing it to a foreign owner *)
  ar_elided : bool;  (* the producer's reply carries no value *)
}

type 'a arg =
  | Arg_now of 'a  (* ordinary by-value argument *)
  | Arg_ref of ref_arg
  | Arg_dead of W.routcome
      (* the producer already terminated abnormally: the dependent call
         completes with the same outcome without ever being sent *)

let arg v = Arg_now v

let ref_of_promise ~what p ~field =
  match (Promise.origin p, Promise.home p) with
  | Some og, Some home ->
      Arg_ref
        {
          ar_origin = og;
          ar_field = field;
          ar_home = home;
          ar_watch = Promise.on_wire p;
          ar_elided = Promise.elided p;
        }
  | None, _ | Some _, None ->
      invalid_arg
        (Printf.sprintf
           "Remote.%s: promise was not born from a stream call (no origin to reference)" what)

let pipe p =
  if Promise.elided p then
    (* A deferred result never has a local value; its typed state is a
       marker, so only a real abnormal wire outcome short-circuits. *)
    match Promise.wire p with
    | Some ((W.W_unavailable _ | W.W_failure _) as w) -> Arg_dead w
    | Some (W.W_normal _ | W.W_signal _) | None -> ref_of_promise ~what:"pipe" p ~field:None
  else
    match Promise.peek p with
    | Some (Promise.Normal v) -> Arg_now v
    | Some (Promise.Unavailable r) -> Arg_dead (W.W_unavailable r)
    | Some (Promise.Failure r) -> Arg_dead (W.W_failure r)
    | Some (Promise.Signal _) | None ->
        (* A ready signal still goes by reference: its wire encoding was
           recorded at the receiver, which propagates it to the dependent
           call — we cannot re-encode a decoded ['e] here. *)
        ref_of_promise ~what:"pipe" p ~field:None

let pipe_field (p : _ Promise.t) ~field =
  if Promise.elided p then
    match Promise.wire p with
    | Some ((W.W_unavailable _ | W.W_failure _) as w) -> Arg_dead w
    | Some (W.W_normal _ | W.W_signal _) | None ->
        ref_of_promise ~what:"pipe_field" p ~field:(Some field)
  else
    match Promise.peek p with
    | Some (Promise.Unavailable r) -> Arg_dead (W.W_unavailable r)
    | Some (Promise.Failure r) -> Arg_dead (W.W_failure r)
    | Some (Promise.Normal _ | Promise.Signal _) | None ->
        ref_of_promise ~what:"pipe_field" p ~field:(Some field)

(* The dependent call of a pipelined reference to call [call] of
   [stream]. *)
let issue_ref ?handoff h ~stream ~call ~field =
  let args = Xdr.Pref { Xdr.ps_stream = stream; ps_call = call; ps_field = field } in
  let p = issue ?handoff h ~args in
  Sim.Stats.incr (Sim.Stats.counter (S.stats h.h_sched) "pipelined_calls");
  p

let flush h = SE.flush h.h_stream

let synch h = SE.synch h.h_stream

(* {2 Retry-on-unavailable (docs/OVERLOAD.md)} *)

type retry_policy = {
  retry_attempts : int;
  retry_base : float;
  retry_factor : float;
  retry_max_delay : float;
  retry_jitter : float;
}

let default_retry_policy =
  {
    retry_attempts = 4;
    retry_base = 5e-3;
    retry_factor = 2.0;
    retry_max_delay = 0.5;
    retry_jitter = 0.2;
  }

let retry_delay policy rng ~attempt =
  let raw = policy.retry_base *. (policy.retry_factor ** float_of_int (attempt - 1)) in
  let capped = Float.min raw policy.retry_max_delay in
  (* Jitter decorrelates callers shed by the same overloaded lane —
     a synchronized retry herd would just be shed again. Drawn from an
     RNG split off the scheduler's so runs replay from the seed. *)
  let spread = policy.retry_jitter *. ((2.0 *. Sim.Rng.float rng 1.0) -. 1.0) in
  Float.max 0.0 (capped *. (1.0 +. spread))

(* Each attempt is a fresh call with a fresh stable call-id: a shed
   call never executed, so this is retry, not resubmission — dedup is
   not implicated and receiver-side at-most-once holds per attempt.
   (Crash-driven [restart_resubmit] is the opposite: same cid, because
   the original may have executed.) The promise carries the first
   attempt's trace id but no origin: piping it would mint a reference
   to a possibly-shed, never-executed call. *)
let issue_retry ?(policy = default_retry_policy) ?deadline h arg =
  if policy.retry_attempts <= 0 then
    invalid_arg "Remote.Call.with_retry: retry_attempts must be positive";
  let sched = h.h_sched in
  let p = Promise.create sched in
  let rng = Sim.Rng.split (S.rng sched) in
  let counter name = Sim.Stats.counter (S.stats sched) name in
  let resolve w = Promise.resolve p (decode_outcome h.h_sig w) in
  let rec attempt n =
    let on_reply = function
      | W.W_unavailable reason -> next n reason
      | w ->
          if n > 1 then Sim.Stats.incr (counter "remote_retry_successes");
          resolve w
    in
    match
      try `Issued (start_call h ~kind:W.Call arg ~on_reply)
      with Promise.Unavailable_exn reason -> `Refused reason
    with
    | `Issued ((_ : int), tid) -> if n = 1 then Promise.set_trace p tid
    | `Refused reason -> next n reason
  and next n reason =
    let give_up () =
      Sim.Stats.incr (counter "remote_retry_exhausted");
      resolve (W.W_unavailable reason)
    in
    if n >= policy.retry_attempts then give_up ()
    else begin
      let delay = retry_delay policy rng ~attempt:n in
      let in_time =
        match deadline with None -> true | Some d -> S.now sched +. delay < d
      in
      (* A retry that cannot land before the claimant's deadline is
         pointless; surface [unavailable] now instead. *)
      if not in_time then give_up ()
      else begin
        Sim.Stats.incr (counter "remote_unavailable_retries");
        S.after sched delay (fun () ->
            attempt (n + 1);
            flush h)
      end
    end
  in
  attempt 1;
  p

(* {2 The call builder (docs/HANDOFF.md)} *)

module CH = Cstream.Chanhub

module Call = struct
  type ('a, 'r, 'e) plan = {
    c_h : ('a, 'r, 'e) h;
    c_arg : 'a arg;
    c_kind : W.kind;
    c_retry : (retry_policy option * float option) option;
    c_elide : bool;
  }

  let piped h a = { c_h = h; c_arg = a; c_kind = W.Call; c_retry = None; c_elide = false }

  let make h v = piped h (Arg_now v)

  let as_send b = { b with c_kind = W.Send }

  let with_retry ?policy ?deadline b = { b with c_retry = Some (policy, deadline) }

  let defer_result b = { b with c_elide = true }

  (* Third-party handoff (docs/HANDOFF.md): the dependent call goes
     straight to the node that will consume the result — the owner —
     with its foreign reference annotated; the producer is told (the
     notice) to push the outcome to the owner directly; and if anything
     on that path refuses, this node falls back to relaying the outcome
     itself, which is exactly the proxy the handoff replaced. *)
  let submit_handoff h r =
    let home = r.ar_home in
    let sched = h.h_sched in
    let counter name = Sim.Stats.counter (S.stats sched) name in
    let hub = SE.hub home in
    let owner = SE.dst h.h_stream in
    let stream = r.ar_origin.Promise.og_stream and call = r.ar_origin.Promise.og_call in
    let ann =
      { W.ho_owner = owner; ho_stream = stream; ho_call = call; ho_epoch = CH.handoff_epoch hub }
    in
    let p = issue_ref ~handoff:[ ann ] h ~stream ~call ~field:r.ar_field in
    Sim.Stats.incr (counter "handoff_calls");
    (match Promise.trace p with
    | Some tid ->
        let sp = S.spans sched in
        if Sim.Span.enabled sp then
          Sim.Span.record sp ~time:(S.now sched) ~kind:Sim.Span.Handoff ~trace:tid ~stream
            ~call
            ~note:(Printf.sprintf "forward -> n%d" owner)
            ()
    | None -> ());
    (* At most one outcome crosses to the owner from this node; the
       owner's registry also dedups, so racing the producer's own push
       is harmless. *)
    let pushed = ref false in
    let push w =
      if not !pushed then begin
        pushed := true;
        CH.handoff_push hub ~dst:owner ~stream ~call w
      end
    in
    (* If the producer's stream dies, nobody else can tell the owner —
       always relay abnormal outcomes from here so the forwarded call
       inherits the producer's fate instead of parking forever. *)
    r.ar_watch (function
      | (W.W_unavailable _ | W.W_failure _) as w -> push w
      | W.W_normal _ | W.W_signal _ -> ());
    let fall_back () =
      Sim.Stats.incr (counter "handoff_fallbacks");
      if r.ar_elided then
        (* the value exists only in the producer's registry: redeem it
           by reference — the proxy-equivalent round trip — and relay *)
        match
          SE.call home ~port:W.handoff_redeem_port ~kind:W.Call
            ~args:(W.handoff_value ann) ~on_reply:push
        with
        | Ok _ -> SE.flush home
        | Error reason -> push (W.W_unavailable ("handoff fallback: " ^ reason))
      else
        (* the producer's reply still comes here: relay it on arrival *)
        r.ar_watch push
    in
    (match
       SE.call home ~port:W.handoff_notice_port ~kind:W.Send
         ~args:(W.handoff_value ann)
         ~on_reply:(function
           | W.W_normal _ -> () (* accepted: the producer's node pushes *)
           | W.W_signal _ | W.W_unavailable _ | W.W_failure _ -> fall_back ())
     with
    | Ok _ ->
        (* the notice must not sit in the buffer behind nothing: the
           owner is already parked on it *)
        SE.flush home
    | Error _ ->
        (* home stream already broken: the producer's outcome can only
           be what the break resolved it to *)
        r.ar_watch push);
    p

  let submit b =
    let h = b.c_h in
    match (b.c_kind, b.c_retry, b.c_arg) with
    | W.Send, _, _ -> invalid_arg "Remote.Call.submit: a send has no promise; use detach"
    | W.Call, Some (policy, deadline), Arg_now v when not b.c_elide ->
        issue_retry ?policy ?deadline h v
    | W.Call, Some _, _ ->
        invalid_arg "Remote.Call.submit: with_retry applies only to plain by-value calls"
    | W.Call, None, Arg_now v when b.c_elide -> issue ~elide:true h ~args:(encode h v)
    | W.Call, None, Arg_now v -> issue h ~args:(encode h v)
    | W.Call, None, Arg_dead w ->
        (* "The producer's fate is the dependent's fate": complete
           abnormally right here, transmitting nothing. *)
        Promise.resolved h.h_sched (decode_outcome h.h_sig w)
    | W.Call, None, Arg_ref r ->
        (* A same-node reference resolves against that node's one
           outcome registry, whichever guardian runs either group; a
           reference to another node's result is handed off. A
           reference to an earlier call on this very stream names it by
           the empty id, which the receiver reads as the stream the
           call arrives on. *)
        let { Promise.og_stream; og_call = call; og_dst } = r.ar_origin in
        if r.ar_home == h.h_stream then issue_ref h ~stream:W.own_stream ~call ~field:r.ar_field
        else if og_dst = SE.dst h.h_stream then
          issue_ref h ~stream:og_stream ~call ~field:r.ar_field
        else submit_handoff h r

  let detach b =
    let h = b.c_h in
    match (b.c_retry, b.c_kind, b.c_arg) with
    | Some _, _, _ -> invalid_arg "Remote.Call.detach: with_retry needs a promise; use submit"
    | None, W.Send, Arg_now v -> ignore (start_call h ~kind:W.Send v ~on_reply:ignore : int * int)
    | None, W.Send, Arg_dead _ -> ()
    | None, W.Send, Arg_ref _ ->
        invalid_arg "Remote.Call.detach: a send cannot take a pipelined argument"
    | None, W.Call, Arg_now v when not b.c_elide ->
        (* The statement form: no promise. The reply is decoded and
           discarded, as §3 specifies. *)
        ignore
          (start_call h ~kind:W.Call v ~on_reply:(fun w ->
               ignore (decode_outcome h.h_sig w : _ Promise.outcome))
            : int * int)
    | None, W.Call, _ -> ignore (submit b : _ Promise.t)

  let sync b =
    let p = submit b in
    flush b.c_h;
    Promise.claim p
end

let stream_call h v = Call.(submit (make h v))

let send h v = Call.(detach (as_send (make h v)))

let rpc h v = Call.(sync (make h v))

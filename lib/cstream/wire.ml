type kind = Call | Send

type routcome =
  | W_normal of Xdr.value
  | W_signal of string * Xdr.value
  | W_unavailable of string
  | W_failure of string

let pp_routcome ppf = function
  | W_normal v -> Format.fprintf ppf "normal(%a)" Xdr.pp_value v
  | W_signal (name, v) -> Format.fprintf ppf "signal %s(%a)" name Xdr.pp_value v
  | W_unavailable reason -> Format.fprintf ppf "unavailable(%s)" reason
  | W_failure reason -> Format.fprintf ppf "failure(%s)" reason

(* The incarnation-independent identity of a sending stream, as both
   ends compute it: the reply-channel label minus its trailing
   incarnation number, qualified by the sender's address. Promise
   references ({!Xdr.Pref}) name producing calls by this string plus
   the stable call-id, so a reference minted before a crash still
   resolves after [restart_resubmit]. *)
let stable_stream_id ~src ~reply_label =
  let prefix =
    match String.rindex_opt reply_label '/' with
    | Some i -> String.sub reply_label 0 i
    | None -> reply_label
  in
  Printf.sprintf "%d|%s" src prefix

(* A stable stream id embeds the reply label "~r/<agent>/<gid>/<dst>"
   (incarnation already stripped), so the port group the stream sends
   to can be recovered: second-to-last '/'-segment, counted from the
   end so an agent name containing '/' cannot shift it. *)
let stream_id_group id =
  match String.index_opt id '|' with
  | None -> None
  | Some i -> (
      let label = String.sub id (i + 1) (String.length id - i - 1) in
      match String.split_on_char '/' label with
      | "~r" :: rest when List.length rest >= 3 -> Some (List.nth rest (List.length rest - 2))
      | _ -> None)

(* --- third-party handoff (docs/HANDOFF.md) ------------------------ *)

(* A handoff annotation rides on a call item whose arguments reference
   a result produced on another node: it tells the receiver which node
   owns the referenced outcome so the receiver can accept the foreign
   [Pref] and wait for the owner to push the value, instead of
   rejecting the reference. [ho_epoch] is the forwarding sender's
   handoff epoch — a receiver whose notion of the protocol has moved on
   refuses mismatched epochs and the sender falls back to proxying. *)
type handoff = { ho_owner : int; ho_stream : string; ho_call : int; ho_epoch : int }

let handoff_value h =
  Xdr.Record
    [
      ("o", Xdr.Int h.ho_owner);
      ("s", Xdr.Str h.ho_stream);
      ("c", Xdr.Int h.ho_call);
      ("e", Xdr.Int h.ho_epoch);
    ]

let parse_handoff v =
  let malformed () = Error (Format.asprintf "malformed handoff: %a" Xdr.pp_value v) in
  match v with
  | Xdr.Record fields -> (
      let field name = List.assoc_opt name fields in
      match (field "o", field "s", field "c", field "e") with
      | Some (Xdr.Int owner), Some (Xdr.Str stream), Some (Xdr.Int call), Some (Xdr.Int epoch)
        ->
          Ok { ho_owner = owner; ho_stream = stream; ho_call = call; ho_epoch = epoch }
      | _ -> malformed ())
  | _ -> malformed ()

(* The outcome-push item the result's producer sends directly to the
   forwarded call's new home: "(stream, call) produced this outcome".
   Carried on the reserved "~handoff" channel label. *)
let handoff_push_item ~stream ~call ov =
  Xdr.Record [ ("s", Xdr.Str stream); ("c", Xdr.Int call); ("v", ov) ]

(* The two reserved ports every pipelining-enabled port group serves:
   "push the outcome of one of your calls to a foreign owner" and
   "reply with that outcome directly" (the fallback round trip). *)
let handoff_notice_port = "~handoff"

let handoff_redeem_port = "~redeem"

let parse_handoff_push v =
  let malformed () =
    Error (Format.asprintf "malformed handoff push: %a" Xdr.pp_value v)
  in
  match v with
  | Xdr.Record fields -> (
      let field name = List.assoc_opt name fields in
      match (field "s", field "c", field "v") with
      | Some (Xdr.Str stream), Some (Xdr.Int call), Some ov -> Ok (stream, call, ov)
      | _ -> malformed ())
  | _ -> malformed ()

(* --- envelopes ------------------------------------------------------ *)

(* Call and reply items are positional lists: no field names, no kind
   string and no sequence number — an item's position on its channel is
   its seq (docs/WIRE.md §1.2). A call is

     [Int head; Str port; args; cid?; handoff?; trace?]

   with [head] a bit set: 0x01 Send, 0x02 resubmit (never shed),
   0x04 elide (reply with send-ok; the value travels by handoff), then
   one bit per optional element, present exactly when its bit is set
   and in this order — 0x08 cid (only when it differs from the
   position, as after a restart), 0x10 handoff annotations, 0x20 trace
   id. The trace id is the last element of a call or reply alike, so the
   channel layer reads it without knowing which of the two an item is. *)
let b_send, b_resubmit, b_elide, b_cid, b_handoff, b_trace = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20)

let call_bits = 0x3f

let bit b on = if on then b else 0

let call_item ?(resubmit = false) ?(handoff = []) ?(elide = false) ?cid ~trace ~port ~kind
    ~args () =
  let head =
    bit b_send (kind = Send) lor bit b_resubmit resubmit lor bit b_elide elide
    lor bit b_cid (cid <> None) lor bit b_handoff (handoff <> []) lor bit b_trace (trace <> None)
  in
  let tail = match trace with Some tid -> [ Xdr.Int tid ] | None -> [] in
  let tail = if handoff = [] then tail else Xdr.List (List.map handoff_value handoff) :: tail in
  let tail = match cid with Some cid -> Xdr.Int cid :: tail | None -> tail in
  Xdr.List (Xdr.Int head :: Xdr.Str port :: args :: tail)

(* Replies: the element count picks the form, so a [Tagged] user value
   cannot be misread. The untraced normal reply to a [Call] — the common
   case — is [[value]] and the untraced send-ok is [[]]. Every other
   reply is [[Int head; payload...; trace?]], at least two elements,
   [head] being the outcome code — 0 normal [v], 1 signal [name; v],
   2 unavailable [reason], 3 failure [reason], 4 send-ok [] — plus 0x20
   when traced. *)
let coded_reply ~trace code payload =
  match trace with
  | None -> Xdr.List (Xdr.Int code :: payload)
  | Some tid -> Xdr.List (Xdr.Int (code lor b_trace) :: (payload @ [ Xdr.Int tid ]))

let reply_item ~trace = function
  | W_normal v when trace = None -> Xdr.List [ v ]
  | W_normal v -> coded_reply ~trace 0 [ v ]
  | W_signal (name, v) -> coded_reply ~trace 1 [ Xdr.Str name; v ]
  | W_unavailable reason -> coded_reply ~trace 2 [ Xdr.Str reason ]
  | W_failure reason -> coded_reply ~trace 3 [ Xdr.Str reason ]

let send_ok_item ~trace = if trace = None then Xdr.List [] else coded_reply ~trace 4 []

(* A bare outcome outside any reply envelope: handoff pushes carry it
   and dedup byte budgets size it. *)
let outcome_value = function
  | W_normal v -> Xdr.Tagged ("n", v)
  | W_signal (name, v) -> Xdr.Tagged ("g", Xdr.Pair (Xdr.Str name, v))
  | W_unavailable reason -> Xdr.Tagged ("u", Xdr.Str reason)
  | W_failure reason -> Xdr.Tagged ("f", Xdr.Str reason)

let outcome_of_value = function
  | Xdr.Tagged ("n", v) -> Ok (W_normal v)
  | Xdr.Tagged ("g", Xdr.Pair (Xdr.Str name, v)) -> Ok (W_signal (name, v))
  | Xdr.Tagged ("u", Xdr.Str reason) -> Ok (W_unavailable reason)
  | Xdr.Tagged ("f", Xdr.Str reason) -> Ok (W_failure reason)
  | Xdr.Tagged ("o", Xdr.Unit) -> Ok (W_normal Xdr.Unit)
  | v -> Error (Format.asprintf "malformed outcome: %a" Xdr.pp_value v)

let rec last = function [ x ] -> Some x | _ :: rest -> last rest | [] -> None

(* Total over arbitrary values: the channel layer applies these to
   every item it moves, not only to well-formed envelopes. *)
let item_trace = function
  | Xdr.List (Xdr.Int head :: (_ :: _ as rest)) when head land b_trace <> 0 -> (
      match last rest with Some (Xdr.Int tid) -> Some tid | _ -> None)
  | _ -> None

(* How many optional elements a call with this head carries. *)
let n_optional head = ((head lsr 3) land 1) + ((head lsr 4) land 1) + ((head lsr 5) land 1)

(* --- lazy (view-based) parsing ------------------------------------
   The receive path (docs/WIRE.md §Lazy views): envelope elements are
   tiny and are read one by one; the argument or outcome payload — the
   only part that can be large — stays an encoded slice until a
   consumer needs it. *)

module V = Xdr.View

type call_view = {
  cv_cid : int option;
  cv_port : string;
  cv_kind : kind;
  cv_args : V.t;
  cv_trace : int option;
  cv_resubmit : bool;
  cv_handoff : handoff list;
  cv_elide : bool;
}

(* The parsers below raise [Malformed] internally, as [Xdr.Bin]'s
   decoder does, and [guard] turns it into an [Error] at every entry
   point: no result threading, so no closure per bind on the receive
   path. *)
exception Malformed of string

let get = function Ok x -> x | Error e -> raise (Malformed e)

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let guard what f vw = try Ok (f vw) with Malformed m -> Error ("malformed " ^ what ^ " item: " ^ m)

(* An unparsable handoff annotation fails the whole call: the receiver
   would otherwise mis-route a foreign reference. *)
let handoffs_of_view vw =
  match get (V.materialize vw) with
  | Xdr.List (_ :: _ as items) -> List.map (fun item -> get (parse_handoff item)) items
  | _ -> fail "handoff element is not a list of annotations"

let parse_call_view =
  guard "call" (fun vw ->
      match get (V.list_items vw) with
      | head :: port :: args :: opt ->
          let head = get (V.as_int head) and port = get (V.as_string port) in
          let n_opt = List.length opt in
          if head land lnot call_bits <> 0 then fail "unknown head bits 0x%x" head;
          if n_opt <> n_optional head then fail "head 0x%x with %d optional elements" head n_opt;
          (* The count matches the bits, so each element's position
             follows from the bits before it; the trace is last. *)
          let int_at b i =
            if head land b = 0 then None else Some (get (V.as_int (List.nth opt i)))
          in
          {
            cv_cid = int_at b_cid 0;
            cv_port = port;
            cv_kind = (if head land b_send <> 0 then Send else Call);
            cv_args = args;
            cv_trace = int_at b_trace (n_opt - 1);
            cv_resubmit = head land b_resubmit <> 0;
            cv_handoff =
              (if head land b_handoff = 0 then []
               else handoffs_of_view (List.nth opt ((head lsr 3) land 1)));
            cv_elide = head land b_elide <> 0;
          }
      | items -> fail "%d elements" (List.length items))

type reply_body =
  | R_normal of V.t | R_signal of V.t * V.t | R_unavailable of V.t | R_failure of V.t | R_send_ok

(* Only the head and trace are read: payload slices stay encoded, so a
   stale reply (already completed, e.g. after a resubmit race) costs no
   outcome decode. *)
let parse_reply_view =
  guard "reply" (fun vw ->
      match get (V.list_items vw) with
      | [] -> R_send_ok
      | [ v ] -> R_normal v
      | head :: payload -> (
          let head = get (V.as_int head) in
          let traced = head land b_trace <> 0 in
          let payload =
            if not traced then payload
            else
              match List.rev payload with
              | tid :: rev -> ignore (get (V.as_int tid) : int); List.rev rev
              | [] -> fail "head 0x%x promises a missing trace id" head
          in
          match (head land lnot b_trace, payload) with
          | 0, [ v ] when traced -> R_normal v
          | 1, [ name; v ] -> R_signal (name, v)
          | 2, [ reason ] -> R_unavailable reason
          | 3, [ reason ] -> R_failure reason
          | 4, [] -> R_send_ok
          | _ -> fail "head 0x%x with %d payload elements" head (List.length payload)))

let outcome_of_view =
  guard "reply" (function
    | R_normal v -> W_normal (get (V.materialize v))
    | R_signal (name, v) -> W_signal (get (V.as_string name), get (V.materialize v))
    | R_unavailable reason -> W_unavailable (get (V.as_string reason))
    | R_failure reason -> W_failure (get (V.as_string reason))
    | R_send_ok -> W_normal Xdr.Unit)

(* Reads the head by projection and walks to the last element only
   when the trace bit is set: an untraced item costs one small view. *)
let item_trace_view vw =
  let int_at i =
    match V.list_item vw i with Ok (Some e) -> Result.to_option (V.as_int e) | _ -> None
  in
  match V.list_length vw with
  | Ok n when n >= 2 -> (
      match int_at 0 with Some head when head land b_trace <> 0 -> int_at (n - 1) | _ -> None)
  | Ok _ | Error _ -> None

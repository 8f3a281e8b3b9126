(** Typed handler signatures.

    A port is strongly typed (§2): it names its argument type, result
    type and the exceptions it may signal, e.g.

    {v port (int) returns (real) signals (e1(char), e2) v}

    In this embedding a signature is a value of type [('a, 'r, 'e)
    hsig] packaging the port name with codecs for ['a] and ['r] and a
    {!signal_codec} for the declared-exception variant ['e]. The
    universal exceptions [unavailable] and [failure] are not part of
    ['e]; every call can raise them and they appear as the
    corresponding {!Promise.outcome} constructors. *)

(** Encodes a declared-exception variant to and from (name, payload)
    pairs on the wire. Encoding may fail (user translation code), in
    which case the call terminates with [failure] and, at the receiver,
    the stream breaks (§3). *)
type 'e signal_codec = {
  enc_sig : 'e -> (string * Xdr.value, string) result;
  dec_sig : string * Xdr.value -> ('e, string) result;
}

type nothing = |
(** Uninhabited: the ['e] of a handler with no [signals] clause. *)

val signals :
  ('e -> (string * Xdr.value, string) result) ->
  (string * Xdr.value -> ('e, string) result) ->
  'e signal_codec

val signal_case :
  name:string -> 'p Xdr.codec -> inj:('p -> 'e) -> proj:('e -> 'p option) ->
  ('e signal_codec -> 'e signal_codec)
(** Build a signal codec one case at a time, starting from
    {!empty_signals}:

    {[
      type err = No_such_user of string | Quota_exceeded
      let err_codec =
        Sigs.(empty_signals
              |> signal_case ~name:"no_such_user" Xdr.string
                   ~inj:(fun u -> No_such_user u)
                   ~proj:(function No_such_user u -> Some u | _ -> None)
              |> signal_case ~name:"quota_exceeded" Xdr.unit
                   ~inj:(fun () -> Quota_exceeded)
                   ~proj:(function Quota_exceeded -> Some () | _ -> None))
    ]} *)

val empty_signals : 'e signal_codec
(** Rejects everything; extend with {!signal_case}. *)

(** A typed handler signature: port name plus codecs. *)
type ('a, 'r, 'e) hsig = {
  hname : string;
  arg_c : 'a Xdr.codec;
  res_c : 'r Xdr.codec;
  sig_c : 'e signal_codec;
}

val hsig :
  string -> arg:'a Xdr.codec -> res:'r Xdr.codec -> ?signals_c:'e signal_codec -> unit ->
  ('a, 'r, 'e) hsig

val hsig0 : string -> arg:'a Xdr.codec -> res:'r Xdr.codec -> ('a, 'r, nothing) hsig
(** Signature of a handler with no declared signals. *)

(** {1 Port references}

    "Ports may be sent as arguments and results of remote calls" (§2).
    A {!port_ref} is the transmissible identity of a port: node
    address, group name, port name. The window-system example uses
    this to hand out per-window ports. *)

type port_ref = { pr_addr : Net.address; pr_group : string; pr_port : string }

val port_ref_codec : port_ref Xdr.codec

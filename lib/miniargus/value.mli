(** Runtime values of Mini-Argus and their external representation.

    Records and arrays are mutable and passed by sharing locally (as in
    CLU/Argus); remote transmission goes through codecs derived from
    the checked static types, so handler arguments and results travel
    by value. Promises and queues are runtime-only: the type checker
    keeps them out of handler signatures and their codecs refuse to
    encode — "promises are not legal as arguments or results" (§3). *)

type t =
  | Vunit
  | Vint of int
  | Vreal of float
  | Vbool of bool
  | Vstr of string
  | Varr of vec
  | Vrec of (string * t ref) list  (** fields sorted by name *)
  | Vpromise of (t, string * t list) Core.Promise.t
      (** the signal side carries (name, payload) *)
  | Vqueue of t Sched.Bqueue.t
  | Vport of port_ref  (** a transmissible handler reference (§2) *)

and port_ref = { vp_addr : int; vp_group : string; vp_port : string }

and vec = { mutable items : t array; mutable len : int }

(** {1 Growable arrays (CLU array essentials)} *)

val vec_of_list : t list -> vec

val vec_get : vec -> int -> t option

val vec_set : vec -> int -> t -> bool
(** [false] when the index is out of bounds. *)

val vec_addh : vec -> t -> unit

(** {1 Printing and equality} *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val equal : t -> t -> bool
(** Structural; only called on transmissible values (checker-enforced). *)

(** {1 Type-directed codecs} *)

val codec_of_ty : Types.ty -> t Xdr.codec

val args_codec : Types.ty list -> t list Xdr.codec
(** Positional tuple codec for a handler's parameter list. *)

val signal_codec : Types.signal list -> (string * t list) Core.Sigs.signal_codec
(** Codec for a declared signal set; undeclared names fail to encode
    (becoming [failure] at the guardian boundary). *)

(** Experiment E18 — the zero-copy wire path: lazy frame views
    (arguments decoded only when a handler consumes them; shed calls
    never decoded). See docs/WIRE.md. *)

type row = {
  r_mode : string;  (** "serve" or "shed" *)
  r_calls : int;
  r_time : float;  (** completion, simulated seconds *)
  r_msgs : int;  (** network messages of any kind *)
  r_bytes : int;  (** actual encoded bytes on the wire *)
  r_lazy : int;  (** calls whose args arrived as an encoded view *)
  r_forced : int;  (** argument views materialized into trees *)
  r_sheds : int;  (** calls rejected [unavailable] by the receiver *)
  r_unavail : int;  (** calls surfaced [unavailable] to the claimant *)
  r_decode_errors : int;  (** frames a receiver could not decode *)
}

val run_one : ?n:int -> mode:[ `Serve | `Shed ] -> unit -> row
(** One workload's row. Raises [Failure] if a receiver hit decode
    errors. *)

val e18_rows : ?n:int -> unit -> row list
(** The serve and shed rows, [n] calls each (default 400). Used by
    the bench JSON emitter. *)

val e18 : ?n:int -> unit -> Table.t

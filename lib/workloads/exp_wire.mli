(** Experiment E12 — the binary wire: packets per call, bytes per call
    and ack piggybacking for RPC vs stream vs send (§2's message
    economy, measured over actual encoded sizes; see docs/WIRE.md). *)

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

val calls_per_data_pkt : row -> float
(** Call + reply items per Data packet, halved — i.e. how many {e
    calls} one data packet carries on average across both directions. *)

val e12_rows : ?n:int -> unit -> row list
(** The raw measurements: every (mode × piggyback on/off) combination,
    [n] calls each (default 400). Used by the bench JSON emitter. *)

val goldens : (string * bool * int * int) list
(** The pinned E12 table at the default [n]: [(mode, piggyback, msgs,
    bytes)] per row. The wire tests, the transport byte-identity
    regression and the bench runner all gate on it. *)

val golden_mismatches : row list -> string list
(** One line per {!goldens} row that [rows] lacks or whose msgs or bytes
    differ; [[]] when every row matches. *)

val reference_payloads : (string * Xdr.value * int) list
(** The codec bench's payloads — one call item, a 16-call batch and a
    64-record grade sheet — with their pinned {!Xdr.Bin} sizes:
    [(label, value, bytes)]. The bench times them; the wire tests and
    the bench runner gate on the sizes. *)

val payload_mismatches : unit -> string list
(** One line per {!reference_payloads} entry whose encoding is not its
    pinned size; [[]] when all match. *)

val e12 : ?n:int -> unit -> Table.t

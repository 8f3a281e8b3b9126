(** Experiment E12 — the binary wire: packets per call, bytes per call
    and ack piggybacking for RPC vs stream vs send (§2's message
    economy, measured over actual encoded sizes; see docs/WIRE.md). *)

type row = {
  r_mode : string;
  r_ack_delay : float;  (** the hubs' ack hold: 0 = to the end of the scheduler turn *)
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
(** The raw measurements: every (mode × ack hold) combination — the
    default end-of-turn hold ([ack_delay = 0]) and a 1 ms hold —
    [n] calls each (default 400). Used by the bench JSON emitter. *)

val goldens : (string * float * int * int) list
(** The pinned E12 table at the default [n]: [(mode, ack_delay, msgs,
    bytes)] per row. The wire tests, the transport byte-identity
    regression and the bench runner all gate on it. *)

val golden_mismatches : row list -> string list
(** One line per {!goldens} row that [rows] lacks or whose msgs or bytes
    differ; [[]] when every row matches. *)

val envelope_goldens : (string * Xdr.value * string) list
(** The untraced call, reply and send-ok envelopes with their pinned
    {!Xdr.Bin} bytes: [(label, item, bytes)]. The wire tests and the
    bench runner both gate on it. *)

val envelope_mismatches : unit -> string list
(** One line per {!envelope_goldens} entry whose encoding differs from
    its pinned bytes; [[]] when all match. *)

val sheet_record : int -> Xdr.value
(** Record [i] of the [sheet] reference payload: a [student] record
    (name, 16 grades in 0–100, their mean) as loadbench's
    [stream_large] sends it. *)

val reference_payloads : (string * Xdr.value * int) list
(** The codec bench's payloads — one call item, a 16-call batch, a
    64-record grade sheet and [sheet], shaped like loadbench's
    [stream_large] argument (a key and 32 {!sheet_record}s) — with
    their pinned {!Xdr.Bin} sizes: [(label, value, bytes)]. The bench
    times them; the wire tests and the bench runner gate on the
    sizes. *)

val payload_mismatches : unit -> string list
(** One line per {!reference_payloads} entry whose encoding is not its
    pinned size; [[]] when all match. *)

val e12 : ?n:int -> unit -> Table.t

(** Experiment E13 — promise pipelining: a k-deep dependent-call chain
    completes in about one round trip when dependent calls carry
    promise-reference arguments ({!Xdr.Pref}), against k round trips
    when every link is claimed before the next call (docs/PIPELINE.md). *)

type row = {
  r_mode : string;
  r_depth : int;  (** calls in the dependency chain *)
  r_time : float;  (** completion (simulated seconds) *)
  r_msgs : int;  (** network messages of any kind *)
  r_bytes : int;  (** actual encoded bytes on the wire *)
  r_data_pkts : int;
  r_pipelined : int;  (** calls transmitted with a promise-ref argument *)
  r_substitutions : int;  (** references substituted at the receiver *)
}

val e13_rows : ?depth:int -> unit -> row list
(** The raw measurements: single-call round trip, claim-each chain,
    pipelined chain and the same pipelined chain on adaptive channels
    with an unordered group (default depth 4). Used by the bench JSON
    emitter. *)

val e13 : ?depth:int -> unit -> Table.t

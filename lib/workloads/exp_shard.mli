(** E14: sharded port-group execution — partition-keyed parallel
    dispatch at the receiver (docs/SHARDING.md).

    A CPU-bound guardian group is driven by one stream of (key, op)
    calls, with the group sharded across 1/2/4/8 worker lanes keyed by
    the call's key. The independent-key series shows call throughput
    scaling with the lane count; the same-key series shows per-key call
    order is preserved (all calls collapse onto one lane) and the
    per-stream reply-order guarantee never bends. *)

type row = {
  r_series : string;
  r_shards : int;
  r_calls : int;
  r_time : float;
  r_throughput : float;
  r_speedup : float;
  r_dispatches : int;
  r_queue_hwm : int;
  r_imbalance : int;
  r_ordered : bool;
}

val e14_rows :
  ?n:int -> ?service:float -> ?cores:int -> ?shard_counts:int list -> unit -> row list
(** Both series (defaults: 240 calls of 1 ms CPU each on 8 simulated
    cores, shard counts 1/2/4/8), speedups normalised to each series'
    1-shard row. *)

val e14 : ?n:int -> ?service:float -> ?cores:int -> ?shard_counts:int list -> unit -> Table.t

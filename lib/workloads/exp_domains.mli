(** E16: fibers vs domains — real OCaml 5 parallelism under the shard
    lanes (docs/DOMAINS.md).

    The E14 workload with {e physical} work: handler bodies burn
    calibrated wall-clock CPU ({!Cpu.Real}) instead of charging virtual
    time. The fibers row keeps everything on the simulator domain (the
    lanes' concurrency is simulated, so real work serialises); the
    domains rows offload each handler body onto a {!Sched.Pool} of
    1/2/4/8 worker domains. Ordering and exactly-once invariants are
    asserted on every row. Wall-clock numbers — interpret against the
    machine stanza in BENCH_domains.json. *)

type row = {
  r_mode : string;
  r_pool : int;
  r_lanes : int;
  r_calls : int;
  r_wall : float;
  r_throughput : float;
  r_speedup : float;
  r_ordered : bool;
  r_lost : int;
  r_dups : int;
}

val e16_rows :
  ?n:int ->
  ?keys:int ->
  ?lanes:int ->
  ?service:float ->
  ?pool_sizes:int list ->
  unit ->
  row list
(** One fibers row plus one domains row per pool size (defaults: 64
    calls of 1 ms real CPU each over 16 keys into 8 lanes, pools
    1/2/4/8), speedups normalised to the 1-domain pool row. Calibrates
    the spin kernel once per call. *)

val e16 :
  ?n:int ->
  ?keys:int ->
  ?lanes:int ->
  ?service:float ->
  ?pool_sizes:int list ->
  unit ->
  Table.t

type address = int

type frame = string

type t = {
  addr : address;
  node_name : string;
  backend : string;
  sched : Sched.Scheduler.t;
  stats : Sim.Stats.t;
  send : dst:address -> frame -> unit;
  set_receiver : (src:address -> frame -> unit) -> unit;
  set_peer_watch : (peer:address -> reason:string -> unit) -> unit;
  recv_overhead : unit -> float;
  realtime : bool;
}

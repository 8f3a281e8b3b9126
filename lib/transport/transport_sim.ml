let endpoint net node =
  let recv = ref (fun ~src:_ _ -> ()) in
  Net.set_receiver net node (fun ~src frame -> !recv ~src frame);
  {
    Transport.addr = Net.address node;
    node_name = Net.node_name node;
    backend = "sim";
    sched = Net.sched net;
    stats = Net.stats net;
    send =
      (fun ~dst frame ->
        Net.send net ~src:node ~dst ~bytes_:(String.length frame) frame);
    set_receiver = (fun f -> recv := f);
    set_peer_watch = (fun _ -> ());
    recv_overhead = (fun () -> (Net.config net).Net.kernel_overhead);
    realtime = false;
  }

(* Experiment E8: explicit send/receive vs streams with promises (§5).

   The paper argues that send/receive (Plits, *MOD) can match the
   throughput of streams but forces user code to correlate replies with
   requests by hand. Here both variants run the same workload over the
   same reliable channels; we measure completion time (expected: the
   same shape) and the user-side correlation state the send/receive
   version must maintain (promises: none). *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module R = Core.Remote
module P = Core.Promise

let batch = 16

let chan_cfg = { CH.default_config with CH.max_batch = batch; flush_interval = 1e-3 }

(* Channels deliver validated views; the raw protocol works on trees. *)
let values items = List.filter_map (fun vw -> Result.to_option (Xdr.View.materialize vw)) items

(* Raw send/receive: the client manually numbers requests, sends them
   on a channel, and matches numbered replies from the server's reply
   channel against a table of continuations. *)
let run_raw ~n =
  let sched = S.create () in
  let net = Net.create sched Net.default_config in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~net:(net, server_node) () in
  (* server: echo each (seq, value) back on its own channel. Like the
     stream receiver, it pays kernel overhead per inbound message (so
     the comparison is about the mechanism, not the cost model). *)
  let overhead = Net.default_config.Net.kernel_overhead in
  CH.on_connect server_hub ~label:"raw-svc" (fun in_chan ->
      let back =
        CH.connect server_hub ~dst:(CH.in_src in_chan) ~label:(CH.in_key in_chan).CH.meta
          ~meta:"" chan_cfg
      in
      let work = Sched.Bqueue.create sched in
      ignore
        (S.spawn sched ~daemon:true ~name:"raw-server" (fun () ->
             let rec loop () =
               let items = Sched.Bqueue.deq work in
               S.sleep sched overhead;
               List.iter
                 (fun item -> ignore (CH.send back item : (unit, string) result))
                 items;
               loop ()
             in
             loop ()));
      CH.set_deliver in_chan (fun _ items -> Sched.Bqueue.enq work (values items)));
  (* client bookkeeping *)
  let pending : (int, int S.waker) Hashtbl.t = Hashtbl.create 64 in
  let max_pending = ref 0 in
  CH.on_connect client_hub ~label:"raw-replies" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items ->
          List.iter
            (fun item ->
              match item with
              | Xdr.Pair (Xdr.Int seq, Xdr.Int v) -> (
                  (* the burden: relate this reply to its call *)
                  match Hashtbl.find_opt pending seq with
                  | Some w ->
                      Hashtbl.remove pending seq;
                      ignore (S.wake w v : bool)
                  | None -> ())
              | _ -> ())
            (values items)));
  let out =
    CH.connect client_hub ~dst:(Net.address server_node) ~label:"raw-svc" ~meta:"raw-replies"
      chan_cfg
  in
  let time =
    Fixtures.timed_run sched (fun () ->
        let replies = ref 0 in
        let done_waker = ref None in
        for i = 0 to n - 1 do
          ignore (CH.send out (Xdr.Pair (Xdr.Int i, Xdr.Int (i * 2))) : (unit, string) result);
          let w = ref None in
          (* register continuation *)
          ignore
            (S.spawn sched (fun () ->
                 let v =
                   S.suspend sched (fun waker ->
                       Hashtbl.replace pending i waker;
                       if Hashtbl.length pending > !max_pending then
                         max_pending := Hashtbl.length pending)
                 in
                 ignore v;
                 incr replies;
                 if !replies = n then
                   match !done_waker with
                   | Some dw -> ignore (S.wake dw () : bool)
                   | None -> ()));
          ignore w
        done;
        CH.flush_out out;
        if !replies < n then S.suspend sched (fun w -> done_waker := Some w))
  in
  (time, !max_pending)

(* The same workload through streams + promises. *)
let run_promises ~n =
  let pair =
    Fixtures.make_pair
      ~group_config:Cstream.Group_config.(default |> with_reply_config chan_cfg)
      ()
  in
  let h = Fixtures.work_handle pair ~config:chan_cfg ~agent:"bench" () in
  let time =
    Fixtures.timed_run pair.Fixtures.sched (fun () ->
        let promises = List.init n (fun i -> R.stream_call h i) in
        R.flush h;
        List.iter
          (fun p ->
            match P.claim p with
            | P.Normal _ -> ()
            | P.Signal _ | P.Unavailable _ | P.Failure _ -> failwith "call failed")
          promises)
  in
  (time, 0)

let e8 ?(n = 400) () =
  let t_raw, state_raw = run_raw ~n in
  let t_p, state_p = run_promises ~n in
  Table.make ~id:"E8" ~title:(Printf.sprintf "%d calls: explicit send/receive vs streams+promises" n)
    ~header:[ "mechanism"; "completion"; "user correlation state (max entries)" ]
    ~notes:
      [
        "paper claim (§5): send/receive can reach the same throughput, but \"it is entirely \
         the responsibility of the user code to relate reply messages with the calls that \
         caused them\" — promises eliminate that table";
      ]
    [
      [ "send/receive (by hand)"; Table.cell_ms t_raw; Table.cell_i state_raw ];
      [ "streams + promises"; Table.cell_ms t_p; Table.cell_i state_p ];
    ]

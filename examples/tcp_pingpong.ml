(* Two OS processes talking promises over real loopback TCP sockets
   (docs/TRANSPORT.md).

   The parent forks: the child hosts a "pong" guardian, the parent a
   "ping" guardian plus the client agent. Both listening sockets are
   bound before the fork so each side knows the other's address. The
   client issues pipelined 2-deep call chains (the second call's
   argument is a pipe of the first call's promise, so the dependent
   call travels before its input exists — §4 of the paper), and halfway
   through claiming it forcibly closes every socket between the two
   processes. Supervision redials, resubmits, and the server-side dedup
   keeps every call exactly-once: the child counts executions per
   argument and reports the number of violations, which must be zero.
   Finally the child calls the parent's guardian back ("pong done") —
   the reverse direction dials its own connection — and both exit.

   Run with: dune exec examples/tcp_pingpong.exe
   (prints SKIP and exits 0 where loopback sockets are forbidden) *)

module S = Sched.Scheduler
module CH = Cstream.Chanhub
module GC = Cstream.Group_config
module G = Argus.Guardian
module R = Core.Remote
module P = Core.Promise
module Sup = Core.Supervisor
module T = Transport_tcp

let work_sig = Core.Sigs.hsig0 "work" ~arg:Xdr.int ~res:Xdr.int

(* report(expected_distinct_args) returns the number of exactly-once
   violations the server observed: args executed != 1 time, plus any
   shortfall in distinct args. *)
let report_sig = Core.Sigs.hsig0 "report" ~arg:Xdr.int ~res:Xdr.int

(* done() — the child's parting call to the parent's guardian. *)
let done_sig = Core.Sigs.hsig0 "done" ~arg:Xdr.unit ~res:Xdr.unit

let n_chains = 40

(* Snappy break detection and retries: this example forces a socket
   close mid-stream and should recover in milliseconds. *)
let chan_cfg =
  {
    CH.default_config with
    CH.max_batch = 8;
    flush_interval = 0.5e-3;
    retransmit_timeout = 5e-3;
    max_retries = 8;
  }

let sup_cfg =
  {
    Sup.default_config with
    Sup.backoff_base = 2e-3;
    backoff_max = 20e-3;
    backoff_jitter = 0.0;
    retry_budget = 16;
  }

let group_cfg = GC.(default |> with_reply_config chan_cfg |> with_dedup)

let parent_addr = 0
let pong_addr = 1

(* --- child: the pong server ----------------------------------------- *)

let run_child ~listen_fd ~parent_sockaddr =
  let sched = S.create () in
  let fab = T.create sched in
  let tr = T.endpoint fab ~addr:pong_addr ~name:"pong" () in
  T.listen_fd fab ~addr:pong_addr listen_fd;
  T.set_peer fab ~addr:parent_addr parent_sockaddr;
  let hub = CH.create_hub ~transport:tr () in
  let pong = G.create hub ~name:"pong" in
  let execs : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let finished = ref None in
  G.register_group pong ~group:"main" ~config:group_cfg ();
  G.register pong ~group:"main" work_sig (fun ctx v ->
      Hashtbl.replace execs v (1 + Option.value ~default:0 (Hashtbl.find_opt execs v));
      (* ~1 ms of wall-clock work per call keeps the server busy long
         enough that the parent's mid-claim socket cut lands while
         calls are genuinely in flight *)
      S.sleep ctx.G.sched 1e-3;
      Ok (v + 1));
  G.register pong ~group:"main" report_sig (fun _ctx expected ->
      let violations = ref (max 0 (expected - Hashtbl.length execs)) in
      Hashtbl.iter (fun _ count -> if count <> 1 then incr violations) execs;
      (* reply first; the waiting finisher fiber makes the done call *)
      (match !finished with Some w -> ignore (S.wake w !violations : bool) | None -> ());
      Ok !violations);
  (* The finisher keeps the child alive (a parked fiber counts as live,
     so the real-time loop keeps selecting) until the report arrives,
     then calls the parent back and exits the process. *)
  ignore
    (S.spawn sched ~name:"finisher" (fun () ->
         let violations = S.suspend sched (fun w -> finished := Some w) in
         let ag = Core.Agent.create hub ~name:"pong-done" ~config:chan_cfg () in
         let d = R.bind ag ~dst:parent_addr ~gid:"ctl" done_sig in
         (match R.Call.(sync (make d ())) with
         | P.Normal () -> ()
         | P.Signal _ | P.Unavailable _ | P.Failure _ ->
             print_endline "pong: done call failed");
         (* let the report reply's ack settle, then leave *)
         S.sleep sched 50e-3;
         T.close fab;
         exit (if violations = 0 then 0 else 1)));
  match S.run sched with
  | S.Completed | S.Time_limit -> exit 2 (* finisher should have exited *)
  | S.Deadlocked _ -> exit 3

(* --- parent: the ping client ---------------------------------------- *)

let run_parent ~listen_fd ~pong_sockaddr ~child_pid =
  let sched = S.create () in
  let fab = T.create sched in
  let tr = T.endpoint fab ~addr:parent_addr ~name:"ping" () in
  T.listen_fd fab ~addr:parent_addr listen_fd;
  T.set_peer fab ~addr:pong_addr pong_sockaddr;
  let hub = CH.create_hub ~transport:tr () in
  (* the parent's own guardian: the child calls done() on it *)
  let ping = G.create hub ~name:"ping" in
  (* level-triggered: the done() call may beat the main fiber to the
     rendezvous (it can even arrive before the report reply does) *)
  let done_flag = ref false in
  let done_seen = ref None in
  G.register_group ping ~group:"ctl" ~config:GC.(default |> with_reply_config chan_cfg) ();
  G.register ping ~group:"ctl" done_sig (fun _ctx () ->
      done_flag := true;
      (match !done_seen with Some w -> ignore (S.wake w () : bool) | None -> ());
      Ok ());
  let failures = ref 0 in
  ignore
    (S.spawn sched ~name:"ping-main" (fun () ->
         let ag = Core.Agent.create hub ~name:"ping" ~config:chan_cfg () in
         let sup = Sup.supervise_agent ~config:sup_cfg ag ~dst:pong_addr ~gid:"main" in
         let h = R.bind ag ~dst:pong_addr ~gid:"main" work_sig in
         (* 2-deep chains: work(2i) |> pipe |> work — the dependent call
            is on the wire before its argument exists. *)
         let chains =
           List.init n_chains (fun i ->
               let first = R.Call.(submit (make h (2 * i))) in
               R.Call.(submit (piped h (R.pipe first))))
         in
         R.flush h;
         List.iteri
           (fun i p ->
             if i = n_chains / 2 then begin
               (* forced socket close, mid-stream, both directions *)
               T.drop_peer_connections fab ~addr:pong_addr;
               Printf.printf "ping: cut every socket after %d/%d chains claimed\n%!" i
                 n_chains
             end;
             match P.claim p with
             | P.Normal v when v = (2 * i) + 2 -> ()
             | P.Normal v ->
                 incr failures;
                 Printf.printf "ping: chain %d returned %d, wanted %d\n%!" i v ((2 * i) + 2)
             | P.Signal _ | P.Unavailable _ | P.Failure _ ->
                 incr failures;
                 Printf.printf "ping: chain %d failed\n%!" i)
           chains;
         Printf.printf "ping: all %d pipelined chains claimed across the break\n%!" n_chains;
         let rep = R.bind ag ~dst:pong_addr ~gid:"main" report_sig in
         (match R.Call.(sync (make rep (2 * n_chains))) with
         | P.Normal 0 -> print_endline "pong reports: every call executed exactly once"
         | P.Normal v ->
             incr failures;
             Printf.printf "pong reports %d exactly-once violations\n%!" v
         | P.Signal _ | P.Unavailable _ | P.Failure _ ->
             incr failures;
             print_endline "ping: report call failed");
         Sup.stop sup;
         (* wait for the child's reverse-direction done() call *)
         if not !done_flag then S.suspend sched (fun w -> done_seen := Some w);
         print_endline "ping: pong called back over its own dialed connection";
         S.sleep sched 50e-3 (* let the done reply reach the child *);
         T.close fab));
  (match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked _ ->
      incr failures;
      print_endline "ping: deadlock"
  | S.Time_limit -> ());
  let _, status = Unix.waitpid [] child_pid in
  (match status with
  | Unix.WEXITED 0 -> print_endline "child exited cleanly"
  | Unix.WEXITED c ->
      incr failures;
      Printf.printf "child exited with %d\n%!" c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      incr failures;
      print_endline "child killed");
  if !failures = 0 then print_endline "tcp_pingpong: OK" else exit 1

let () =
  let listen_on_loopback () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen fd 16;
    (fd, Unix.getsockname fd)
  in
  match listen_on_loopback () with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.printf "SKIP tcp_pingpong: no loopback sockets here (%s)\n%!"
        (Unix.error_message e)
  | parent_fd, parent_sa -> (
      let pong_fd, pong_sa = listen_on_loopback () in
      match Unix.fork () with
      | exception Unix.Unix_error (e, _, _) ->
          Printf.printf "SKIP tcp_pingpong: fork unavailable (%s)\n%!" (Unix.error_message e)
      | 0 ->
          Unix.close parent_fd;
          run_child ~listen_fd:pong_fd ~parent_sockaddr:parent_sa
      | child_pid ->
          Unix.close pong_fd;
          run_parent ~listen_fd:parent_fd ~pong_sockaddr:pong_sa ~child_pid)

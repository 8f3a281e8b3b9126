module S = Sched.Scheduler

let hello_magic = "PRS1"

let hello_len = 8 (* magic + BE32 dialer address *)

let max_frame = 1 lsl 26 (* sanity bound; a corrupt length prefix must not OOM us *)

let be32_get b off = Int32.to_int (Bytes.get_int32_be b off) land 0xffff_ffff

let hello addr =
  let b = Bytes.create hello_len in
  Bytes.blit_string hello_magic 0 b 0 4;
  Bytes.set_int32_be b 4 (Int32.of_int addr);
  Bytes.unsafe_to_string b

type ep = {
  e_addr : int;
  e_name : string;
  mutable e_recv : src:int -> string -> unit;
  mutable e_watch : peer:int -> reason:string -> unit;
}

type conn = {
  c_fd : Unix.file_descr;
  c_ep : ep; (* local endpoint this connection delivers to *)
  mutable c_peer : int; (* -1 on an accepted connection until its hello *)
  mutable c_racc : string; (* received bytes of a frame (or hello) not yet whole *)
  mutable c_wpend : string; (* queued unwritten bytes (short writes) *)
  mutable c_closed : bool;
}

type fabric = {
  f_sched : S.t;
  f_stats : Sim.Stats.t;
  (* per-frame counters, resolved once: a by-name lookup costs a mutex
     and a string hash *)
  f_frames_sent : Sim.Stats.counter;
  f_bytes_sent : Sim.Stats.counter;
  f_frames_received : Sim.Stats.counter;
  f_bytes_received : Sim.Stats.counter;
  f_eps : (int, ep) Hashtbl.t;
  f_book : (int, Unix.sockaddr) Hashtbl.t; (* address book for dialing *)
  mutable f_listeners : (Unix.file_descr * ep) list;
  mutable f_conns : conn list;
  f_wake_r : Unix.file_descr; (* self-pipe: inject/wakeup breaks select *)
  f_wake_w : Unix.file_descr;
  f_epoch : float; (* gettimeofday at create minus scheduler time then *)
  mutable f_max_chunk : int;
  mutable f_rbuf : Bytes.t; (* shared read buffer, at least f_max_chunk long *)
  mutable f_closed : bool;
}

let sched fab = fab.f_sched

let stats fab = fab.f_stats

let counter fab name = Sim.Stats.counter fab.f_stats name

(* --- connection lifecycle ----------------------------------------- *)

let conn_down fab c reason =
  if not c.c_closed then begin
    c.c_closed <- true;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    fab.f_conns <- List.filter (fun c' -> c' != c) fab.f_conns;
    Sim.Stats.incr (counter fab "transport_conns_lost");
    if c.c_peer >= 0 then c.c_ep.e_watch ~peer:c.c_peer ~reason
  end

let rec try_flush fab c =
  if (not c.c_closed) && c.c_wpend <> "" then begin
    let n = min (String.length c.c_wpend) fab.f_max_chunk in
    match Unix.write_substring c.c_fd c.c_wpend 0 n with
    | written ->
        c.c_wpend <- String.sub c.c_wpend written (String.length c.c_wpend - written);
        if written > 0 && c.c_wpend <> "" then try_flush fab c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        () (* kernel buffer full; select watches writability while c_wpend <> "" *)
    | exception Unix.Unix_error (e, _, _) ->
        conn_down fab c ("write: " ^ Unix.error_message e)
  end

(* Append [prefix] (if any) and [body] to the write queue in one
   allocation, then write what the kernel takes. *)
let enqueue fab c ?prefix body =
  let pend = String.length c.c_wpend and blen = String.length body in
  let plen = if prefix = None then 0 else 4 in
  let b = Bytes.create (pend + plen + blen) in
  Bytes.blit_string c.c_wpend 0 b 0 pend;
  Option.iter (fun n -> Bytes.set_int32_be b pend (Int32.of_int n)) prefix;
  Bytes.blit_string body 0 b (pend + plen) blen;
  c.c_wpend <- Bytes.unsafe_to_string b;
  try_flush fab c

let find_conn fab ep dst =
  List.find_opt (fun c -> (not c.c_closed) && c.c_ep == ep && c.c_peer = dst) fab.f_conns

let dial fab ep dst =
  match Hashtbl.find_opt fab.f_book dst with
  | None -> None
  | Some sa -> (
      match Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ ->
          Sim.Stats.incr (counter fab "transport_dial_failures");
          None
      | fd -> (
          match
            (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
            (* Blocking connect: the intended targets are loopback /
               LAN listeners where this is instantaneous. *)
            Unix.connect fd sa;
            Unix.set_nonblock fd
          with
          | () ->
              let c =
                { c_fd = fd; c_ep = ep; c_peer = dst; c_racc = ""; c_wpend = ""; c_closed = false }
              in
              fab.f_conns <- c :: fab.f_conns;
              Sim.Stats.incr (counter fab "transport_conns_opened");
              enqueue fab c (hello ep.e_addr);
              Some c
          | exception Unix.Unix_error _ ->
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Sim.Stats.incr (counter fab "transport_dial_failures");
              None))

let send fab ep ~dst frame =
  if not fab.f_closed then
    let c =
      match find_conn fab ep dst with Some c -> Some c | None -> dial fab ep dst
    in
    match c with
    | None -> () (* unreachable peer: drop, like a lossy net; retransmit recovers *)
    | Some c ->
        Sim.Stats.incr fab.f_frames_sent;
        Sim.Stats.add fab.f_bytes_sent (String.length frame);
        enqueue fab c ~prefix:(String.length frame) frame

(* --- receive path -------------------------------------------------- *)

(* Deliver every whole frame in [buf.[off, stop)], frames in place by
   offset; return the offset of the first byte not yet consumed. *)
let rec parse fab c buf off stop =
  if c.c_closed then stop
  else if c.c_peer < 0 then begin
    (* Accepted connection: first bytes must be the dialer's hello. *)
    if stop - off < hello_len then off
    else if Bytes.sub_string buf off 4 <> hello_magic then begin
      conn_down fab c "bad hello";
      stop
    end
    else begin
      c.c_peer <- be32_get buf (off + 4);
      parse fab c buf (off + hello_len) stop
    end
  end
  else if stop - off < 4 then off
  else
    let flen = be32_get buf off in
    if flen > max_frame then begin
      conn_down fab c "oversized frame";
      stop
    end
    else if stop - off < 4 + flen then off
    else begin
      let frame = Bytes.sub_string buf (off + 4) flen in
      Sim.Stats.incr fab.f_frames_received;
      Sim.Stats.add fab.f_bytes_received flen;
      c.c_ep.e_recv ~src:c.c_peer frame;
      parse fab c buf (off + 4 + flen) stop
    end

(* Reads land in the fabric's one buffer. Whole frames are delivered
   straight from it; only an incomplete tail is copied out, and only
   then does the next read pay to join it. *)
let handle_readable fab c =
  if not c.c_closed then begin
    let want = fab.f_max_chunk in
    match Unix.read c.c_fd fab.f_rbuf 0 want with
    | 0 -> conn_down fab c "connection closed by peer"
    | n ->
        let buf, stop =
          if c.c_racc = "" then (fab.f_rbuf, n)
          else begin
            let held = String.length c.c_racc in
            let joined = Bytes.create (held + n) in
            Bytes.blit_string c.c_racc 0 joined 0 held;
            Bytes.blit fab.f_rbuf 0 joined held n;
            (joined, held + n)
          end
        in
        let off = parse fab c buf 0 stop in
        c.c_racc <- (if off = stop then "" else Bytes.sub_string buf off (stop - off))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (e, _, _) -> conn_down fab c ("read: " ^ Unix.error_message e)
  end

let accept_conn fab lfd ep =
  match Unix.accept lfd with
  | fd, _ ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      Unix.set_nonblock fd;
      let c = { c_fd = fd; c_ep = ep; c_peer = -1; c_racc = ""; c_wpend = ""; c_closed = false } in
      fab.f_conns <- c :: fab.f_conns;
      Sim.Stats.incr (counter fab "transport_conns_opened")
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

let drain_wake fab =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read fab.f_wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  go ()

(* The scheduler's [rt_wait]: one select round over everything the
   fabric owns, delivering frames / accepting / flushing in scheduler
   context before returning to the run loop. *)
let service fab timeout =
  if not fab.f_closed then begin
    let rfds =
      fab.f_wake_r
      :: (List.map fst fab.f_listeners @ List.map (fun c -> c.c_fd) fab.f_conns)
    in
    let wfds = List.filter_map (fun c -> if c.c_wpend <> "" then Some c.c_fd else None) fab.f_conns in
    let tmo = match timeout with None -> -1.0 | Some d -> if d < 0.0 then 0.0 else d in
    match Unix.select rfds wfds [] tmo with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        if List.mem fab.f_wake_r r then drain_wake fab;
        List.iter
          (fun (lfd, ep) -> if List.mem lfd r then accept_conn fab lfd ep)
          fab.f_listeners;
        (* Snapshot: handlers may close connections and mutate f_conns. *)
        let conns = fab.f_conns in
        List.iter (fun c -> if List.mem c.c_fd w then try_flush fab c) conns;
        List.iter (fun c -> if (not c.c_closed) && List.mem c.c_fd r then handle_readable fab c) conns
  end

let wakeup fab =
  if not fab.f_closed then
    try ignore (Unix.write_substring fab.f_wake_w "!" 0 1 : int)
    with Unix.Unix_error _ -> () (* pipe full (wakeup already pending) or closing *)

(* --- construction -------------------------------------------------- *)

let create sched =
  (* A write to a connection the peer already closed must surface as
     EPIPE, not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let stats = Sim.Stats.create () in
  let fab =
    {
      f_sched = sched;
      f_stats = stats;
      f_frames_sent = Sim.Stats.counter stats "transport_frames_sent";
      f_bytes_sent = Sim.Stats.counter stats "transport_bytes_sent";
      f_frames_received = Sim.Stats.counter stats "transport_frames_received";
      f_bytes_received = Sim.Stats.counter stats "transport_bytes_received";
      f_eps = Hashtbl.create 4;
      f_book = Hashtbl.create 4;
      f_listeners = [];
      f_conns = [];
      f_wake_r = wake_r;
      f_wake_w = wake_w;
      (* The wall clock continues from the scheduler's current time, so
         timers armed before the fabric existed stay meaningful. *)
      f_epoch = Unix.gettimeofday () -. S.now sched;
      f_max_chunk = 65536;
      f_rbuf = Bytes.create 65536;
      f_closed = false;
    }
  in
  S.set_realtime_driver sched
    ~clock:(fun () -> Unix.gettimeofday () -. fab.f_epoch)
    ~wait:(fun tmo -> service fab tmo)
    ~wakeup:(fun () -> wakeup fab);
  fab

let endpoint fab ~addr ?name () =
  let name = match name with Some n -> n | None -> Printf.sprintf "tcp-%d" addr in
  let ep =
    {
      e_addr = addr;
      e_name = name;
      e_recv = (fun ~src:_ _ -> ());
      e_watch = (fun ~peer:_ ~reason:_ -> ());
    }
  in
  Hashtbl.replace fab.f_eps addr ep;
  {
    Transport.addr;
    node_name = name;
    backend = "tcp";
    sched = fab.f_sched;
    stats = fab.f_stats;
    send = (fun ~dst frame -> send fab ep ~dst frame);
    set_receiver = (fun f -> ep.e_recv <- f);
    set_peer_watch = (fun f -> ep.e_watch <- f);
    recv_overhead = (fun () -> 0.0);
    realtime = true;
    reliable = true;
  }

let set_peer fab ~addr sa = Hashtbl.replace fab.f_book addr sa

let ep_of fab addr =
  match Hashtbl.find_opt fab.f_eps addr with
  | Some ep -> ep
  | None -> invalid_arg (Printf.sprintf "Transport_tcp: no endpoint with address %d" addr)

let listen_fd fab ~addr fd =
  let ep = ep_of fab addr in
  Unix.set_nonblock fd;
  fab.f_listeners <- (fd, ep) :: fab.f_listeners

let listen fab ~addr sa =
  let ep = ep_of fab addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd sa;
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  fab.f_listeners <- (fd, ep) :: fab.f_listeners;
  Unix.getsockname fd

let listen_loopback fab ~addr =
  listen fab ~addr (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))

let drop_peer_connections fab ~addr =
  let victims = List.filter (fun c -> c.c_peer = addr) fab.f_conns in
  List.iter (fun c -> conn_down fab c "connection forcibly closed") victims

let set_max_chunk fab n =
  if n <= 0 then invalid_arg "Transport_tcp.set_max_chunk: must be positive";
  fab.f_max_chunk <- n;
  if n > Bytes.length fab.f_rbuf then fab.f_rbuf <- Bytes.create n

let close fab =
  if not fab.f_closed then begin
    fab.f_closed <- true;
    S.clear_realtime_driver fab.f_sched;
    List.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) fab.f_listeners;
    fab.f_listeners <- [];
    List.iter
      (fun c ->
        if not c.c_closed then begin
          c.c_closed <- true;
          try Unix.close c.c_fd with Unix.Unix_error _ -> ()
        end)
      fab.f_conns;
    fab.f_conns <- [];
    (try Unix.close fab.f_wake_r with Unix.Unix_error _ -> ());
    (try Unix.close fab.f_wake_w with Unix.Unix_error _ -> ())
  end

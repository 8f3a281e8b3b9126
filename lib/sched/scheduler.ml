exception Terminated

type fiber_result = Finished | Failed of exn | Killed

(* Real-time driver (docs/TRANSPORT.md): when a real transport is
   attached the wall clock replaces virtual time. [rt_clock] reads the
   wall clock in scheduler-time seconds; [rt_wait (Some d)] blocks at
   most [d] seconds servicing real I/O (it may deliver frames, i.e.
   call receive callbacks, in scheduler context); [rt_wait None] blocks
   until some real event arrives; [rt_wakeup] is thread-safe and breaks
   a concurrent [rt_wait] (the transport's self-pipe). *)
type realtime_driver = {
  rt_clock : unit -> float;
  rt_wait : float option -> unit;
  rt_wakeup : unit -> unit;
}

(* Heap entries carry a liveness flag so a cancelled timer can be
   skipped instead of waited for. Virtual time never cared (a stale
   no-op firing is free), but in realtime mode the run loop would
   otherwise block for the full wall-clock delay of a timer whose
   purpose has already passed — e.g. a retransmit timer for a batch
   that was acked microseconds after it was armed. *)
type event = { mutable ev_alive : bool; ev_fn : unit -> unit }

type timer = event

type t = {
  mutable time : float;
  run_q : (unit -> unit) Queue.t;
  events : event Sim.Heap.t;
  mutable cur : fiber option;
  mutable live : int;
  live_tbl : (int, fiber) Hashtbl.t;
  mutable next_fid : int;
  mutable next_gid : int;
  sched_rng : Sim.Rng.t;
  sched_stats : Sim.Stats.t;
  sched_spans : Sim.Span.t;
  (* External-wakeup path (docs/DOMAINS.md): thunks pushed by worker
     domains, drained by the main loop on the scheduler's own domain so
     no scheduler state is ever touched from another domain. The mutex
     guards only [injected]; [external_held] is read and written on the
     scheduler domain alone (holds are taken in fiber context and
     released from an injected thunk). *)
  inj_m : Stdlib.Mutex.t;
  inj_cv : Stdlib.Condition.t;
  injected : (unit -> unit) Queue.t;
  mutable external_held : int;
  (* Written under [inj_m] so that [inject], which may run on another
     thread, reads a consistent value when deciding whether to kick the
     transport's wakeup pipe as well as the condition variable. *)
  mutable rt_driver : realtime_driver option;
}

and fiber = {
  fid : int;
  fname : string;
  mutable fstate : fstate;
  mutable fkilled : bool;
  mutable fcritical : int;
  mutable fwaiting : packed_waker option;
  mutable fresult : fiber_result option;
  fdaemon : bool;
  mutable fgroup : group option;
  mutable fon_exit : (fiber_result -> unit) list;
}

and fstate = Runnable | Running | Suspended | Done

and 'a waker = {
  mutable wcont : ('a, unit) Effect.Deep.continuation option;
  wfiber : fiber;
  wsched : t;
}

and packed_waker = Packed : 'a waker -> packed_waker

and group = {
  gid : int;
  gsched : t;
  mutable gmembers : fiber list;
  mutable gwaiters : unit waker list;
}

type outcome = Completed | Deadlocked of fiber list | Time_limit

type _ Effect.t += Suspend : t * ('a waker -> unit) -> 'a Effect.t

let create ?(seed = 42) () =
  {
    time = 0.0;
    run_q = Queue.create ();
    events = Sim.Heap.create ();
    cur = None;
    live = 0;
    live_tbl = Hashtbl.create 64;
    next_fid = 0;
    next_gid = 0;
    sched_rng = Sim.Rng.create ~seed;
    sched_stats = Sim.Stats.create ();
    sched_spans = Sim.Span.create ();
    inj_m = Stdlib.Mutex.create ();
    inj_cv = Stdlib.Condition.create ();
    injected = Queue.create ();
    external_held = 0;
    rt_driver = None;
  }

let now t = t.time

let rng t = t.sched_rng

let stats t = t.sched_stats

let spans t = t.sched_spans

let current t = t.cur

let fiber_name f = f.fname

let fiber_result f = f.fresult

let alive f = f.fresult = None

(* Group bookkeeping is internal; the public [Group] module wraps it. *)
let group_remove t g fiber =
  g.gmembers <- List.filter (fun f -> f.fid <> fiber.fid) g.gmembers;
  if g.gmembers = [] then begin
    let waiters = g.gwaiters in
    g.gwaiters <- [];
    List.iter
      (fun w ->
        (* wake is defined below; forward reference avoided by inlining
           the resume here via the run queue. *)
        match w.wcont with
        | None -> ()
        | Some k ->
            w.wcont <- None;
            w.wfiber.fwaiting <- None;
            w.wfiber.fstate <- Runnable;
            Queue.push
              (fun () ->
                t.cur <- Some w.wfiber;
                w.wfiber.fstate <- Running;
                Effect.Deep.continue k ())
              t.run_q)
      waiters
  end

let finish t fiber result =
  assert (fiber.fresult = None);
  fiber.fstate <- Done;
  fiber.fresult <- Some result;
  fiber.fwaiting <- None;
  if not fiber.fdaemon then t.live <- t.live - 1;
  Hashtbl.remove t.live_tbl fiber.fid;
  (match fiber.fgroup with Some g -> group_remove t g fiber | None -> ());
  let hooks = fiber.fon_exit in
  fiber.fon_exit <- [];
  List.iter (fun hook -> hook result) hooks

let spawn t ?(name = "fiber") ?(daemon = false) ?group ?on_exit body =
  let fiber =
    {
      fid = t.next_fid;
      fname = name;
      fstate = Runnable;
      fkilled = false;
      fcritical = 0;
      fwaiting = None;
      fresult = None;
      fdaemon = daemon;
      fgroup = group;
      fon_exit = (match on_exit with None -> [] | Some h -> [ h ]);
    }
  in
  t.next_fid <- t.next_fid + 1;
  if not daemon then t.live <- t.live + 1;
  Hashtbl.add t.live_tbl fiber.fid fiber;
  (match group with Some g -> g.gmembers <- fiber :: g.gmembers | None -> ());
  let thunk () =
    if fiber.fkilled then begin
      t.cur <- Some fiber;
      finish t fiber Killed
    end
    else begin
      t.cur <- Some fiber;
      fiber.fstate <- Running;
      Effect.Deep.match_with body ()
        {
          retc = (fun () -> finish t fiber Finished);
          exnc =
            (fun e ->
              match e with
              | Terminated -> finish t fiber Killed
              | e -> finish t fiber (Failed e));
          effc =
            (fun (type b) (eff : b Effect.t) ->
              match eff with
              | Suspend (_, register) ->
                  Some
                    (fun (k : (b, unit) Effect.Deep.continuation) ->
                      let waker = { wcont = Some k; wfiber = fiber; wsched = t } in
                      fiber.fstate <- Suspended;
                      fiber.fwaiting <- Some (Packed waker);
                      register waker)
              | _ -> None);
        }
    end
  in
  Queue.push thunk t.run_q;
  fiber

let check_wounded t =
  match t.cur with
  | Some f when f.fkilled && f.fcritical = 0 -> raise Terminated
  | Some _ | None -> ()

let suspend t register =
  (match t.cur with
  | None -> invalid_arg "Scheduler.suspend: not in fiber context"
  | Some _ -> ());
  check_wounded t;
  let v = Effect.perform (Suspend (t, register)) in
  check_wounded t;
  v

let wake w v =
  match w.wcont with
  | None -> false
  | Some k ->
      let t = w.wsched in
      if w.wfiber.fkilled && w.wfiber.fcritical = 0 then begin
        (* The fiber was killed while parked; it will be (or has been)
           discontinued by [kill]. Refuse delivery so callers retry. *)
        false
      end
      else begin
        w.wcont <- None;
        w.wfiber.fwaiting <- None;
        w.wfiber.fstate <- Runnable;
        Queue.push
          (fun () ->
            t.cur <- Some w.wfiber;
            w.wfiber.fstate <- Running;
            Effect.Deep.continue k v)
          t.run_q;
        true
      end

let wake_exn w e =
  match w.wcont with
  | None -> false
  | Some k ->
      let t = w.wsched in
      w.wcont <- None;
      w.wfiber.fwaiting <- None;
      w.wfiber.fstate <- Runnable;
      Queue.push
        (fun () ->
          t.cur <- Some w.wfiber;
          w.wfiber.fstate <- Running;
          Effect.Deep.discontinue k e)
        t.run_q;
      true

let kill _t fiber =
  match fiber.fstate with
  | Done -> ()
  | Running | Runnable -> fiber.fkilled <- true
  | Suspended ->
      fiber.fkilled <- true;
      if fiber.fcritical = 0 then begin
        match fiber.fwaiting with
        | None -> ()
        | Some (Packed w) -> ignore (wake_exn w Terminated : bool)
      end

let yield t = suspend t (fun w -> ignore (wake w () : bool))

let at_cancellable t time f =
  let time = if time < t.time then t.time else time in
  let ev = { ev_alive = true; ev_fn = f } in
  Sim.Heap.push t.events ~prio:time ev;
  ev

let at t time f = ignore (at_cancellable t time f : timer)

let after t dt f = at t (t.time +. dt) f

let after_cancellable t dt f = at_cancellable t (t.time +. dt) f

let cancel_timer tm = tm.ev_alive <- false

(* Pop any leading cancelled events so peek-based decisions (horizon
   waits, deadlock detection, completion) never key off a dead timer. *)
let rec drop_cancelled t =
  match Sim.Heap.peek t.events with
  | Some (_, ev) when not ev.ev_alive ->
      ignore (Sim.Heap.pop t.events : (float * event) option);
      drop_cancelled t
  | _ -> ()

let sleep t dt = suspend t (fun w -> after t dt (fun () -> ignore (wake w () : bool)))

let enter_critical t =
  match t.cur with
  | None -> invalid_arg "Scheduler.enter_critical: not in fiber context"
  | Some f -> f.fcritical <- f.fcritical + 1

let exit_critical t =
  match t.cur with
  | None -> invalid_arg "Scheduler.exit_critical: not in fiber context"
  | Some f ->
      assert (f.fcritical > 0);
      f.fcritical <- f.fcritical - 1;
      if f.fcritical = 0 && f.fkilled then raise Terminated

let critical t f =
  enter_critical t;
  match f () with
  | v ->
      exit_critical t;
      v
  | exception e ->
      (* Leave the critical section even on exception; if the fiber was
         wounded meanwhile, Terminated supersedes the user exception. *)
      exit_critical t;
      raise e

let wounded t = match t.cur with None -> false | Some f -> f.fkilled

let live_fibers t =
  Hashtbl.fold (fun _ f acc -> if f.fdaemon then acc else f :: acc) t.live_tbl []

(* ------------------------------------------------------------------ *)
(* External wakeups (docs/DOMAINS.md). [inject] is the only scheduler
   entry point that may be called from another domain: it enqueues a
   thunk under the injection mutex and signals the main loop, which
   runs the thunk on the scheduler's own domain — so an injected thunk
   may call [wake]/[wake_exn] and touch any scheduler state. *)

let inject t thunk =
  Stdlib.Mutex.lock t.inj_m;
  Queue.push thunk t.injected;
  Stdlib.Condition.signal t.inj_cv;
  let rt = t.rt_driver in
  Stdlib.Mutex.unlock t.inj_m;
  (* In realtime mode the main loop blocks in the transport's [rt_wait]
     (a select), not on [inj_cv]; kick its self-pipe so the injection is
     noticed promptly. *)
  match rt with None -> () | Some rt -> rt.rt_wakeup ()

let hold_external t = t.external_held <- t.external_held + 1

let release_external t =
  assert (t.external_held > 0);
  t.external_held <- t.external_held - 1

(* Pop every pending injected thunk (under the mutex), run them outside
   it. Returns whether anything ran. *)
let drain_injected t =
  Stdlib.Mutex.lock t.inj_m;
  let n = Queue.length t.injected in
  let thunks = if n = 0 then [] else List.of_seq (Queue.to_seq t.injected) in
  Queue.clear t.injected;
  Stdlib.Mutex.unlock t.inj_m;
  List.iter
    (fun thunk ->
      thunk ();
      t.cur <- None)
    thunks;
  n > 0

(* Nothing runnable but external work is outstanding: block (no busy
   wait) until a worker domain injects its completion. *)
let wait_injected t =
  Stdlib.Mutex.lock t.inj_m;
  while Queue.is_empty t.injected do
    Stdlib.Condition.wait t.inj_cv t.inj_m
  done;
  Stdlib.Mutex.unlock t.inj_m

(* ------------------------------------------------------------------ *)
(* Real-time mode (docs/TRANSPORT.md). Attaching a driver swaps the
   event loop: instead of jumping the virtual clock to the next timer,
   the loop reads the wall clock, fires timers that have come due, and
   otherwise parks inside the driver's [rt_wait] — which is where real
   I/O (TCP frames) is serviced and delivered. Deadlock detection is
   necessarily lost: a parked fiber may always be woken by the network,
   so quiescence with live fibers just blocks. The virtual-time loop
   below is untouched when no driver is attached. *)

let set_realtime_driver t ~clock ~wait ~wakeup =
  Stdlib.Mutex.lock t.inj_m;
  t.rt_driver <- Some { rt_clock = clock; rt_wait = wait; rt_wakeup = wakeup };
  Stdlib.Mutex.unlock t.inj_m

let clear_realtime_driver t =
  Stdlib.Mutex.lock t.inj_m;
  t.rt_driver <- None;
  Stdlib.Mutex.unlock t.inj_m

let realtime t = t.rt_driver <> None

(* How many run-queue thunks may execute between zero-timeout I/O
   polls, so a busy run queue cannot starve the sockets. *)
let rt_poll_budget = 64

let run_realtime ?until t rt =
  let rec loop budget =
    ignore (drain_injected t : bool);
    let wall = rt.rt_clock () in
    if wall > t.time then t.time <- wall;
    match until with
    | Some u when t.time >= u -> Time_limit
    | _ ->
        if not (Queue.is_empty t.run_q) then begin
          let thunk = Queue.pop t.run_q in
          thunk ();
          t.cur <- None;
          if budget <= 1 then begin
            rt.rt_wait (Some 0.0);
            loop rt_poll_budget
          end
          else loop (budget - 1)
        end
        else begin
          drop_cancelled t;
          match Sim.Heap.peek t.events with
          | Some (time, _) when time <= t.time ->
              (match Sim.Heap.pop t.events with
              | Some (time, ev) ->
                  if time > t.time then t.time <- time;
                  ev.ev_alive <- false;
                  ev.ev_fn ()
              | None -> assert false);
              t.cur <- None;
              loop rt_poll_budget
          | next ->
              let next_ev = match next with Some (tm, _) -> Some tm | None -> None in
              let horizon =
                match (next_ev, until) with
                | Some a, Some b -> Some (Float.min a b)
                | (Some _ as h), None | None, (Some _ as h) -> h
                | None, None -> None
              in
              (match horizon with
              | Some h ->
                  rt.rt_wait (Some (Float.max 0.0 (h -. t.time)));
                  loop rt_poll_budget
              | None ->
                  if t.live > 0 || t.external_held > 0 then begin
                    (* Parked fibers can still be woken by the network
                       or a worker domain: block in the driver until
                       either says so. *)
                    rt.rt_wait None;
                    loop rt_poll_budget
                  end
                  else Completed)
        end
  in
  loop rt_poll_budget

let run ?until t =
  let rec loop () =
    (* Worker-domain completions interleave with the run queue; with no
       external holds outstanding the queue is provably empty and this
       is one uncontended lock per iteration. *)
    if t.external_held > 0 then ignore (drain_injected t : bool);
    if not (Queue.is_empty t.run_q) then begin
      let thunk = Queue.pop t.run_q in
      thunk ();
      t.cur <- None;
      loop ()
    end
    else if t.external_held > 0 then begin
      (* Virtual time never advances while an offloaded closure is in
         flight: offloaded work is instantaneous on the simulated clock
         (docs/DOMAINS.md), and timers (retransmission, flush) must not
         fire "during" it. Block until a completion arrives. *)
      wait_injected t;
      loop ()
    end
    else begin
      drop_cancelled t;
      match Sim.Heap.peek t.events with
      | None -> if t.live > 0 then Deadlocked (live_fibers t) else Completed
      | Some (time, _) -> (
          match until with
          | Some u when time > u ->
              t.time <- u;
              Time_limit
          | Some _ | None ->
              (match Sim.Heap.pop t.events with
              | Some (time, ev) ->
                  if time > t.time then t.time <- time;
                  ev.ev_alive <- false;
                  ev.ev_fn ()
              | None -> assert false);
              t.cur <- None;
              loop ())
    end
  in
  match t.rt_driver with Some rt -> run_realtime ?until t rt | None -> loop ()

module Group = struct
  let create t =
    let g = { gid = t.next_gid; gsched = t; gmembers = []; gwaiters = [] } in
    t.next_gid <- t.next_gid + 1;
    g

  let add_spawn t g ?name ?on_exit body = spawn t ?name ~group:g ?on_exit body

  let live_count g = List.length g.gmembers

  let terminate ?except t g =
    let victims =
      match except with
      | None -> g.gmembers
      | Some f -> List.filter (fun m -> m.fid <> f.fid) g.gmembers
    in
    List.iter (fun f -> kill t f) victims

  let wait t g =
    if g.gmembers <> [] then suspend t (fun w -> g.gwaiters <- w :: g.gwaiters)
end

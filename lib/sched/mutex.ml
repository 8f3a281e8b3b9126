type t = {
  sched : Scheduler.t;
  mutable held : bool;
  waiters : unit Scheduler.waker Queue.t;
}

let create sched = { sched; held = false; waiters = Queue.create () }

let rec lock m =
  if not m.held then begin
    m.held <- true;
    Scheduler.enter_critical m.sched
  end
  else begin
    Scheduler.suspend m.sched (fun w -> Queue.push w m.waiters);
    lock m
  end

(* Wake parked fibers until one accepts delivery; each retries [lock]. *)
let rec wake_next waiters =
  match Queue.take_opt waiters with
  | None -> ()
  | Some w -> if not (Scheduler.wake w ()) then wake_next waiters

let unlock m =
  if not m.held then invalid_arg "Mutex.unlock: not locked";
  m.held <- false;
  wake_next m.waiters;
  Scheduler.exit_critical m.sched

let locked m = m.held

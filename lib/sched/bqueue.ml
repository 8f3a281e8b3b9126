type 'a t = {
  sched : Scheduler.t;
  items : 'a Queue.t;
  capacity : int option;
  takers : unit Scheduler.waker Queue.t;
  putters : unit Scheduler.waker Queue.t;
  mutable closed : bool;
}

exception Closed

let create ?capacity sched =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Bqueue.create: capacity must be positive"
  | Some _ | None -> ());
  {
    sched;
    items = Queue.create ();
    capacity;
    takers = Queue.create ();
    putters = Queue.create ();
    closed = false;
  }

let rec wake_next q =
  match Queue.take_opt q with
  | None -> ()
  | Some w -> if not (Scheduler.wake w ()) then wake_next q

let full q =
  match q.capacity with None -> false | Some c -> Queue.length q.items >= c

let rec enq q v =
  if q.closed then raise Closed;
  if full q then begin
    Scheduler.suspend q.sched (fun w -> Queue.push w q.putters);
    enq q v
  end
  else begin
    Queue.push v q.items;
    wake_next q.takers
  end

let rec deq q =
  match Queue.take_opt q.items with
  | Some v ->
      wake_next q.putters;
      v
  | None ->
      if q.closed then raise Closed;
      Scheduler.suspend q.sched (fun w -> Queue.push w q.takers);
      deq q

let close q =
  if not q.closed then begin
    q.closed <- true;
    (* Parked consumers must observe Closed; parked producers too. *)
    let rec drain waiters =
      match Queue.take_opt waiters with
      | None -> ()
      | Some w ->
          ignore (Scheduler.wake w () : bool);
          drain waiters
    in
    drain q.takers;
    drain q.putters
  end

let length q = Queue.length q.items

module S = Sched.Scheduler

type state = Running | Committed | Aborted

type t = { sched : S.t; mutable undo : (unit -> unit) list; mutable state : state }

let on_abort t f =
  match t.state with
  | Running -> t.undo <- f :: t.undo
  | Committed | Aborted -> invalid_arg "Action.on_abort: action already finished"

let abort t =
  t.state <- Aborted;
  let undo = t.undo in
  t.undo <- [];
  (* Undo must not be interrupted by wounding: run it critically. The
     compensations themselves must not block. *)
  match S.current t.sched with
  | Some _ -> S.critical t.sched (fun () -> List.iter (fun f -> f ()) undo)
  | None -> List.iter (fun f -> f ()) undo

let run sched body =
  let t = { sched; undo = []; state = Running } in
  match body t with
  | r ->
      t.state <- Committed;
      t.undo <- [];
      r
  | exception e ->
      abort t;
      raise e

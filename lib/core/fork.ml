module S = Sched.Scheduler

let fork sched ?(name = "fork") ?group body =
  let p = Promise.create sched in
  ignore
    (S.spawn sched ~name ?group
       ~on_exit:(fun result ->
         (* Normal and signalled terminations resolve inside the body;
            anything else is mapped here. *)
         if not (Promise.ready p) then
           match result with
           | S.Finished -> Promise.resolve p (Promise.Failure "fork body did not resolve")
           | S.Failed e -> Promise.resolve p (Promise.Failure (Printexc.to_string e))
           | S.Killed -> Promise.resolve p (Promise.Failure "process terminated"))
       (fun () ->
         match body () with
         | Ok r -> Promise.resolve p (Promise.Normal r)
         | Error e -> Promise.resolve p (Promise.Signal e))
      : S.fiber);
  p

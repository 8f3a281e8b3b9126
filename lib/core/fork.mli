(** Local forks: promises for local procedure calls (§3.2).

    [fork] runs a local procedure in a new process (fiber), in parallel
    with the caller, and returns a promise for its result. Arguments
    are passed by sharing — the body is a closure over heap objects, so
    there are no lifetime problems and no encoding (§3.2).

    The body's typed interface mirrors a handler: it returns [Ok r] for
    normal termination or [Error e] for a declared signal. An escaping
    OCaml exception maps to the [failure] outcome, and termination of
    the forked process (it was killed before finishing) maps to
    [failure "process terminated"]. *)

val fork :
  Sched.Scheduler.t ->
  ?name:string ->
  ?group:Sched.Scheduler.group ->
  (unit -> ('r, 'e) result) ->
  ('r, 'e) Promise.t
(** [fork sched body] starts [body] in a fresh fiber and returns the
    promise for its outcome. [group] attaches the new process to a
    termination group (used by coenter-style structures). *)

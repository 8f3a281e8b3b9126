(** Lightweight actions: all-or-nothing local computations.

    Argus runs computations as atomic transactions so that, e.g.,
    "running the recording process as an atomic transaction can ensure
    that if it is not possible to record all grades, none will be
    recorded" (§4.2). Full Argus transactions (two-phase commit, stable
    storage, distributed abort) are beyond this paper's scope; what the
    paper's examples rely on is the local all-or-nothing effect, which
    this module provides with an undo log.

    Inside [run], code registers compensations with {!on_abort} as it
    makes changes. If the body returns, the action commits and the
    compensations are dropped. If it raises — including
    {!Sched.Scheduler.Terminated} when a coenter terminates the arm —
    the compensations run in reverse order (inside a critical section,
    so wounding cannot interrupt the undo) and the exception is
    re-raised. *)

type t

val run : Sched.Scheduler.t -> (t -> 'r) -> 'r
(** Execute the body as an action. Nested actions are independent:
    an inner abort does not abort the outer action. *)

val on_abort : t -> (unit -> unit) -> unit
(** Register a compensation to perform if this action aborts. *)

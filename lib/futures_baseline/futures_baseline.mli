(** MultiLisp-style futures: the baseline promises are compared against
    in §3.3 of the paper.

    In MultiLisp "an object of any type can be a future for a value
    that will arrive later. When the value is needed in a computation
    (e.g., for an addition), it is claimed automatically". The paper
    identifies two costs, both reproduced here:

    - {e dynamic checking}: every primitive operation must inspect its
      operands' runtime tags to discover whether they are futures
      before it can proceed ({!touch} inside {!add} etc.) — promises
      avoid this entirely because the type system separates promises
      from ordinary values (benchmark E7);
    - {e exceptions become error values}: a failing computation yields
      an {!constructor:Err} value that silently propagates through
      enclosing expressions, so the program that finally observes it
      cannot tell where or why it arose (tested in the suite; compare
      the typed [Signal]/[Failure] outcomes of promises).

    Values are dynamically typed ({!dyn}); futures are just another
    runtime tag. *)

type dyn =
  | Int of int
  | Real of float
  | Str of string
  | Bool of bool
  | Nil
  | Cons of dyn * dyn
  | Fut of future
  | Err of string  (** an exception turned into an error value *)

and future

(** {1 Creating futures} *)

val future : Sched.Scheduler.t -> (unit -> dyn) -> dyn
(** [(future e)]: evaluate [e] in a parallel process; the result is
    immediately usable as a value. An exception inside [e] becomes an
    [Err] value. *)

val make_unresolved : Sched.Scheduler.t -> dyn * (dyn -> unit)
(** A future plus its resolver, for plumbing by hand. *)

val touch : dyn -> dyn
(** Force a value: if it is a (chain of) future(s), park until resolved
    and return the underlying non-future value. Every strict primitive
    below touches its operands first — that is the per-access dynamic
    check promises eliminate. *)

(** {1 Strict primitives (dynamic checks + error-value propagation)} *)

val add : dyn -> dyn -> dyn

val sub : dyn -> dyn -> dyn

val mul : dyn -> dyn -> dyn

val eq : dyn -> dyn -> dyn

val pp : Format.formatter -> dyn -> unit

val sum_list : dyn -> dyn
(** Fold {!add} over a list value — the E7 workload. *)

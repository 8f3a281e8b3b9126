module S = Sched.Scheduler

type dyn =
  | Int of int
  | Real of float
  | Str of string
  | Bool of bool
  | Nil
  | Cons of dyn * dyn
  | Fut of future
  | Err of string

and future = {
  f_sched : S.t;
  mutable f_state : fstate;
}

and fstate = Pending of (dyn -> unit) list | Resolved of dyn

let make_unresolved sched =
  let f = { f_sched = sched; f_state = Pending [] } in
  let resolve v =
    match f.f_state with
    | Resolved _ -> invalid_arg "Futures_baseline: future already resolved"
    | Pending hooks ->
        f.f_state <- Resolved v;
        List.iter (fun hook -> hook v) (List.rev hooks)
  in
  (Fut f, resolve)

let future sched body =
  let fut, resolve = make_unresolved sched in
  ignore
    (S.spawn sched ~name:"future" (fun () ->
         match body () with
         | v -> resolve v
         | exception S.Terminated -> raise S.Terminated
         | exception e ->
             (* "exceptions are turned into error values automatically" *)
             resolve (Err (Printexc.to_string e))))
    ;
  fut

(* The per-access dynamic check: every strict use of a value must test
   for the future tag (and possibly park) before computing. *)
let rec touch v =
  match v with
  | Fut f -> (
      match f.f_state with
      | Resolved inner -> touch inner
      | Pending _ ->
          let inner =
            S.suspend f.f_sched (fun w ->
                match f.f_state with
                | Resolved inner -> ignore (S.wake w inner : bool)
                | Pending hooks ->
                    f.f_state <- Pending ((fun res -> ignore (S.wake w res : bool)) :: hooks))
          in
          touch inner)
  | Int _ | Real _ | Str _ | Bool _ | Nil | Cons _ | Err _ -> v

(* Error values propagate through strict operations, discarding any
   information about which operand failed — the §3.3 criticism. *)
let strict2 name f a b =
  match touch a with
  | Err _ as e -> e
  | a' -> (
      match touch b with
      | Err _ as e -> e
      | b' -> (
          match f a' b' with
          | Some v -> v
          | None -> Err (Printf.sprintf "wrong type of argument to %s" name)))

let num_op name int_op real_op =
  strict2 name (fun a b ->
      match (a, b) with
      | Int x, Int y -> Some (Int (int_op x y))
      | Real x, Real y -> Some (Real (real_op x y))
      | Int x, Real y -> Some (Real (real_op (float_of_int x) y))
      | Real x, Int y -> Some (Real (real_op x (float_of_int y)))
      | _ -> None)

let add a b = num_op "+" ( + ) ( +. ) a b

let sub a b = num_op "-" ( - ) ( -. ) a b

let mul a b = num_op "*" ( * ) ( *. ) a b

let eq a b = strict2 "=" (fun a b -> Some (Bool (a = b))) a b

let rec pp ppf = function
  | Int i -> Format.pp_print_int ppf i
  | Real r -> Format.fprintf ppf "%g" r
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.pp_print_bool ppf b
  | Nil -> Format.pp_print_string ppf "()"
  | Cons (h, t) -> Format.fprintf ppf "(%a . %a)" pp h pp t
  | Fut { f_state = Resolved v; _ } -> Format.fprintf ppf "#<future %a>" pp v
  | Fut { f_state = Pending _; _ } -> Format.pp_print_string ppf "#<future pending>"
  | Err m -> Format.fprintf ppf "#<error %s>" m

let rec sum_list v =
  match touch v with
  | Nil -> Int 0
  | Err _ as e -> e
  | Cons (h, t) -> add h (sum_list t)
  | _ -> Err "wrong type of argument to sum_list"

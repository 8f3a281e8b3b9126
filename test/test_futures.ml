(* Tests for the MultiLisp-style futures baseline (§3.3): dynamic
   checking, implicit touching, and exception-as-error-value
   propagation (including the loss of context the paper criticises). *)

module S = Sched.Scheduler
module F = Futures_baseline

let check = Alcotest.check

let run_ok sched =
  match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked _ -> Alcotest.fail "deadlock"
  | S.Time_limit -> Alcotest.fail "time limit"

let is_future = function F.Fut _ -> true | _ -> false

let car v = match F.touch v with F.Cons (h, _) -> h | _ -> F.Err "wrong type of argument to car"

let dyn_of_int_list xs = List.fold_right (fun x acc -> F.Cons (F.Int x, acc)) xs F.Nil

let test_plain_arithmetic () =
  check Alcotest.bool "int add" true (F.add (F.Int 2) (F.Int 3) = F.Int 5);
  check Alcotest.bool "real add" true (F.add (F.Real 1.5) (F.Real 2.0) = F.Real 3.5);
  check Alcotest.bool "mixed promotes" true (F.add (F.Int 1) (F.Real 0.5) = F.Real 1.5);
  check Alcotest.bool "sub" true (F.sub (F.Int 5) (F.Int 3) = F.Int 2);
  check Alcotest.bool "mul" true (F.mul (F.Int 4) (F.Int 6) = F.Int 24);
  check Alcotest.bool "eq" true (F.eq (F.Str "a") (F.Str "a") = F.Bool true)

let test_type_errors_become_error_values () =
  match F.add (F.Int 1) (F.Str "x") with
  | F.Err _ -> ()
  | v -> Alcotest.failf "expected error value, got %s" (Format.asprintf "%a" F.pp v)

let test_future_resolves_and_touches () =
  let sched = S.create () in
  let result = ref F.Nil in
  ignore
    (S.spawn sched (fun () ->
         let fut =
           F.future sched (fun () ->
               S.sleep sched 1.0;
               F.Int 21)
         in
         (* using the future in arithmetic touches it implicitly *)
         result := F.mul fut (F.Int 2)));
  run_ok sched;
  check Alcotest.bool "implicit claim" true (!result = F.Int 42)

let test_touch_blocks_until_resolved () =
  let sched = S.create () in
  let at = ref 0.0 in
  let fut, resolve = F.make_unresolved sched in
  ignore
    (S.spawn sched (fun () ->
         ignore (F.touch fut : F.dyn);
         at := S.now sched));
  ignore
    (S.spawn sched (fun () ->
         S.sleep sched 2.0;
         resolve (F.Int 1)));
  run_ok sched;
  check (Alcotest.float 1e-9) "blocked until resolution" 2.0 !at

let test_chained_futures_touch_through () =
  let sched = S.create () in
  let f1, r1 = F.make_unresolved sched in
  let f2, r2 = F.make_unresolved sched in
  r2 (F.Int 9);
  r1 f2; (* a future resolving to another future *)
  check Alcotest.bool "touch chases chains" true (F.touch f1 = F.Int 9)

let test_cons_is_nonstrict () =
  let sched = S.create () in
  let fut, _resolve = F.make_unresolved sched in
  (* cons does not touch: building a list of pending futures is fine *)
  let lst = F.Cons (fut, F.Nil) in
  check Alcotest.bool "car returns the untouched future" true (is_future (car lst))

let test_exception_becomes_error_value () =
  let sched = S.create () in
  let out = ref F.Nil in
  ignore
    (S.spawn sched (fun () ->
         let fut = F.future sched (fun () -> failwith "deep inside the computation") in
         (* The paper's §3.3 point: by the time the error is observed,
            the surrounding expression has swallowed the context — the
            consumer only sees an opaque error value. *)
         out := F.add (F.mul fut (F.Int 2)) (F.Int 1)));
  run_ok sched;
  match !out with
  | F.Err _ -> ()
  | v -> Alcotest.failf "expected propagated error value, got %s" (Format.asprintf "%a" F.pp v)

let test_error_value_propagates_through_sum () =
  let sched = S.create () in
  let fut, resolve = F.make_unresolved sched in
  resolve (F.Err "bad element");
  let lst = dyn_of_int_list [ 1; 2; 3 ] in
  let with_err = F.Cons (fut, lst) in
  match F.sum_list with_err with
  | F.Err _ -> ()
  | v -> Alcotest.failf "sum over error should be error, got %s" (Format.asprintf "%a" F.pp v)

let test_sum_list () =
  check Alcotest.bool "sum" true (F.sum_list (dyn_of_int_list [ 1; 2; 3; 4 ]) = F.Int 10);
  check Alcotest.bool "empty" true (F.sum_list F.Nil = F.Int 0)

let test_double_resolution_rejected () =
  let sched = S.create () in
  let _fut, resolve = F.make_unresolved sched in
  resolve (F.Int 1);
  match resolve (F.Int 2) with
  | () -> Alcotest.fail "double resolution should be rejected"
  | exception Invalid_argument _ -> ()

let test_many_futures_parallel () =
  let sched = S.create () in
  let total = ref F.Nil in
  ignore
    (S.spawn sched (fun () ->
         let futs =
           List.init 50 (fun i ->
               F.future sched (fun () ->
                   S.sleep sched 1.0;
                   F.Int i))
         in
         let lst = List.fold_right (fun h t -> F.Cons (h, t)) futs F.Nil in
         total := F.sum_list lst));
  run_ok sched;
  check Alcotest.bool "sum of 0..49" true (!total = F.Int 1225);
  ()

let prop_sum_matches_plain =
  QCheck.Test.make ~name:"future sum equals plain sum" ~count:100 QCheck.(list small_int)
    (fun xs ->
      F.sum_list (dyn_of_int_list xs) = F.Int (List.fold_left ( + ) 0 xs))

let suite =
  [
    ( "dynamic-ops",
      [
        Alcotest.test_case "plain arithmetic" `Quick test_plain_arithmetic;
        Alcotest.test_case "type errors become error values" `Quick
          test_type_errors_become_error_values;
        Alcotest.test_case "sum_list" `Quick test_sum_list;
        QCheck_alcotest.to_alcotest prop_sum_matches_plain;
      ] );
    ( "futures",
      [
        Alcotest.test_case "resolve + implicit touch" `Quick test_future_resolves_and_touches;
        Alcotest.test_case "touch blocks" `Quick test_touch_blocks_until_resolved;
        Alcotest.test_case "touch chases chains" `Quick test_chained_futures_touch_through;
        Alcotest.test_case "cons is non-strict" `Quick test_cons_is_nonstrict;
        Alcotest.test_case "double resolution rejected" `Quick test_double_resolution_rejected;
        Alcotest.test_case "many futures in parallel" `Quick test_many_futures_parallel;
      ] );
    ( "error-values (§3.3)",
      [
        Alcotest.test_case "exception becomes error value" `Quick
          test_exception_becomes_error_value;
        Alcotest.test_case "error propagates through sum" `Quick
          test_error_value_propagates_through_sum;
      ] );
  ]

let () = Alcotest.run "futures_baseline" suite

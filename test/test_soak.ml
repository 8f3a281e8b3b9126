(* Soak gate: nothing outlives its call. Each workload runs on one
   long-lived simulated connection: a warm-up fills every bounded
   structure (the node outcome registry) to its cap, then the
   live heap is read after N and after 2N more operations. The growth
   between the two reads, per operation, must stay under [bound_words]:
   a structure that keeps one small record per call costs at least 6
   words per call, while measurement noise stays under one word.

   Sim only, so it runs in the default test suite: `dune build @soak`
   runs it alone. Stream restart cycles are left out: each restart
   still keeps a few hundred words of per-incarnation state. *)

module S = Sched.Scheduler
module P = Core.Promise
module R = Core.Remote
module CH = Cstream.Chanhub
module GC = Cstream.Group_config
module F = Workloads.Fixtures

let warmup = 2_000

let n = 10_000

let bound_words = 2.0

(* Two collections: the first can leave the previous cycle's floating
   garbage behind (a single call was seen to misread by tens of words
   per operation). *)
let live_words () =
  Gc.full_major ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let expect_normal want = function
  | P.Normal v when v = want -> ()
  | P.Normal v -> Alcotest.failf "wrong reply %d, wanted %d" v want
  | P.Signal _ | P.Unavailable _ | P.Failure _ -> Alcotest.fail "abnormal reply"

(* A workload: its scheduler and [ops k first], which performs
   operations [first .. first + k - 1] inside a fiber. *)
type workload = { sched : S.t; ops : int -> int -> unit }

let run_ops w k first =
  ignore (S.spawn w.sched ~name:"soak" (fun () -> w.ops k first) : S.fiber);
  match S.run w.sched with
  | S.Completed -> ()
  | S.Deadlocked _ | S.Time_limit -> Alcotest.fail "soak run did not complete"

let soak make () =
  let w = make () in
  run_ops w warmup 0;
  run_ops w n warmup;
  let at_n = live_words () in
  run_ops w n (warmup + n);
  let at_2n = live_words () in
  (* The world must still be reachable at the second read. *)
  ignore (Sys.opaque_identity w : workload);
  let per_op = float_of_int (at_2n - at_n) /. float_of_int n in
  Printf.printf "live words %d at op %d, %d at op %d: %+.2f words per op\n" at_n (warmup + n)
    at_2n (warmup + (2 * n)) per_op;
  if per_op > bound_words then
    Alcotest.failf "live heap grew %.2f words per op between op %d and op %d (bound %.0f)"
      per_op (warmup + n) (warmup + (2 * n)) bound_words

let rpc_world ?(group = GC.default) () =
  let pair = F.make_pair ~group_config:GC.(group |> with_reply_config CH.rpc_config) () in
  (pair.F.sched, F.work_handle pair ~config:CH.rpc_config ~agent:"soak" ())

let rpc ?group () =
  let sched, h = rpc_world ?group () in
  {
    sched;
    ops =
      (fun k first ->
        for i = first to first + k - 1 do
          expect_normal i (R.rpc h i)
        done);
  }

let typed_rpc () = rpc ()

let dedup_rpc () = rpc ~group:GC.(default |> with_dedup) ()

(* Depth-4 chains on an unordered group: dependents park in the
   pipelining registry until their producer's outcome lands. *)
let depth = 4

let chains () =
  let pair =
    F.make_pair
      ~group_config:GC.(default |> with_reply_config CH.adaptive_config |> with_ordered false)
      ()
  in
  let h = F.work_handle pair ~config:CH.adaptive_config ~agent:"soak" () in
  {
    sched = pair.F.sched;
    ops =
      (fun k first ->
        for i = first to first + k - 1 do
          let p = ref R.Call.(submit (make h i)) in
          for _ = 2 to depth do
            p := R.Call.(submit (piped h (R.pipe !p)))
          done;
          R.flush h;
          expect_normal i (P.claim !p)
        done);
  }

(* The paper's stream case: 64 calls outstanding with adaptive
   batching, claimed oldest first. *)
let window = 64

let stream_batches () =
  let pair = F.make_pair ~group_config:GC.(default |> with_reply_config CH.adaptive_config) () in
  let h = F.work_handle pair ~config:CH.adaptive_config ~agent:"soak" () in
  let pending = Array.make window (P.resolved pair.F.sched (P.Normal 0)) in
  let claim i = expect_normal i (P.claim pending.(i mod window)) in
  {
    sched = pair.F.sched;
    ops =
      (fun k first ->
        for i = first to first + k - 1 do
          if i - first >= window then claim (i - window);
          pending.(i mod window) <- R.Call.(submit (make h i))
        done;
        for i = max first (first + k - window) to first + k - 1 do
          claim i
        done);
  }

let () =
  Alcotest.run "soak"
    [
      ( "live heap per op",
        [
          Alcotest.test_case "typed RPC" `Quick (soak typed_rpc);
          Alcotest.test_case "dedup RPC" `Quick (soak dedup_rpc);
          Alcotest.test_case "depth-4 pipelined chains, unordered" `Quick (soak chains);
          Alcotest.test_case "stream batches, 64 outstanding" `Quick (soak stream_batches);
        ] );
    ]

let registry : (string * (unit -> Table.t)) list =
  [
    ("E1", fun () -> Exp_streams.e1 ());
    ("E2", fun () -> Exp_streams.e2 ());
    ("E3", fun () -> Exp_compose.e3 ());
    ("E4", fun () -> Exp_compose.e4 ());
    ("E5", fun () -> Exp_fork.e5 ());
    ("E6", fun () -> Exp_failure.e6 ());
    ("E7", fun () -> Exp_chaos.e7 ());
    ("E8", fun () -> Exp_sendrecv.e8 ());
    ("E9", fun () -> Exp_streams.e9 ());
    ("E12", fun () -> Exp_wire.e12 ());
    ("E13", fun () -> Exp_pipeline.e13 ());
    ("E14", fun () -> Exp_shard.e14 ());
    ("E15", fun () -> Exp_overload.e15 ());
    ("E16", fun () -> Exp_domains.e16 ());
    ("E17", fun () -> Exp_transport.e17 ());
    ("E18", fun () -> Exp_views.e18 ());
    ("E19", fun () -> Exp_handoff.e19 ());
    ("A1", fun () -> Exp_ablation.a1 ());
    ("A2", fun () -> Exp_ablation.a2 ());
  ]

let all_ids = List.map fst registry

let run id =
  match List.assoc_opt (String.uppercase_ascii id) registry with
  | Some f -> f ()
  | None -> raise Not_found

let run_all () = List.map (fun (_, f) -> f ()) registry

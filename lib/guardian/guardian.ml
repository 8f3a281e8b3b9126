module S = Sched.Scheduler
module CH = Cstream.Chanhub
module T = Cstream.Target
module W = Cstream.Wire
module GC = Cstream.Group_config

type t = {
  g_hub : CH.hub;
  g_name : string;
  g_sched : S.t;
  groups : (string, group_state) Hashtbl.t;
  mutable destroyed : bool;
}

and group_state = { target : T.t; ports : (string, reg) Hashtbl.t; config : GC.t }
(* [config] is the configuration the group was {e registered} with,
   kept so a later [get_group] with a conflicting config fails loudly
   instead of silently ignoring it. *)

and reg = Reg : ('a, 'r, 'e) Core.Sigs.hsig * (ctx -> 'a -> ('r, 'e) result) -> reg

and ctx = { caller : Net.address; sched : S.t; guardian : t }

let name t = t.g_name

let address t = CH.hub_addr t.g_hub

let sched t = t.g_sched

let hub t = t.g_hub

let group_names t = Hashtbl.fold (fun g _ acc -> g :: acc) t.groups [] |> List.sort compare

let port_ref t ~group ~port =
  { Core.Sigs.pr_addr = address t; pr_group = group; pr_port = port }

(* Run one handler call in its own fiber; [reply] fires exactly once
   unless the execution is orphaned (its stream died, taking the reply
   path with it). With [offload] set (docs/DOMAINS.md), the handler
   {e body} runs on a pool worker domain — the fiber parks in
   {!Sched.Pool.run} and everything around the body (decode, encode,
   reply sequencing, dedup, pipelining) stays on the simulator
   domain. *)
let run_handler t conn ~dedup ~offload ~reply (Reg (hs, impl)) ~args ~caller =
  match Xdr.decode hs.Core.Sigs.arg_c args with
  | Error reason ->
      (* §3: decode failure => failure reply, then the stream breaks. *)
      reply (W.W_failure ("could not decode: " ^ reason));
      T.break_conn conn ~reason:"argument decode failure at receiver"
  | Ok arg ->
      (* Orphan destruction: if the stream goes away while the handler
         is still running, the connection's group kill destroys the
         execution. With dedup on, the opposite is required: the
         execution must run to completion so its outcome lands in the
         node's registry, where the supervisor's resubmission of the
         same call-id finds it instead of executing the handler a
         second time. *)
      let group = if dedup then None else Some (T.conn_group conn) in
      ignore
        (S.spawn t.g_sched
          ~name:(Printf.sprintf "%s#%s" t.g_name hs.Core.Sigs.hname)
          ~daemon:true ?group
          (fun () ->
            let ctx = { caller; sched = t.g_sched; guardian = t } in
            let invoke () =
              match offload with
              | None -> impl ctx arg
              | Some pool -> Sched.Pool.run pool (fun () -> impl ctx arg)
            in
            match invoke () with
            | Ok r -> (
                match Xdr.encode hs.Core.Sigs.res_c r with
                | Ok v -> reply (W.W_normal v)
                | Error reason ->
                    reply (W.W_failure ("could not encode result: " ^ reason));
                    T.break_conn conn ~reason:"result encode failure at receiver")
            | Error e -> (
                match hs.Core.Sigs.sig_c.Core.Sigs.enc_sig e with
                | Ok (sig_name, payload) -> reply (W.W_signal (sig_name, payload))
                | Error reason ->
                    reply (W.W_failure ("could not encode signal: " ^ reason));
                    T.break_conn conn ~reason:"signal encode failure at receiver")
            | exception S.Terminated -> raise S.Terminated
            | exception e ->
                (* A crashed handler body is the call's error, not the
                   stream's: reply failure and keep the stream alive. *)
                reply (W.W_failure ("handler crashed: " ^ Printexc.to_string e)))
          : S.fiber)

let dispatch t ports ~dedup ~offload conn ~seq:_ ~port ~kind:_ ~args ~reply =
  match Hashtbl.find_opt ports port with
  | None -> reply (W.W_failure "handler does not exist")
  | Some reg ->
      run_handler t conn ~dedup ~offload ~reply reg ~args ~caller:(T.conn_src conn)

let get_group t ~group ?config () =
  match Hashtbl.find_opt t.groups group with
  | Some state ->
      (* The group already exists: a config passed explicitly must be
         the one the group was registered with — returning the existing
         group while silently dropping a conflicting configuration
         hides real bugs (a dedup group that is not deduplicating, a
         sharded group running on one lane). Omitting [config] always
         passes. *)
      (match config with
      | Some gc when not (GC.equal gc state.config) ->
          invalid_arg
            (Printf.sprintf
               "Guardian.get_group: group %S of guardian %S already exists with a \
                different configuration (fields: %s)"
               group t.g_name
               (String.concat ", " (GC.diff gc state.config)))
      | Some _ | None -> ());
      state
  | None ->
      let gc = Option.value ~default:GC.default config in
      let ports = Hashtbl.create 8 in
      let target =
        T.create t.g_hub ~gid:group ~config:gc (fun conn ~seq ~port ~kind ~args ~reply ->
            dispatch t ports ~dedup:gc.GC.dedup ~offload:gc.GC.offload conn ~seq ~port
              ~kind ~args ~reply)
      in
      let state = { target; ports; config = gc } in
      Hashtbl.replace t.groups group state;
      state

let register_group t ~group ?config () = ignore (get_group t ~group ?config () : group_state)

let register t ~group hs impl =
  let state = get_group t ~group () in
  Hashtbl.replace state.ports hs.Core.Sigs.hname (Reg (hs, impl))

let create hub ~name =
  (* A guardian's node can own forwarded calls (docs/HANDOFF.md):
     start accepting outcome pushes as soon as the guardian exists,
     not only once its first port group is registered. *)
  CH.handoff_listen hub;
  {
    g_hub = hub;
    g_name = name;
    g_sched = CH.hub_sched hub;
    groups = Hashtbl.create 8;
    destroyed = false;
  }

let destroy t =
  if not t.destroyed then begin
    t.destroyed <- true;
    Hashtbl.iter (fun _ state -> T.close state.target) t.groups;
    Hashtbl.reset t.groups
  end

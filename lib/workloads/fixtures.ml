module S = Sched.Scheduler
module CH = Cstream.Chanhub
module G = Argus.Guardian
module R = Core.Remote

type pair = {
  sched : S.t;
  net : CH.frame Net.t;
  client_node : Net.node;
  server_node : Net.node;
  client_hub : CH.hub;
  server : G.t;
}

type mode = Rpc | Stream of int | Send_mode of int | Adaptive

let mode_name = function
  | Rpc -> "RPC"
  | Stream b -> Printf.sprintf "stream B=%d" b
  | Send_mode b -> Printf.sprintf "send B=%d" b
  | Adaptive -> "stream adaptive"

let chan_config = function
  | Rpc -> CH.rpc_config
  | Stream b | Send_mode b -> { CH.default_config with CH.max_batch = b; flush_interval = 1e-3 }
  | Adaptive -> CH.adaptive_config

let work_sig = Core.Sigs.hsig0 "work" ~arg:Xdr.int ~res:Xdr.int

let make_pair ?(cfg = Net.default_config) ?(seed = 42) ?(service = 0.0) ?group_config
    ?(ack_delay = 0.0) () =
  let sched = S.create ~seed () in
  let net = Net.create sched cfg in
  let client_node = Net.add_node net ~name:"client" in
  let server_node = Net.add_node net ~name:"server" in
  let client_hub = CH.create_hub ~ack_delay ~net:(net, client_node) () in
  let server_hub = CH.create_hub ~ack_delay ~net:(net, server_node) () in
  let server = G.create server_hub ~name:"server" in
  (match group_config with
  | Some gc -> G.register_group server ~group:"main" ~config:gc ()
  | None -> ());
  G.register server ~group:"main" work_sig (fun ctx n ->
      if service > 0.0 then S.sleep ctx.G.sched service;
      Ok n);
  { sched; net; client_node; server_node; client_hub; server }

let work_handle pair ?config ~agent () =
  let ag = Core.Agent.create pair.client_hub ~name:agent ?config () in
  R.bind ag ~dst:(Net.address pair.server_node) ~gid:"main" work_sig

type grades_world = {
  g_sched : S.t;
  g_net : CH.frame Net.t;
  g_client_node : Net.node;
  g_db_node : Net.node;
  g_printer_node : Net.node;
  g_client_hub : CH.hub;
  g_db : G.t;
  g_printer : G.t;
  g_printed : string list ref;
  g_db_busy : (float * float) list ref;
  g_print_busy : (float * float) list ref;
}

let record_grade_sig =
  Core.Sigs.hsig0 "record_grade" ~arg:(Xdr.pair Xdr.string Xdr.int) ~res:Xdr.real

let print_sig = Core.Sigs.hsig0 "print" ~arg:Xdr.string ~res:Xdr.unit

let make_grades_world ?(cfg = Net.default_config) ?(seed = 42) ?(db_service = 0.0)
    ?(print_service = 0.0) ?group_config () =
  let sched = S.create ~seed () in
  let net = Net.create sched cfg in
  let g_client_node = Net.add_node net ~name:"client" in
  let g_db_node = Net.add_node net ~name:"db" in
  let g_printer_node = Net.add_node net ~name:"printer" in
  let g_client_hub = CH.create_hub ~net:(net, g_client_node) () in
  let db_hub = CH.create_hub ~net:(net, g_db_node) () in
  let printer_hub = CH.create_hub ~net:(net, g_printer_node) () in
  let g_db = G.create db_hub ~name:"grades-db" in
  let g_printer = G.create printer_hub ~name:"printer" in
  (match group_config with
  | Some gc ->
      G.register_group g_db ~group:"grades" ~config:gc ();
      G.register_group g_printer ~group:"output" ~config:gc ()
  | None -> ());
  let totals : (string, int * int) Hashtbl.t = Hashtbl.create 64 in
  let g_db_busy = ref [] and g_print_busy = ref [] in
  let busy intervals ctx dt =
    let start = S.now ctx.G.sched in
    if dt > 0.0 then S.sleep ctx.G.sched dt;
    intervals := (start, S.now ctx.G.sched) :: !intervals
  in
  G.register g_db ~group:"grades" record_grade_sig (fun ctx (stu, grade) ->
      busy g_db_busy ctx db_service;
      let count, total = Option.value ~default:(0, 0) (Hashtbl.find_opt totals stu) in
      let count = count + 1 and total = total + grade in
      Hashtbl.replace totals stu (count, total);
      Ok (float_of_int total /. float_of_int count));
  let g_printed = ref [] in
  G.register g_printer ~group:"output" print_sig (fun ctx line ->
      busy g_print_busy ctx print_service;
      g_printed := line :: !g_printed;
      Ok ());
  {
    g_sched = sched;
    g_net = net;
    g_client_node;
    g_db_node;
    g_printer_node;
    g_client_hub;
    g_db;
    g_printer;
    g_printed;
    g_db_busy;
    g_print_busy;
  }

let students n =
  List.init n (fun i -> (Printf.sprintf "stu%05d" i, 50 + ((i * 7919) mod 50)))

let db_handle w ?config ~agent () =
  let ag = Core.Agent.create w.g_client_hub ~name:agent ?config () in
  R.bind ag ~dst:(Net.address w.g_db_node) ~gid:"grades" record_grade_sig

let print_handle w ?config ~agent () =
  let ag = Core.Agent.create w.g_client_hub ~name:agent ?config () in
  R.bind ag ~dst:(Net.address w.g_printer_node) ~gid:"output" print_sig

exception Deadlock of string list

let timed_run sched body =
  let finished_at = ref nan in
  let failed = ref None in
  ignore
    (S.spawn sched ~name:"experiment-main" (fun () ->
         (match body () with () -> () | exception e -> failed := Some e);
         finished_at := S.now sched));
  (match S.run sched with
  | S.Completed -> ()
  | S.Deadlocked fs -> raise (Deadlock (List.map S.fiber_name fs))
  | S.Time_limit -> failwith "timed_run: time limit");
  (match !failed with Some e -> raise e | None -> ());
  if Float.is_nan !finished_at then failwith "timed_run: body did not finish";
  !finished_at

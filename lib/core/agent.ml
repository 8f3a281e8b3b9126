module SE = Cstream.Stream_end

type t = {
  a_hub : Cstream.Chanhub.hub;
  a_name : string;
  a_config : Cstream.Chanhub.config;
  streams : (Net.address * string, SE.t) Hashtbl.t;
}

let create hub ~name ?(config = Cstream.Chanhub.default_config) () =
  { a_hub = hub; a_name = name; a_config = config; streams = Hashtbl.create 8 }

let name t = t.a_name

let sched t = Cstream.Chanhub.hub_sched t.a_hub

let hub t = t.a_hub

let stream_to t ~dst ~gid =
  match Hashtbl.find_opt t.streams (dst, gid) with
  | Some stream -> stream
  | None ->
      let stream =
        SE.create t.a_hub ~agent:t.a_name ~dst ~gid ~config:t.a_config ()
      in
      Hashtbl.replace t.streams (dst, gid) stream;
      stream

let flush_all t = Hashtbl.iter (fun _ stream -> SE.flush stream) t.streams

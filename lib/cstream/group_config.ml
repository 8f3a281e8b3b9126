type t = {
  reply_config : Chanhub.config;
  ordered : bool;
  dedup : bool;
  dedup_cache : int;
  shards : int;
  pipeline : Wire.routcome Pipeline.Registry.t option;
  shed_hwm : int option;
  offload : Sched.Pool.t option;
}

let default =
  {
    reply_config = Chanhub.default_config;
    ordered = true;
    dedup = false;
    dedup_cache = 1024;
    shards = 1;
    pipeline = None;
    shed_hwm = None;
    offload = None;
  }

let with_reply_config reply_config t = { t with reply_config }

let with_ordered ordered t = { t with ordered }

let with_dedup ?(cache = 1024) t = { t with dedup = true; dedup_cache = cache }

let without_dedup t = { t with dedup = false }

let with_shards shards t =
  if shards <= 0 then invalid_arg "Group_config.with_shards: shards must be positive";
  { t with shards }

let with_shed hwm t =
  if hwm <= 0 then invalid_arg "Group_config.with_shed: high-water mark must be positive";
  { t with shed_hwm = Some hwm }

let with_offload pool t = { t with offload = Some pool }

(* Whole-config equality, used by {!Guardian.get_group} to detect a
   conflicting re-registration. The abstract fields ([pipeline],
   [offload]) compare physically: re-passing the same value is
   compatible, a different one conflicts — registries and pools have
   no structural equality to offer. *)
let equal a b =
  a.reply_config = b.reply_config
  && a.ordered = b.ordered
  && a.dedup = b.dedup
  && a.dedup_cache = b.dedup_cache
  && a.shards = b.shards
  && a.shed_hwm = b.shed_hwm
  && (match (a.pipeline, b.pipeline) with
     | None, None -> true
     | Some r, Some s -> r == s
     | None, Some _ | Some _, None -> false)
  &&
  match (a.offload, b.offload) with
  | None, None -> true
  | Some p, Some q -> p == q
  | None, Some _ | Some _, None -> false

(* The field names on which two configs disagree — the payload of a
   conflict error message. *)
let diff a b =
  List.filter_map
    (fun (name, differs) -> if differs then Some name else None)
    [
      ("reply_config", a.reply_config <> b.reply_config);
      ("ordered", a.ordered <> b.ordered);
      ("dedup", a.dedup <> b.dedup);
      ("dedup_cache", a.dedup_cache <> b.dedup_cache);
      ("shards", a.shards <> b.shards);
      ("shed_hwm", a.shed_hwm <> b.shed_hwm);
      ( "pipeline",
        match (a.pipeline, b.pipeline) with
        | None, None -> false
        | Some r, Some s -> not (r == s)
        | None, Some _ | Some _, None -> true );
      ( "offload",
        match (a.offload, b.offload) with
        | None, None -> false
        | Some p, Some q -> not (p == q)
        | None, Some _ | Some _, None -> true );
    ]

let pp ppf t =
  Format.fprintf ppf
    "{ordered=%b; dedup=%b; dedup_cache=%d; shards=%d; pipeline=%s; shed_hwm=%s; offload=%s}"
    t.ordered t.dedup t.dedup_cache t.shards
    (match t.pipeline with Some _ -> "<registry>" | None -> "none")
    (match t.shed_hwm with Some h -> string_of_int h | None -> "off")
    (match t.offload with
    | Some p -> Printf.sprintf "<pool:%d>" (Sched.Pool.size p)
    | None -> "off")

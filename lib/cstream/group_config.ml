type t = {
  reply_config : Chanhub.config;
  ordered : bool;
  dedup : bool;
  shards : int;
  shed_hwm : int option;
  offload : Sched.Pool.t option;
}

let default =
  {
    reply_config = Chanhub.default_config;
    ordered = true;
    dedup = false;
    shards = 1;
    shed_hwm = None;
    offload = None;
  }

let with_reply_config reply_config t = { t with reply_config }

let with_ordered ordered t = { t with ordered }

let with_dedup t = { t with dedup = true }

let with_shards shards t =
  if shards <= 0 then invalid_arg "Group_config.with_shards: shards must be positive";
  { t with shards }

let with_shed hwm t =
  if hwm <= 0 then invalid_arg "Group_config.with_shed: high-water mark must be positive";
  { t with shed_hwm = Some hwm }

let with_offload pool t = { t with offload = Some pool }

(* Whole-config equality, used by {!Guardian.get_group} to detect a
   conflicting re-registration. The abstract [offload] field compares
   physically: re-passing the same pool is compatible, a different one
   conflicts — pools have no structural equality to offer. *)
let equal a b =
  a.reply_config = b.reply_config
  && a.ordered = b.ordered
  && a.dedup = b.dedup
  && a.shards = b.shards
  && a.shed_hwm = b.shed_hwm
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
      ("shards", a.shards <> b.shards);
      ("shed_hwm", a.shed_hwm <> b.shed_hwm);
      ( "offload",
        match (a.offload, b.offload) with
        | None, None -> false
        | Some p, Some q -> not (p == q)
        | None, Some _ | Some _, None -> true );
    ]

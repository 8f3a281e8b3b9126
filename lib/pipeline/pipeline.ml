let rec fold_refs acc v =
  match v with
  | Xdr.Unit | Xdr.Bool _ | Xdr.Int _ | Xdr.Real _ | Xdr.Str _ -> acc
  | Xdr.Pref r -> if List.exists (fun r' -> r' = r) acc then acc else r :: acc
  | Xdr.Pair (a, b) -> fold_refs (fold_refs acc a) b
  | Xdr.List vs -> List.fold_left fold_refs acc vs
  | Xdr.Record fields -> List.fold_left (fun acc (_, v) -> fold_refs acc v) acc fields
  | Xdr.Tagged (_, v) -> fold_refs acc v

let refs v = List.rev (fold_refs [] v)

let rec has_refs = function
  | Xdr.Unit | Xdr.Bool _ | Xdr.Int _ | Xdr.Real _ | Xdr.Str _ -> false
  | Xdr.Pref _ -> true
  | Xdr.Pair (a, b) -> has_refs a || has_refs b
  | Xdr.List vs -> List.exists has_refs vs
  | Xdr.Record fields -> List.exists (fun (_, v) -> has_refs v) fields
  | Xdr.Tagged (_, v) -> has_refs v

let project ~field v =
  match field with
  | None -> Ok v
  | Some f -> (
      match v with
      | Xdr.Record fields -> (
          match List.assoc_opt f fields with
          | Some fv -> Ok fv
          | None -> Error (Printf.sprintf "produced record has no field %S" f))
      | other ->
          Error
            (Format.asprintf "field selector %S applied to non-record result %a" f Xdr.pp_value
               other))

let ( let* ) = Result.bind

let rec substitute ~lookup v =
  match v with
  | Xdr.Unit | Xdr.Bool _ | Xdr.Int _ | Xdr.Real _ | Xdr.Str _ -> Ok v
  | Xdr.Pref r -> lookup r
  | Xdr.Pair (a, b) ->
      let* a = substitute ~lookup a in
      let* b = substitute ~lookup b in
      Ok (Xdr.Pair (a, b))
  | Xdr.List vs ->
      let* vs = subst_list ~lookup vs in
      Ok (Xdr.List vs)
  | Xdr.Record fields ->
      let rec go acc = function
        | [] -> Ok (Xdr.Record (List.rev acc))
        | (name, fv) :: rest ->
            let* fv = substitute ~lookup fv in
            go ((name, fv) :: acc) rest
      in
      go [] fields
  | Xdr.Tagged (tag, tv) ->
      let* tv = substitute ~lookup tv in
      Ok (Xdr.Tagged (tag, tv))

and subst_list ~lookup = function
  | [] -> Ok []
  | v :: rest ->
      let* v = substitute ~lookup v in
      let* rest = subst_list ~lookup rest in
      Ok (v :: rest)

module Registry = struct
  type waiter = { w_key : string * int; w_id : int }

  type 'o t = {
    cap : int;
    max_waiters : int;
    max_bytes : int;
    bytes_of : 'o -> int;
    on_evict : bytes:int -> unit;
    done_ : (string * int, 'o * int) Hashtbl.t;  (* outcome, encoded size *)
    done_order : (string * int) Queue.t;
    mutable done_count : int;
    mutable byte_count : int;
    waiters : (string * int, (int * ('o -> unit)) list) Hashtbl.t;
    mutable waiter_count : int;
    mutable next_waiter : int;
    (* highest call id evicted from [done_], per stream: a missing key
       at or below this mark was (plausibly) completed and forgotten,
       so parking on it would never return. *)
    evicted_hwm : (string, int) Hashtbl.t;
    scopes : (string, unit) Hashtbl.t;
    (* Ack-tied release (docs/PIPELINE.md): outcomes whose reply item
       was cumulatively acked — no live stream can retransmit a
       reference to them — queued as preferred eviction victims, with
       [released] deduplicating marks. Lazy deletion: either queue may
       hold keys that already left [done_] through the other. *)
    releasable : (string * int) Queue.t;
    released : (string * int, unit) Hashtbl.t;
    mutable acked_evictions : int;
    (* Foreign-owned entries (docs/HANDOFF.md): the outcome will be
       produced on another node and pushed here over a third-party
       stream. Waiters may park on such keys even though no local
       producer stream feeds them; the mark is cleared when the pushed
       outcome is recorded. *)
    foreign : (string * int, unit) Hashtbl.t;
  }

  let create ?(cap = 1024) ?(max_waiters = 4096) ?(max_bytes = max_int)
      ?(bytes_of = fun _ -> 0) ?(on_evict = fun ~bytes:_ -> ()) () =
    {
      cap;
      max_waiters;
      max_bytes;
      bytes_of;
      on_evict;
      done_ = Hashtbl.create 64;
      done_order = Queue.create ();
      done_count = 0;
      byte_count = 0;
      waiters = Hashtbl.create 16;
      waiter_count = 0;
      next_waiter = 0;
      evicted_hwm = Hashtbl.create 8;
      scopes = Hashtbl.create 8;
      releasable = Queue.create ();
      released = Hashtbl.create 64;
      acked_evictions = 0;
      foreign = Hashtbl.create 8;
    }

  let known t = t.done_count

  let bytes t = t.byte_count

  let waiting t = t.waiter_count

  let find t ~stream ~call = Option.map fst (Hashtbl.find_opt t.done_ (stream, call))

  let add_scope t name = Hashtbl.replace t.scopes name ()

  let in_scope t name = Hashtbl.mem t.scopes name

  let mark_foreign t ~stream ~call = Hashtbl.replace t.foreign (stream, call) ()

  let is_foreign t ~stream ~call = Hashtbl.mem t.foreign (stream, call)

  let evicted t ~stream ~call =
    (not (Hashtbl.mem t.done_ (stream, call)))
    &&
    match Hashtbl.find_opt t.evicted_hwm stream with
    | Some hwm -> call <= hwm
    | None -> false

  let acked_evictions t = t.acked_evictions

  let mark_releasable t ~stream ~call =
    let key = (stream, call) in
    if Hashtbl.mem t.done_ key && not (Hashtbl.mem t.released key) then begin
      Hashtbl.replace t.released key ();
      Queue.push key t.releasable
    end

  (* Pick the eviction victim: prefer an outcome whose reply ack proved
     no live stream can still reference it ({!mark_releasable}) over
     pure FIFO age. Stale keys — already gone from [done_] via the
     other queue — are skipped. Termination: the caller only evicts
     while [done_count > 0], and every live key sits in [done_order]. *)
  let rec pop_victim t =
    match Queue.take_opt t.releasable with
    | Some key ->
        Hashtbl.remove t.released key;
        if Hashtbl.mem t.done_ key then begin
          t.acked_evictions <- t.acked_evictions + 1;
          key
        end
        else pop_victim t
    | None ->
        let key = Queue.pop t.done_order in
        if Hashtbl.mem t.done_ key then key else pop_victim t

  let evict_one t =
    let (vstream, vcall) as victim = pop_victim t in
    let vbytes = match Hashtbl.find_opt t.done_ victim with Some (_, b) -> b | None -> 0 in
    Hashtbl.remove t.done_ victim;
    (match Hashtbl.find_opt t.evicted_hwm vstream with
    | Some hwm when hwm >= vcall -> ()
    | Some _ | None -> Hashtbl.replace t.evicted_hwm vstream vcall);
    t.done_count <- t.done_count - 1;
    t.byte_count <- t.byte_count - vbytes;
    t.on_evict ~bytes:vbytes

  let record t ~stream ~call outcome =
    let key = (stream, call) in
    Hashtbl.remove t.foreign key;
    if not (Hashtbl.mem t.done_ key) then begin
      let size = t.bytes_of outcome in
      Hashtbl.replace t.done_ key (outcome, size);
      Queue.push key t.done_order;
      t.done_count <- t.done_count + 1;
      t.byte_count <- t.byte_count + size;
      (* Two budgets, one FIFO: whichever is exhausted first drives
         eviction. An oversized outcome can evict everything including
         itself — its waiters below still fire with the value in hand;
         only later dependents see it as evicted and fail fast. *)
      while t.done_count > t.cap || (t.byte_count > t.max_bytes && t.done_count > 0) do
        evict_one t
      done
    end;
    match Hashtbl.find_opt t.waiters key with
    | None -> ()
    | Some ks ->
        Hashtbl.remove t.waiters key;
        t.waiter_count <- t.waiter_count - List.length ks;
        List.iter (fun (_, k) -> k outcome) (List.rev ks)

  let await t ~stream ~call k =
    let key = (stream, call) in
    match Hashtbl.find_opt t.done_ key with
    | Some (o, _) ->
        k o;
        `Fired
    | None ->
        if t.waiter_count >= t.max_waiters then `Refused
        else begin
          let id = t.next_waiter in
          t.next_waiter <- id + 1;
          let existing = Option.value ~default:[] (Hashtbl.find_opt t.waiters key) in
          Hashtbl.replace t.waiters key ((id, k) :: existing);
          t.waiter_count <- t.waiter_count + 1;
          `Parked { w_key = key; w_id = id }
        end

  let cancel t w =
    match Hashtbl.find_opt t.waiters w.w_key with
    | None -> ()
    | Some ks ->
        let ks' = List.filter (fun (id, _) -> id <> w.w_id) ks in
        if List.length ks' < List.length ks then begin
          t.waiter_count <- t.waiter_count - 1;
          if ks' = [] then Hashtbl.remove t.waiters w.w_key
          else Hashtbl.replace t.waiters w.w_key ks'
        end
end

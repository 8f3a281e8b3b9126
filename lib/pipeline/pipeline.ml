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
    done_ : (string * int, 'o) Hashtbl.t;
    done_order : (string * int) Queue.t;
    mutable done_count : int;
    waiters : (string * int, (int * ('o -> unit)) list) Hashtbl.t;
    mutable waiter_count : int;
    mutable next_waiter : int;
    (* highest call id evicted from [done_], per stream: a missing key
       at or below this mark was (plausibly) completed and forgotten,
       so parking on it would never return. Kept within 2 x [cap]
       entries by dropping the marks of streams with nothing left in
       [done_] ([prune_marks]). *)
    evicted_hwm : (string, int) Hashtbl.t;
    scopes : (string, unit) Hashtbl.t;
    (* Ack-tied release (docs/PIPELINE.md): outcomes whose reply item
       was cumulatively acked — no live stream can retransmit a
       reference to them — queued as preferred eviction victims, with
       [released] deduplicating marks. Lazy deletion: either queue may
       hold keys that already left [done_] through the other; [record]
       compacts [done_order] whenever it passes 2 x [cap]. *)
    releasable : (string * int) Queue.t;
    (* Outcomes pushed here by another node (docs/HANDOFF.md): evicted
       after every releasable outcome, before any un-acked local one.
       [released] deduplicates marks across both queues. *)
    spare : (string * int) Queue.t;
    released : (string * int, unit) Hashtbl.t;
  }

  let create ?(cap = 1024) ?(max_waiters = 4096) () =
    {
      cap;
      max_waiters;
      done_ = Hashtbl.create 64;
      done_order = Queue.create ();
      done_count = 0;
      waiters = Hashtbl.create 16;
      waiter_count = 0;
      next_waiter = 0;
      evicted_hwm = Hashtbl.create 8;
      scopes = Hashtbl.create 8;
      releasable = Queue.create ();
      spare = Queue.create ();
      released = Hashtbl.create 64;
    }

  let known t = t.done_count

  let waiting t = t.waiter_count

  let marks t = Hashtbl.length t.evicted_hwm

  let find t ~stream ~call = Hashtbl.find_opt t.done_ (stream, call)

  let add_scope t name = Hashtbl.replace t.scopes name ()

  let in_scope t name = Hashtbl.mem t.scopes name

  let evicted t ~stream ~call =
    (not (Hashtbl.mem t.done_ (stream, call)))
    &&
    match Hashtbl.find_opt t.evicted_hwm stream with
    | Some hwm -> call <= hwm
    | None -> false

  let mark q t ~stream ~call =
    let key = (stream, call) in
    if Hashtbl.mem t.done_ key && not (Hashtbl.mem t.released key) then begin
      Hashtbl.replace t.released key ();
      Queue.push key q
    end

  let mark_releasable t = mark t.releasable t

  let mark_spare t = mark t.spare t

  (* Pick the eviction victim: prefer an outcome whose reply ack proved
     no live stream can still reference it ({!mark_releasable}), then a
     pushed outcome ({!mark_spare}), over pure FIFO age. Stale keys —
     already gone from [done_] via another queue — are skipped.
     Termination: the caller only evicts while [done_count > cap >= 0],
     and every live key sits in [done_order]. *)
  let rec pop_victim t =
    let marked q =
      let key = Queue.take q in
      Hashtbl.remove t.released key;
      if Hashtbl.mem t.done_ key then key else pop_victim t
    in
    if not (Queue.is_empty t.releasable) then marked t.releasable
    else if not (Queue.is_empty t.spare) then marked t.spare
    else
      let key = Queue.pop t.done_order in
      if Hashtbl.mem t.done_ key then key else pop_victim t

  (* Drop the marks of streams with no outcome left in [done_]: at most
     [cap] marks survive, so pruning past 2 x [cap] is amortised O(1)
     per eviction. A pruned stream's forgotten calls then read as never
     recorded, so a late reference to one parks instead of failing. *)
  let prune_marks t =
    let live = Hashtbl.create 64 in
    Hashtbl.iter (fun (stream, _) _ -> Hashtbl.replace live stream ()) t.done_;
    Hashtbl.filter_map_inplace
      (fun stream hwm -> if Hashtbl.mem live stream then Some hwm else None)
      t.evicted_hwm

  let evict_one t =
    let (vstream, vcall) as victim = pop_victim t in
    Hashtbl.remove t.done_ victim;
    t.done_count <- t.done_count - 1;
    (match Hashtbl.find_opt t.evicted_hwm vstream with
    | Some hwm when hwm >= vcall -> ()
    | Some _ | None -> Hashtbl.replace t.evicted_hwm vstream vcall);
    if Hashtbl.length t.evicted_hwm > 2 * t.cap then prune_marks t

  let record t ~stream ~call outcome =
    let key = (stream, call) in
    if not (Hashtbl.mem t.done_ key) then begin
      Hashtbl.replace t.done_ key outcome;
      Queue.push key t.done_order;
      t.done_count <- t.done_count + 1;
      while t.done_count > t.cap do
        evict_one t
      done;
      (* Outcomes evicted through [releasable] leave their key behind in
         [done_order]. Dropping every key no longer in [done_] keeps the
         queue within 2 x [cap] at amortised O(1) per record, and leaves
         the order of the live keys, hence eviction order, unchanged. *)
      if Queue.length t.done_order - t.cap > t.cap then begin
        let live = Queue.create () in
        Queue.iter (fun k -> if Hashtbl.mem t.done_ k then Queue.push k live) t.done_order;
        Queue.clear t.done_order;
        Queue.transfer live t.done_order
      end
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
    | Some o ->
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

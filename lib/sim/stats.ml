(* Counters are [Atomic.t] so offloaded handler bodies running on pool
   worker domains (docs/DOMAINS.md) can bump them concurrently with the
   simulator domain; on a single domain the atomic ops are equivalent
   to plain mutations, so deterministic runs are unchanged. The
   registration table is guarded by a per-registry mutex — uncontended
   in the pool-off case. *)

type counter = int Atomic.t

type t = { t_m : Mutex.t; counters_tbl : (string, counter) Hashtbl.t }

let locked m f =
  Mutex.lock m;
  match f () with
  | v ->
      Mutex.unlock m;
      v
  | exception e ->
      Mutex.unlock m;
      raise e

let create () = { t_m = Mutex.create (); counters_tbl = Hashtbl.create 16 }

let counter t name =
  locked t.t_m (fun () ->
      match Hashtbl.find_opt t.counters_tbl name with
      | Some c -> c
      | None ->
          let c = Atomic.make 0 in
          Hashtbl.add t.counters_tbl name c;
          c)

let incr c = Atomic.incr c

let add c k = ignore (Atomic.fetch_and_add c k : int)

let count c = Atomic.get c

let peek t name =
  locked t.t_m (fun () ->
      match Hashtbl.find_opt t.counters_tbl name with
      | Some c -> Atomic.get c
      | None -> 0)

let counters t =
  locked t.t_m (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c) :: acc) t.counters_tbl [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let quantile samples q =
  let n = Array.length samples in
  if n = 0 then nan
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let idx = int_of_float (ceil (q *. float_of_int n)) - 1 in
    a.(if idx < 0 then 0 else idx)
  end

(* Runtime values of Mini-Argus and their external representation.

   Promises and queues are runtime-only: the checker rejects them in
   handler signatures, and their codecs fail defensively. Records and
   arrays are mutable, as in CLU/Argus; arguments are passed by
   sharing locally and by value (through the codec) remotely. *)

module P = Core.Promise

type t =
  | Vunit
  | Vint of int
  | Vreal of float
  | Vbool of bool
  | Vstr of string
  | Varr of vec
  | Vrec of (string * t ref) list  (* sorted by field *)
  | Vpromise of (t, string * t list) P.t
  | Vqueue of t Sched.Bqueue.t
  | Vport of port_ref

and port_ref = { vp_addr : int; vp_group : string; vp_port : string }

and vec = { mutable items : t array; mutable len : int }

(* --- growable arrays ------------------------------------------------ *)

let vec_of_list l =
  let items = Array.of_list l in
  { items; len = Array.length items }

let vec_get v i =
  if i < 0 || i >= v.len then None else Some v.items.(i)

let vec_set v i x =
  if i < 0 || i >= v.len then false
  else begin
    v.items.(i) <- x;
    true
  end

let vec_addh v x =
  if v.len = Array.length v.items then begin
    let cap = if v.len = 0 then 8 else 2 * v.len in
    let items = Array.make cap x in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

let vec_to_list v = Array.to_list (Array.sub v.items 0 v.len)

(* --- printing -------------------------------------------------------- *)

let rec pp ppf = function
  | Vunit -> Format.pp_print_string ppf "()"
  | Vint i -> Format.pp_print_int ppf i
  | Vreal r -> Format.fprintf ppf "%g" r
  | Vbool b -> Format.pp_print_bool ppf b
  | Vstr s -> Format.fprintf ppf "%S" s
  | Varr v ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp)
        (vec_to_list v)
  | Vrec fields ->
      let pp_field ppf (f, r) = Format.fprintf ppf "%s = %a" f pp !r in
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") pp_field)
        fields
  | Vpromise p -> Format.fprintf ppf "<promise %s>" (if P.ready p then "ready" else "blocked")
  | Vqueue _ -> Format.pp_print_string ppf "<queue>"
  | Vport p -> Format.fprintf ppf "<port %d/%s/%s>" p.vp_addr p.vp_group p.vp_port

let to_string v = Format.asprintf "%a" pp v

(* --- codecs derived from static types -------------------------------- *)

let rec codec_of_ty (ty : Types.ty) : t Xdr.codec =
  match ty with
  | Types.Tunit ->
      {
        Xdr.type_name = "null";
        encode = (function Vunit -> Ok Xdr.Unit | v -> Error ("not null: " ^ to_string v));
        decode = (function Xdr.Unit -> Ok Vunit | _ -> Error "expected unit");
      }
  | Types.Tint ->
      {
        Xdr.type_name = "int";
        encode = (function Vint i -> Ok (Xdr.Int i) | v -> Error ("not an int: " ^ to_string v));
        decode = (function Xdr.Int i -> Ok (Vint i) | _ -> Error "expected int");
      }
  | Types.Treal ->
      {
        Xdr.type_name = "real";
        encode =
          (function Vreal r -> Ok (Xdr.Real r) | v -> Error ("not a real: " ^ to_string v));
        decode = (function Xdr.Real r -> Ok (Vreal r) | _ -> Error "expected real");
      }
  | Types.Tbool ->
      {
        Xdr.type_name = "bool";
        encode =
          (function Vbool b -> Ok (Xdr.Bool b) | v -> Error ("not a bool: " ^ to_string v));
        decode = (function Xdr.Bool b -> Ok (Vbool b) | _ -> Error "expected bool");
      }
  | Types.Tstr ->
      {
        Xdr.type_name = "string";
        encode =
          (function Vstr s -> Ok (Xdr.Str s) | v -> Error ("not a string: " ^ to_string v));
        decode = (function Xdr.Str s -> Ok (Vstr s) | _ -> Error "expected string");
      }
  | Types.Tarr elem ->
      let ec = codec_of_ty elem in
      let lc = Xdr.list ec in
      {
        Xdr.type_name = "array";
        encode =
          (function
          | Varr v -> lc.Xdr.encode (vec_to_list v)
          | v -> Error ("not an array: " ^ to_string v));
        decode = (fun x -> Result.map (fun l -> Varr (vec_of_list l)) (lc.Xdr.decode x));
      }
  | Types.Trec fields ->
      let codecs = List.map (fun (f, t) -> (f, codec_of_ty t)) fields in
      {
        Xdr.type_name = "record";
        encode =
          (function
          | Vrec vfields ->
              let rec go acc = function
                | [] -> Ok (Xdr.Record (List.rev acc))
                | (f, c) :: rest -> (
                    match List.assoc_opt f vfields with
                    | None -> Error ("missing record field " ^ f)
                    | Some r -> (
                        match c.Xdr.encode !r with
                        | Ok v -> go ((f, v) :: acc) rest
                        | Error e -> Error e))
              in
              go [] codecs
          | v -> Error ("not a record: " ^ to_string v));
        decode =
          (function
          | Xdr.Record xfields ->
              let rec go acc = function
                | [] -> Ok (Vrec (List.rev acc))
                | (f, c) :: rest -> (
                    match List.assoc_opt f xfields with
                    | None -> Error ("missing record field " ^ f)
                    | Some x -> (
                        match c.Xdr.decode x with
                        | Ok v -> go ((f, ref v) :: acc) rest
                        | Error e -> Error e))
              in
              go [] codecs
          | _ -> Error "expected record");
      }
  | Types.Tportv _ ->
      {
        Xdr.type_name = "port";
        encode =
          (function
          | Vport p ->
              Ok (Xdr.Pair (Xdr.Int p.vp_addr, Xdr.Pair (Xdr.Str p.vp_group, Xdr.Str p.vp_port)))
          | v -> Error ("not a port: " ^ to_string v));
        decode =
          (function
          | Xdr.Pair (Xdr.Int a, Xdr.Pair (Xdr.Str g, Xdr.Str p)) ->
              Ok (Vport { vp_addr = a; vp_group = g; vp_port = p })
          | _ -> Error "expected port");
      }
  | Types.Tpromise _ ->
      {
        Xdr.type_name = "promise";
        encode = (fun _ -> Error "promises are not legal as arguments or results");
        decode = (fun _ -> Error "promises are not legal as arguments or results");
      }
  | Types.Tqueue _ ->
      {
        Xdr.type_name = "queue";
        encode = (fun _ -> Error "queues cannot be transmitted");
        decode = (fun _ -> Error "queues cannot be transmitted");
      }

(* Positional argument tuple codec for a handler signature. *)
let args_codec (param_tys : Types.ty list) : t list Xdr.codec =
  let codecs = List.map codec_of_ty param_tys in
  {
    Xdr.type_name = "args";
    encode =
      (fun vs ->
        if List.length vs <> List.length codecs then Error "arity mismatch"
        else
          let rec go acc cs vs =
            match (cs, vs) with
            | [], [] -> Ok (Xdr.List (List.rev acc))
            | c :: cs, v :: vs -> (
                match c.Xdr.encode v with Ok x -> go (x :: acc) cs vs | Error e -> Error e)
            | _ -> Error "arity mismatch"
          in
          go [] codecs vs);
    decode =
      (function
      | Xdr.List xs ->
          if List.length xs <> List.length codecs then Error "arity mismatch"
          else
            let rec go acc cs xs =
              match (cs, xs) with
              | [], [] -> Ok (List.rev acc)
              | c :: cs, x :: xs -> (
                  match c.Xdr.decode x with Ok v -> go (v :: acc) cs xs | Error e -> Error e)
              | _ -> Error "arity mismatch"
            in
            go [] codecs xs
      | _ -> Error "expected argument list");
  }

(* Signal codec for a declared signal set: payloads are positional. *)
let signal_codec (sigs : Types.signal list) : (string * t list) Core.Sigs.signal_codec =
  let payload_codec name =
    match List.find_opt (fun s -> s.Types.sg_name = name) sigs with
    | Some s -> Some (args_codec s.Types.sg_payload)
    | None -> None
  in
  {
    Core.Sigs.enc_sig =
      (fun (name, payload) ->
        match payload_codec name with
        | None -> Error (Printf.sprintf "undeclared signal %s" name)
        | Some c -> (
            match c.Xdr.encode payload with
            | Ok v -> Ok (name, v)
            | Error e -> Error e));
    dec_sig =
      (fun (name, v) ->
        match payload_codec name with
        | None -> Error (Printf.sprintf "undeclared signal %s" name)
        | Some c -> (
            match c.Xdr.decode v with Ok vs -> Ok (name, vs) | Error e -> Error e));
  }

(* Structural equality for the = operator (checker guarantees operands
   are transmissible, so promise/queue never reach here). *)
let rec equal a b =
  match (a, b) with
  | Vunit, Vunit -> true
  | Vint x, Vint y -> x = y
  | Vreal x, Vreal y -> x = y
  | Vbool x, Vbool y -> x = y
  | Vstr x, Vstr y -> x = y
  | Varr x, Varr y ->
      x.len = y.len
      && (let rec go i = i >= x.len || (equal x.items.(i) y.items.(i) && go (i + 1)) in
          go 0)
  | Vrec xs, Vrec ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (f, r) (g, s) -> f = g && equal !r !s) xs ys
  | Vport x, Vport y -> x = y
  | ( Vunit | Vint _ | Vreal _ | Vbool _ | Vstr _ | Varr _ | Vrec _ | Vpromise _ | Vqueue _
    | Vport _ ), _ ->
      false

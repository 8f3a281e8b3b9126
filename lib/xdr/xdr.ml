type promise_ref = { ps_stream : string; ps_call : int; ps_field : string option }

type value =
  | Unit
  | Bool of bool
  | Int of int
  | Real of float
  | Str of string
  | Pair of value * value
  | List of value list
  | Record of (string * value) list
  | Tagged of string * value
  | Pref of promise_ref

let rec pp_value ppf = function
  | Unit -> Format.pp_print_string ppf "()"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Real r -> Format.fprintf ppf "%g" r
  | Str s -> Format.fprintf ppf "%S" s
  | Pair (a, b) -> Format.fprintf ppf "(%a, %a)" pp_value a pp_value b
  | List vs ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_value)
        vs
  | Record fields ->
      let pp_field ppf (name, v) = Format.fprintf ppf "%s = %a" name pp_value v in
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp_field)
        fields
  | Tagged (tag, v) -> Format.fprintf ppf "%s(%a)" tag pp_value v
  | Pref { ps_stream; ps_call; ps_field } ->
      Format.fprintf ppf "pref(%s#%d%s)" ps_stream ps_call
        (match ps_field with Some f -> "." ^ f | None -> "")

(* Structural equality with explicit float handling: polymorphic [=]
   follows IEEE semantics where [nan <> nan], so a [Real nan] payload
   would compare unequal to its own decoded copy and defeat dedup-cache
   replay comparison. Two reals are equal when IEEE-equal (which
   identifies -0. and +0.) or both NaN. *)
let rec equal_value (a : value) (b : value) =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Real x, Real y -> x = y || (Float.is_nan x && Float.is_nan y)
  | Str x, Str y -> String.equal x y
  | Pair (a1, a2), Pair (b1, b2) -> equal_value a1 b1 && equal_value a2 b2
  | List xs, List ys -> List.equal equal_value xs ys
  | Record xs, Record ys ->
      List.equal
        (fun (nx, vx) (ny, vy) -> String.equal nx ny && equal_value vx vy)
        xs ys
  | Tagged (tx, vx), Tagged (ty, vy) -> String.equal tx ty && equal_value vx vy
  | Pref x, Pref y ->
      String.equal x.ps_stream y.ps_stream && x.ps_call = y.ps_call
      && Option.equal String.equal x.ps_field y.ps_field
  | (Unit | Bool _ | Int _ | Real _ | Str _ | Pair _ | List _ | Record _ | Tagged _ | Pref _), _
    ->
      false

type 'a codec = {
  type_name : string;
  encode : 'a -> (value, string) result;
  decode : value -> ('a, string) result;
}

let encode c v = c.encode v

let decode c v = c.decode v

let type_error expected got =
  Error (Format.asprintf "expected %s, got %a" expected pp_value got)

let unit =
  {
    type_name = "unit";
    encode = (fun () -> Ok Unit);
    decode = (function Unit -> Ok () | v -> type_error "unit" v);
  }

let bool =
  {
    type_name = "bool";
    encode = (fun b -> Ok (Bool b));
    decode = (function Bool b -> Ok b | v -> type_error "bool" v);
  }

let int =
  {
    type_name = "int";
    encode = (fun i -> Ok (Int i));
    decode = (function Int i -> Ok i | v -> type_error "int" v);
  }

let real =
  {
    type_name = "real";
    encode = (fun r -> Ok (Real r));
    decode = (function Real r -> Ok r | v -> type_error "real" v);
  }

let string =
  {
    type_name = "string";
    encode = (fun s -> Ok (Str s));
    decode = (function Str s -> Ok s | v -> type_error "string" v);
  }

let ( let* ) = Result.bind

let pair ca cb =
  {
    type_name = Printf.sprintf "(%s * %s)" ca.type_name cb.type_name;
    encode =
      (fun (a, b) ->
        let* va = ca.encode a in
        let* vb = cb.encode b in
        Ok (Pair (va, vb)));
    decode =
      (fun v ->
        match v with
        | Pair (va, vb) ->
            let* a = ca.decode va in
            let* b = cb.decode vb in
            Ok (a, b)
        | v -> type_error "pair" v);
  }

let triple ca cb cc =
  {
    type_name = Printf.sprintf "(%s * %s * %s)" ca.type_name cb.type_name cc.type_name;
    encode =
      (fun (a, b, c) ->
        let* va = ca.encode a in
        let* vb = cb.encode b in
        let* vc = cc.encode c in
        Ok (Pair (va, Pair (vb, vc))));
    decode =
      (fun v ->
        match v with
        | Pair (va, Pair (vb, vc)) ->
            let* a = ca.decode va in
            let* b = cb.decode vb in
            let* c = cc.decode vc in
            Ok (a, b, c)
        | v -> type_error "triple" v);
  }

let list ca =
  {
    type_name = Printf.sprintf "%s list" ca.type_name;
    encode =
      (fun items ->
        let rec go acc = function
          | [] -> Ok (List (List.rev acc))
          | x :: rest -> (
              match ca.encode x with Ok v -> go (v :: acc) rest | Error e -> Error e)
        in
        go [] items);
    decode =
      (fun v ->
        match v with
        | List vs ->
            let rec go acc = function
              | [] -> Ok (List.rev acc)
              | x :: rest -> (
                  match ca.decode x with Ok d -> go (d :: acc) rest | Error e -> Error e)
            in
            go [] vs
        | v -> type_error "list" v);
  }

let array ca =
  let cl = list ca in
  {
    type_name = Printf.sprintf "%s array" ca.type_name;
    encode = (fun arr -> cl.encode (Array.to_list arr));
    decode = (fun v -> Result.map Array.of_list (cl.decode v));
  }

let option ca =
  {
    type_name = Printf.sprintf "%s option" ca.type_name;
    encode =
      (function
      | None -> Ok (Tagged ("none", Unit))
      | Some x ->
          let* v = ca.encode x in
          Ok (Tagged ("some", v)));
    decode =
      (fun v ->
        match v with
        | Tagged ("none", Unit) -> Ok None
        | Tagged ("some", inner) -> Result.map Option.some (ca.decode inner)
        | v -> type_error "option" v);
  }

let result ca cb =
  {
    type_name = Printf.sprintf "(%s, %s) result" ca.type_name cb.type_name;
    encode =
      (function
      | Ok x ->
          let* v = ca.encode x in
          Ok (Tagged ("ok", v))
      | Error e ->
          let* v = cb.encode e in
          Ok (Tagged ("error", v)));
    decode =
      (fun v ->
        match v with
        | Tagged ("ok", inner) -> Result.map Result.ok (ca.decode inner)
        | Tagged ("error", inner) -> Result.map Result.error (cb.decode inner)
        | v -> type_error "result" v);
  }

let record2 name (f1, c1) (f2, c2) =
  {
    type_name = name;
    encode =
      (fun (a, b) ->
        let* va = c1.encode a in
        let* vb = c2.encode b in
        Ok (Record [ (f1, va); (f2, vb) ]));
    decode =
      (fun v ->
        match v with
        | Record [ (g1, va); (g2, vb) ] when g1 = f1 && g2 = f2 ->
            let* a = c1.decode va in
            let* b = c2.decode vb in
            Ok (a, b)
        | v -> type_error (Printf.sprintf "record %s" name) v);
  }

let record3 name (f1, c1) (f2, c2) (f3, c3) =
  {
    type_name = name;
    encode =
      (fun (a, b, c) ->
        let* va = c1.encode a in
        let* vb = c2.encode b in
        let* vc = c3.encode c in
        Ok (Record [ (f1, va); (f2, vb); (f3, vc) ]));
    decode =
      (fun v ->
        match v with
        | Record [ (g1, va); (g2, vb); (g3, vc) ] when g1 = f1 && g2 = f2 && g3 = f3 ->
            let* a = c1.decode va in
            let* b = c2.decode vb in
            let* c = c3.decode vc in
            Ok (a, b, c)
        | v -> type_error (Printf.sprintf "record %s" name) v);
  }

let tagged name to_tag of_tag =
  {
    type_name = name;
    encode =
      (fun x ->
        let tag, payload = to_tag x in
        Ok (Tagged (tag, payload)));
    decode =
      (fun v ->
        match v with Tagged (tag, payload) -> of_tag (tag, payload) | v -> type_error name v);
  }

let conv name f g c =
  {
    type_name = name;
    encode = (fun x -> c.encode (f x));
    decode = (fun v -> Result.map g (c.decode v));
  }

let conv_partial name f g c =
  {
    type_name = name;
    encode =
      (fun x ->
        let* y = f x in
        c.encode y);
    decode =
      (fun v ->
        let* y = c.decode v in
        g y);
  }

let failing_encode ?(reason = "injected encode failure") ~every c =
  if every <= 0 then invalid_arg "Xdr.failing_encode: every must be positive";
  let count = ref 0 in
  {
    c with
    type_name = c.type_name ^ "?enc";
    encode =
      (fun x ->
        incr count;
        if !count mod every = 0 then Error reason else c.encode x);
  }

let failing_decode ?(reason = "injected decode failure") ~every c =
  if every <= 0 then invalid_arg "Xdr.failing_decode: every must be positive";
  let count = ref 0 in
  {
    c with
    type_name = c.type_name ^ "?dec";
    decode =
      (fun v ->
        incr count;
        if !count mod every = 0 then Error reason else c.decode v);
  }

(* ------------------------------------------------------------------ *)
(* Binary wire codec *)

module Bin = struct
  let version = 1

  (* Strings up to this length go through the per-encoder intern table,
     so a port name repeated across the calls of one batched packet is
     transmitted once and referenced afterwards. Longer strings are
     payload, not vocabulary: they are emitted inline. *)
  let intern_max = 64

  (* value tags (one byte each) *)
  let t_unit = 0x00
  and t_false = 0x01
  and t_true = 0x02
  and t_int = 0x03
  and t_real = 0x04
  and t_str_ref = 0x05
  and t_str_inline = 0x06
  and t_pair = 0x07
  and t_list = 0x08
  and t_record = 0x09
  and t_tagged = 0x0A
  and t_pref = 0x0B
  and t_packed = 0x0C

  (* A non-empty list of [Int]s only ships as [t_packed]: one tag, one
     count, then bare zigzag varints. Every other list — empty, or with
     any non-[Int] element — stays [t_list], so each value has exactly
     one encoding. [packed_count] is that rule: the element count of a
     packable list, 0 for any other. It stops at the first non-[Int]. *)
  let packed_count vs =
    let rec go n = function [] -> n | Int _ :: rest -> go (n + 1) rest | _ :: _ -> 0 in
    go 0 vs

  (* Decode refuses nesting deeper than this rather than risking a
     stack overflow on adversarial input. *)
  let max_depth = 1024

  (* --- connection dictionary -------------------------------------- *)

  (* A sender-owned string table that persists across the frames of one
     connection (docs/WIRE.md §Connection dictionary). A string is
     promoted the second frame it appears in: that frame carries a
     dict-define, and every later frame references the shared slot with
     a couple of bytes instead of re-shipping the bytes. The per-frame
     intern table stays authoritative inside a frame — the dictionary
     only replaces the *first* per-frame occurrence of a string.
     [reset_dict] bumps the epoch; the epoch travels in the frame
     header so a receiver discards stale state after an incarnation
     change without any extra handshake. *)
  type dict = {
    dc_slots : (string, int) Hashtbl.t;  (* promoted string -> shared slot *)
    dc_seen : (string, int) Hashtbl.t;  (* candidate -> frames seen so far *)
    mutable dc_next : int;  (* next shared slot *)
    mutable dc_epoch : int;
    dc_cap : int;  (* max promoted entries *)
    mutable dc_defines : int;  (* lifetime promotion count *)
    mutable dc_refs : int;  (* lifetime shared-slot reference count *)
  }

  let create_dict ?(cap = 1024) () =
    {
      dc_slots = Hashtbl.create 64;
      dc_seen = Hashtbl.create 64;
      dc_next = 0;
      dc_epoch = 0;
      dc_cap = max 1 cap;
      dc_defines = 0;
      dc_refs = 0;
    }

  let reset_dict dc =
    Hashtbl.reset dc.dc_slots;
    Hashtbl.reset dc.dc_seen;
    dc.dc_next <- 0;
    dc.dc_epoch <- dc.dc_epoch + 1

  let dict_epoch dc = dc.dc_epoch

  let dict_size dc = dc.dc_next

  let dict_defines dc = dc.dc_defines

  let dict_refs dc = dc.dc_refs

  (* --- encoder ---------------------------------------------------- *)

  type encoder = {
    e_buf : Buffer.t;
    e_strings : (string, int) Hashtbl.t;  (* interned string -> slot *)
    mutable e_next : int;  (* next intern slot *)
    mutable e_dict : dict option;  (* v2 frames only; cleared by [reset] *)
  }

  let create_encoder () =
    { e_buf = Buffer.create 256; e_strings = Hashtbl.create 16; e_next = 0; e_dict = None }

  let reset e =
    Buffer.clear e.e_buf;
    Hashtbl.reset e.e_strings;
    e.e_next <- 0;
    e.e_dict <- None

  let use_dict e dc = e.e_dict <- Some dc

  let length e = Buffer.length e.e_buf

  let contents e = Buffer.contents e.e_buf

  let add_byte e n = Buffer.add_char e.e_buf (Char.unsafe_chr (n land 0xff))

  (* LEB128; the first iteration may see a negative int (all-ones
     pattern from zigzag of min_int) — [lsr] then makes it positive, so
     the loop terminates in at most 9 bytes for a 63-bit int. *)
  let add_uvarint e n =
    let rec go n =
      if n land lnot 0x7f = 0 then Buffer.add_char e.e_buf (Char.unsafe_chr n)
      else begin
        Buffer.add_char e.e_buf (Char.unsafe_chr (n land 0x7f lor 0x80));
        go (n lsr 7)
      end
    in
    go n

  let zigzag n = (n lsl 1) lxor (n asr 62)

  let unzigzag z = (z lsr 1) lxor (-(z land 1))

  let add_varint e n = add_uvarint e (zigzag n)

  let add_raw_string e s =
    add_uvarint e (String.length s);
    Buffer.add_string e.e_buf s

  let frame_intern e s =
    Hashtbl.add e.e_strings s e.e_next;
    e.e_next <- e.e_next + 1

  (* String reference. v1 (no dictionary): [0] introduces a new
     intern-table entry inline, [k > 0] references entry [k-1] —
     single-pass for both sides. With a connection dictionary attached
     (v2 frames) the marker space shifts: [0] inline define, [1]
     dict-define (both sides append to the shared dictionary AND the
     per-frame table), [2] dict-ref (slot follows; the string is also
     appended to the per-frame table so later same-frame uses pay one
     byte), [m >= 3] references per-frame entry [m-3]. *)
  let add_string e s =
    match Hashtbl.find_opt e.e_strings s with
    | Some slot ->
        add_uvarint e (slot + (match e.e_dict with None -> 1 | Some _ -> 3))
    | None -> (
        match e.e_dict with
        | None ->
            frame_intern e s;
            add_byte e 0;
            add_raw_string e s
        | Some dc -> (
            match Hashtbl.find_opt dc.dc_slots s with
            | Some slot ->
                frame_intern e s;
                dc.dc_refs <- dc.dc_refs + 1;
                add_byte e 2;
                add_uvarint e slot
            | None ->
                (* Not promoted yet. The cross-frame count bumps at most
                   once per frame: a repeat inside this frame would have
                   hit the per-frame table above. *)
                let n = 1 + Option.value ~default:0 (Hashtbl.find_opt dc.dc_seen s) in
                if n >= 2 && dc.dc_next < dc.dc_cap then begin
                  Hashtbl.remove dc.dc_seen s;
                  Hashtbl.add dc.dc_slots s dc.dc_next;
                  dc.dc_next <- dc.dc_next + 1;
                  dc.dc_defines <- dc.dc_defines + 1;
                  frame_intern e s;
                  add_byte e 1;
                  add_raw_string e s
                end
                else begin
                  (* Bound the candidate table; losing counts only
                     delays promotion, it never corrupts the wire. *)
                  if Hashtbl.length dc.dc_seen > 4 * dc.dc_cap then Hashtbl.reset dc.dc_seen;
                  Hashtbl.replace dc.dc_seen s n;
                  frame_intern e s;
                  add_byte e 0;
                  add_raw_string e s
                end))

  let rec add_value e v =
    match v with
    | Unit -> add_byte e t_unit
    | Bool false -> add_byte e t_false
    | Bool true -> add_byte e t_true
    | Int i ->
        add_byte e t_int;
        add_varint e i
    | Real r ->
        add_byte e t_real;
        Buffer.add_int64_le e.e_buf (Int64.bits_of_float r)
    | Str s when String.length s <= intern_max ->
        add_byte e t_str_ref;
        add_string e s
    | Str s ->
        add_byte e t_str_inline;
        add_raw_string e s
    | Pair (a, b) ->
        add_byte e t_pair;
        add_value e a;
        add_value e b
    | List vs -> (
        match packed_count vs with
        | 0 ->
            add_byte e t_list;
            add_uvarint e (List.length vs);
            List.iter (add_value e) vs
        | n ->
            add_byte e t_packed;
            add_uvarint e n;
            List.iter (function Int i -> add_varint e i | _ -> ()) vs)
    | Record fields ->
        add_byte e t_record;
        add_uvarint e (List.length fields);
        List.iter
          (fun (name, v) ->
            add_string e name;
            add_value e v)
          fields
    | Tagged (tag, v) ->
        add_byte e t_tagged;
        add_string e tag;
        add_value e v
    | Pref { ps_stream; ps_call; ps_field } ->
        add_byte e t_pref;
        add_string e ps_stream;
        add_varint e ps_call;
        (match ps_field with
        | None -> add_byte e 0
        | Some f ->
            add_byte e 1;
            add_string e f)

  (* Encoder pool: hot paths (one encode per packet) reuse buffers and
     intern tables instead of reallocating. *)
  let pool : encoder list ref = ref []

  let pool_cap = 8

  let with_encoder f =
    let e =
      match !pool with
      | e :: rest ->
          pool := rest;
          reset e;
          e
      | [] -> create_encoder ()
    in
    Fun.protect
      ~finally:(fun () ->
        if List.compare_length_with !pool pool_cap < 0 then pool := e :: !pool)
      (fun () -> f e)

  let to_string v =
    with_encoder (fun e ->
        add_value e v;
        contents e)

  (* --- sizer ------------------------------------------------------ *)

  (* Counting-only mirror of [add_value]: computes the exact v1 encoded
     length without touching a buffer. Window accounting and registry
     byte budgets call this on every item, so avoiding the redundant
     encode matters. Sizes are always v1 (dictionary-off) semantics —
     for senders with a dictionary attached this over-estimates, which
     is the conservative direction for flow-control accounting. *)

  type sizer = {
    s_strings : (string, int) Hashtbl.t;
    mutable s_next : int;
    mutable s_len : int;
  }

  let uvarint_len n =
    let rec go n k = if n land lnot 0x7f = 0 then k + 1 else go (n lsr 7) (k + 1) in
    go n 0

  let size_string z s =
    match Hashtbl.find_opt z.s_strings s with
    | Some slot -> z.s_len <- z.s_len + uvarint_len (slot + 1)
    | None ->
        Hashtbl.add z.s_strings s z.s_next;
        z.s_next <- z.s_next + 1;
        z.s_len <- z.s_len + 1 + uvarint_len (String.length s) + String.length s

  let rec size_value z v =
    match v with
    | Unit | Bool _ -> z.s_len <- z.s_len + 1
    | Int i -> z.s_len <- z.s_len + 1 + uvarint_len (zigzag i)
    | Real _ -> z.s_len <- z.s_len + 9
    | Str s when String.length s <= intern_max ->
        z.s_len <- z.s_len + 1;
        size_string z s
    | Str s -> z.s_len <- z.s_len + 1 + uvarint_len (String.length s) + String.length s
    | Pair (a, b) ->
        z.s_len <- z.s_len + 1;
        size_value z a;
        size_value z b
    | List vs -> (
        match packed_count vs with
        | 0 ->
            z.s_len <- z.s_len + 1 + uvarint_len (List.length vs);
            List.iter (size_value z) vs
        | n ->
            z.s_len <- z.s_len + 1 + uvarint_len n;
            List.iter
              (function Int i -> z.s_len <- z.s_len + uvarint_len (zigzag i) | _ -> ())
              vs)
    | Record fields ->
        z.s_len <- z.s_len + 1 + uvarint_len (List.length fields);
        List.iter
          (fun (name, v) ->
            size_string z name;
            size_value z v)
          fields
    | Tagged (tag, v) ->
        z.s_len <- z.s_len + 1;
        size_string z tag;
        size_value z v
    | Pref { ps_stream; ps_call; ps_field } ->
        z.s_len <- z.s_len + 1;
        size_string z ps_stream;
        z.s_len <- z.s_len + uvarint_len (zigzag ps_call) + 1;
        (match ps_field with None -> () | Some f -> size_string z f)

  let sizer_pool : sizer list ref = ref []

  let size v =
    let z =
      match !sizer_pool with
      | z :: rest ->
          sizer_pool := rest;
          Hashtbl.reset z.s_strings;
          z.s_next <- 0;
          z.s_len <- 0;
          z
      | [] -> { s_strings = Hashtbl.create 16; s_next = 0; s_len = 0 }
    in
    Fun.protect
      ~finally:(fun () ->
        if List.compare_length_with !sizer_pool pool_cap < 0 then sizer_pool := z :: !sizer_pool)
      (fun () ->
        size_value z v;
        z.s_len)

  (* --- decoder ---------------------------------------------------- *)

  exception Bad of string
  (* internal only: every public read catches it and returns [Error] *)

  (* Receiver half of the connection dictionary: an append-only string
     table shared by every frame of one (peer, epoch). Slots are never
     removed within an epoch; an epoch change swaps in a *new* table
     object, so views captured against the old epoch stay valid. *)
  type dict_table = { mutable dt_arr : string array; mutable dt_count : int }

  let create_dict_table () = { dt_arr = [||]; dt_count = 0 }

  let dict_table_size dt = dt.dt_count

  type decoder = {
    d_src : string;
    mutable d_pos : int;
    mutable d_table : string array;
    mutable d_count : int;
    mutable d_dict : dict_table option;  (* v2 frames only *)
    mutable d_replay : bool;  (* re-reading an already-scanned slice *)
  }

  let decoder s =
    { d_src = s; d_pos = 0; d_table = [||]; d_count = 0; d_dict = None; d_replay = false }

  let use_dict_table d dt = d.d_dict <- Some dt

  let pos d = d.d_pos

  let remaining d = String.length d.d_src - d.d_pos

  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

  (* Cold raise kept out of line so [u8] stays small enough to inline
     into the decode/skip loops, where it runs once per byte of tags
     and varints. *)
  let truncated_at pos = bad "truncated input at byte %d" pos

  let[@inline] u8 d =
    let pos = d.d_pos in
    if pos >= String.length d.d_src then truncated_at pos;
    let c = Char.code (String.unsafe_get d.d_src pos) in
    d.d_pos <- pos + 1;
    c

  (* Top-level recursion (not a local closure) and a one-byte fast
     path: varints are read once per value on the hot decode/skip
     loops, and most of them fit in one byte. *)
  let rec uvarint_rest d shift acc =
    if shift > 56 then bad "varint longer than 9 bytes at %d" d.d_pos;
    let b = u8 d in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else uvarint_rest d (shift + 7) acc

  let uvarint_exn d =
    let b = u8 d in
    if b land 0x80 = 0 then b else uvarint_rest d 7 (b land 0x7f)

  let raw_string_exn d =
    let len = uvarint_exn d in
    if len < 0 || len > remaining d then
      bad "string of %d bytes overruns input (%d left)" len (remaining d);
    let s = String.sub d.d_src d.d_pos len in
    d.d_pos <- d.d_pos + len;
    s

  let push_interned d s =
    if d.d_count >= Array.length d.d_table then begin
      let cap = max 8 (2 * Array.length d.d_table) in
      let bigger = Array.make cap "" in
      Array.blit d.d_table 0 bigger 0 d.d_count;
      d.d_table <- bigger
    end;
    d.d_table.(d.d_count) <- s;
    d.d_count <- d.d_count + 1

  let push_dict dt s =
    if dt.dt_count >= Array.length dt.dt_arr then begin
      let cap = max 16 (2 * Array.length dt.dt_arr) in
      let bigger = Array.make cap "" in
      Array.blit dt.dt_arr 0 bigger 0 dt.dt_count;
      dt.dt_arr <- bigger
    end;
    dt.dt_arr.(dt.dt_count) <- s;
    dt.dt_count <- dt.dt_count + 1

  let string_exn d =
    match d.d_dict with
    | None -> (
        let n = uvarint_exn d in
        if n = 0 then begin
          let s = raw_string_exn d in
          push_interned d s;
          s
        end
        (* a 9-byte marker can wrap negative: refs are bounded on both sides *)
        else if n > 0 && n - 1 < d.d_count then d.d_table.(n - 1)
        else bad "string ref %d out of table range (%d entries)" n d.d_count)
    | Some dt ->
        let m = uvarint_exn d in
        if m = 0 then begin
          let s = raw_string_exn d in
          push_interned d s;
          s
        end
        else if m = 1 then begin
          (* Dict-define: appended to the shared table exactly once —
             replays of an already-scanned slice must not re-append. *)
          let s = raw_string_exn d in
          if not d.d_replay then push_dict dt s;
          push_interned d s;
          s
        end
        else if m = 2 then begin
          let k = uvarint_exn d in
          if k >= 0 && k < dt.dt_count then begin
            let s = dt.dt_arr.(k) in
            push_interned d s;
            s
          end
          else bad "dict ref %d out of range (%d entries)" k dt.dt_count
        end
        else if m > 0 && m - 3 < d.d_count then d.d_table.(m - 3)
        else bad "string ref %d out of table range (%d entries)" (m - 3) d.d_count

  let real_exn d =
    if remaining d < 8 then bad "truncated real at byte %d" d.d_pos;
    let bits = String.get_int64_le d.d_src d.d_pos in
    d.d_pos <- d.d_pos + 8;
    Int64.float_of_bits bits

  (* The count after a [t_packed] tag: at least one element (an empty
     list is [t_list]), and no more than the bytes left, since every
     element takes at least one. *)
  let packed_count_exn d =
    let n = uvarint_exn d in
    if n < 1 || n > remaining d then bad "packed list of %d ints overruns input" n;
    n

  let rec value_exn d depth =
    if depth > max_depth then bad "nesting deeper than %d" max_depth;
    let tag = u8 d in
    if tag = t_unit then Unit
    else if tag = t_false then Bool false
    else if tag = t_true then Bool true
    else if tag = t_int then Int (unzigzag (uvarint_exn d))
    else if tag = t_real then Real (real_exn d)
    else if tag = t_str_ref then Str (string_exn d)
    else if tag = t_str_inline then Str (raw_string_exn d)
    else if tag = t_pair then begin
      let a = value_exn d (depth + 1) in
      let b = value_exn d (depth + 1) in
      Pair (a, b)
    end
    else if tag = t_list then begin
      let n = uvarint_exn d in
      if n < 0 || n > remaining d then bad "list of %d elements overruns input" n;
      let rec go k acc =
        if k = 0 then List.rev acc else go (k - 1) (value_exn d (depth + 1) :: acc)
      in
      List (go n [])
    end
    else if tag = t_packed then begin
      let n = packed_count_exn d in
      let rec go k acc =
        if k = 0 then List.rev acc else go (k - 1) (Int (unzigzag (uvarint_exn d)) :: acc)
      in
      List (go n [])
    end
    else if tag = t_record then begin
      let n = uvarint_exn d in
      if n < 0 || n > remaining d then bad "record of %d fields overruns input" n;
      let rec go k acc =
        if k = 0 then List.rev acc
        else begin
          let name = string_exn d in
          let v = value_exn d (depth + 1) in
          go (k - 1) ((name, v) :: acc)
        end
      in
      Record (go n [])
    end
    else if tag = t_tagged then begin
      let tag_name = string_exn d in
      let v = value_exn d (depth + 1) in
      Tagged (tag_name, v)
    end
    else if tag = t_pref then begin
      let ps_stream = string_exn d in
      let ps_call = unzigzag (uvarint_exn d) in
      let ps_field =
        match u8 d with
        | 0 -> None
        | 1 -> Some (string_exn d)
        | b -> bad "bad promise-ref field marker 0x%02x at byte %d" b (d.d_pos - 1)
      in
      Pref { ps_stream; ps_call; ps_field }
    end
    else bad "unknown value tag 0x%02x at byte %d" tag (d.d_pos - 1)

  exception Found_pref
  (* internal to [skip_value_exn ~stop_at_pref] *)

  (* Skip past a varint payload without computing its value. Accepts
     exactly what [uvarint_exn] accepts — at most 9 bytes, the last one
     with the continuation bit clear; [last] is the position of that
     ninth byte. *)
  let rec skip_uvarint src slen pos last =
    if pos >= slen then truncated_at pos;
    if Char.code (String.unsafe_get src pos) < 0x80 then pos + 1
    else if pos >= last then bad "varint longer than 9 bytes at %d" (pos + 1)
    else skip_uvarint src slen (pos + 1) last

  (* One whole varint starting at [pos]. *)
  let[@inline] skip_varint src slen pos =
    if pos >= slen then truncated_at pos;
    if Char.code (String.unsafe_get src pos) < 0x80 then pos + 1
    else skip_uvarint src slen (pos + 1) (pos + 8)

  let rec skip_varints src slen n pos =
    if n = 0 then pos else skip_varints src slen (n - 1) (skip_varint src slen pos)

  (* Structural scan without materialisation: validates exactly what
     [value_exn] would and leaves the cursor after the value, but
     allocates nothing except intern-table entries (the per-frame and
     dictionary tables must see the same side effects either way, so a
     later slice of the same frame decodes identically). The scan runs
     on a local cursor — [pos] threads through as an immediate, and
     [d.d_pos] is synced only around the interned-string and varint
     reads, so the scalar-heavy common case never touches the mutable
     record. Inline — non-interned — string payloads are skipped
     without copying. *)
  let rec skip_pos d src slen stop_at_pref depth pos =
    if depth > max_depth then bad "nesting deeper than %d" max_depth;
    if pos >= slen then truncated_at pos;
    let tag = Char.code (String.unsafe_get src pos) in
    let pos = pos + 1 in
    if tag = t_unit || tag = t_false || tag = t_true then pos
    else if tag = t_int then skip_varint src slen pos
    else if tag = t_real then begin
      if slen - pos < 8 then bad "truncated real at byte %d" pos;
      pos + 8
    end
    else if tag = t_str_ref then skip_istring d src slen pos
    else if tag = t_str_inline then begin
      d.d_pos <- pos;
      let len = uvarint_exn d in
      if len < 0 || len > remaining d then
        bad "string of %d bytes overruns input (%d left)" len (remaining d);
      d.d_pos + len
    end
    else if tag = t_pair then begin
      let pos = skip_pos d src slen stop_at_pref (depth + 1) pos in
      skip_pos d src slen stop_at_pref (depth + 1) pos
    end
    else if tag = t_list then begin
      d.d_pos <- pos;
      let n = uvarint_exn d in
      if n < 0 || n > remaining d then bad "list of %d elements overruns input" n;
      skip_items d src slen stop_at_pref (depth + 1) n d.d_pos
    end
    else if tag = t_packed then begin
      d.d_pos <- pos;
      let n = packed_count_exn d in
      skip_varints src slen n d.d_pos
    end
    else if tag = t_record then begin
      d.d_pos <- pos;
      let n = uvarint_exn d in
      if n < 0 || n > remaining d then bad "record of %d fields overruns input" n;
      skip_fields d src slen stop_at_pref (depth + 1) n d.d_pos
    end
    else if tag = t_tagged then begin
      let pos = skip_istring d src slen pos in
      skip_pos d src slen stop_at_pref (depth + 1) pos
    end
    else if tag = t_pref then begin
      if stop_at_pref then raise Found_pref;
      d.d_pos <- pos;
      ignore (string_exn d : string);
      ignore (uvarint_exn d : int);
      (match u8 d with
      | 0 -> ()
      | 1 -> ignore (string_exn d : string)
      | b -> bad "bad promise-ref field marker 0x%02x at byte %d" b (d.d_pos - 1));
      d.d_pos
    end
    else bad "unknown value tag 0x%02x at byte %d" tag (pos - 1)

  and skip_items d src slen stop_at_pref depth n pos =
    if n = 0 then pos
    else
      skip_items d src slen stop_at_pref depth (n - 1)
        (skip_pos d src slen stop_at_pref depth pos)

  and skip_fields d src slen stop_at_pref depth n pos =
    if n = 0 then pos
    else begin
      let pos = skip_istring d src slen pos in
      let pos = skip_pos d src slen stop_at_pref depth pos in
      skip_fields d src slen stop_at_pref depth (n - 1) pos
    end

  (* Skip an interned string. The common steady-state shape — a
     one-byte back-reference into a table the scan has already built —
     resolves positionally with no side effects; everything else
     (defines, dict traffic, multi-byte markers, bad refs) falls back
     to [string_exn] for identical table updates and errors. *)
  and skip_istring d src slen pos =
    if pos >= slen then truncated_at pos;
    let m = Char.code (String.unsafe_get src pos) in
    let slot =
      if m >= 0x80 then -1
      else
        match d.d_dict with
        | None -> m - 1 (* v1: marker 0 is a define; k>0 is frame slot k-1 *)
        | Some _ -> m - 3 (* v2: markers 0/1/2 have side effects; m>=3 is frame slot m-3 *)
    in
    if slot >= 0 && slot < d.d_count then pos + 1
    else begin
      d.d_pos <- pos;
      ignore (string_exn d : string);
      d.d_pos
    end

  (* The optional argument is resolved once here, not boxed per
     recursive call — the scan itself stays allocation-free. *)
  let skip_value_exn ?(stop_at_pref = false) d depth =
    d.d_pos <- skip_pos d d.d_src (String.length d.d_src) stop_at_pref depth d.d_pos

  let wrap f d = match f d with v -> Ok v | exception Bad m -> Error m

  let read_byte d = wrap u8 d

  let read_uvarint d = wrap uvarint_exn d

  let read_varint d = wrap (fun d -> unzigzag (uvarint_exn d)) d

  let read_string d = wrap string_exn d

  let read_raw_string d = wrap raw_string_exn d

  let read_value d = wrap (fun d -> value_exn d 0) d

  let expect_end d =
    if remaining d = 0 then Ok ()
    else Error (Printf.sprintf "%d trailing bytes after value" (remaining d))

  let of_string s =
    let d = decoder s in
    match read_value d with
    | Error _ as e -> e
    | Ok v -> ( match expect_end d with Ok () -> Ok v | Error m -> Error m)
end

(* ------------------------------------------------------------------ *)
(* Lazy frame views *)

module View = struct
  (* A validated slice of an encoded frame (docs/WIRE.md §Lazy views).
     [read] scans one value with [Bin.skip_value_exn] — full structural
     validation, no tree allocation — and captures everything a later
     re-read needs: the buffer, the slice bounds, the per-frame intern
     table (as it stands after the scan; replays only touch entries the
     scan itself wrote, so sharing the array is safe) and the
     connection-dictionary table, if any. Navigation and
     materialisation replay the slice through a fresh cursor with
     [d_replay] set so dictionary defines are not appended twice.

     Views share mutable intern tables with their frame and are NOT
     safe to hand to another domain: materialise first. *)

  type t = {
    v_src : string;
    v_start : int;
    v_stop : int;
    v_table : string array;  (* frame intern table, post-scan *)
    v_tcount : int;  (* intern count at [v_start] *)
    v_dict : Bin.dict_table option;
  }

  type shape =
    | Vunit
    | Vbool
    | Vint
    | Vreal
    | Vstr
    | Vpair
    | Vlist
    | Vrecord
    | Vtagged
    | Vpref

  let capture (d : Bin.decoder) start tcount =
    {
      v_src = d.Bin.d_src;
      v_start = start;
      v_stop = d.Bin.d_pos;
      v_table = d.Bin.d_table;
      v_tcount = tcount;
      v_dict = d.Bin.d_dict;
    }

  let read (d : Bin.decoder) =
    let start = d.Bin.d_pos and tcount = d.Bin.d_count in
    match Bin.skip_value_exn d 0 with
    | () -> Ok (capture d start tcount)
    | exception Bin.Bad m -> Error m

  let of_string s =
    let d = Bin.decoder s in
    match read d with
    | Error _ as e -> e
    | Ok v -> ( match Bin.expect_end d with Ok () -> Ok v | Error m -> Error m)

  let byte_length v = v.v_stop - v.v_start

  (* An immutable copy of the view's mutable surroundings: the intern
     and dictionary tables are snapshotted (their strings are immutable
     and safely shared), so the result can cross to a pool worker
     domain while the connection keeps appending to the originals.
     O(table size) pointer copies, no byte copying. *)
  let snapshot v =
    {
      v with
      v_table = Array.copy v.v_table;
      v_dict =
        Option.map
          (fun dt ->
            { Bin.dt_arr = Array.copy dt.Bin.dt_arr; dt_count = dt.Bin.dt_count })
          v.v_dict;
    }

  let replay v =
    {
      Bin.d_src = v.v_src;
      d_pos = v.v_start;
      d_table = v.v_table;
      d_count = v.v_tcount;
      d_dict = v.v_dict;
      d_replay = true;
    }

  (* The scan in [read] rejected unknown tags, so the head byte is
     total here. *)
  let shape v =
    let t = Char.code (String.unsafe_get v.v_src v.v_start) in
    if t = Bin.t_unit then Vunit
    else if t = Bin.t_false || t = Bin.t_true then Vbool
    else if t = Bin.t_int then Vint
    else if t = Bin.t_real then Vreal
    else if t = Bin.t_str_ref || t = Bin.t_str_inline then Vstr
    else if t = Bin.t_pair then Vpair
    else if t = Bin.t_list || t = Bin.t_packed then Vlist
    else if t = Bin.t_record then Vrecord
    else if t = Bin.t_tagged then Vtagged
    else Vpref

  let materialize v = Bin.wrap (fun d -> Bin.value_exn d 0) (replay v)

  let as_int v =
    match materialize v with
    | Ok (Int i) -> Ok i
    | Ok w -> Error (Format.asprintf "expected int, got %a" pp_value w)
    | Error _ as e -> e

  let as_string v =
    match materialize v with
    | Ok (Str s) -> Ok s
    | Ok w -> Error (Format.asprintf "expected string, got %a" pp_value w)
    | Error _ as e -> e

  (* Scan one sub-value of an already-validated slice into its own
     view. Sub-views share the parent's captured tables. *)
  let sub_exn (d : Bin.decoder) =
    let start = d.Bin.d_pos and tcount = d.Bin.d_count in
    Bin.skip_value_exn d 0;
    capture d start tcount

  let pair_parts v =
    Bin.wrap
      (fun d ->
        let t = Bin.u8 d in
        if t <> Bin.t_pair then Bin.bad "expected pair, got tag 0x%02x" t;
        let a = sub_exn d in
        let b = sub_exn d in
        (a, b))
      (replay v)

  (* An element of a packed int list has no tag byte of its own, so its
     view is a fresh standalone [Int] encoding rather than a slice of
     the frame. *)
  let packed_item_exn (d : Bin.decoder) =
    let start = d.Bin.d_pos in
    ignore (Bin.uvarint_exn d : int);
    let len = d.Bin.d_pos - start in
    let b = Bytes.create (1 + len) in
    Bytes.set b 0 (Char.chr Bin.t_int);
    Bytes.blit_string d.Bin.d_src start b 1 len;
    {
      v_src = Bytes.unsafe_to_string b;
      v_start = 0;
      v_stop = 1 + len;
      v_table = [||];
      v_tcount = 0;
      v_dict = None;
    }

  (* Read a list head: the element count, and whether the elements are
     packed ints (bare varints) rather than tagged values. *)
  let list_head_exn (d : Bin.decoder) =
    let t = Bin.u8 d in
    if t = Bin.t_list then begin
      let n = Bin.uvarint_exn d in
      if n < 0 || n > Bin.remaining d then Bin.bad "list of %d elements overruns input" n;
      (n, false)
    end
    else if t = Bin.t_packed then (Bin.packed_count_exn d, true)
    else Bin.bad "expected list, got tag 0x%02x" t

  let list_items v =
    Bin.wrap
      (fun d ->
        let n, packed = list_head_exn d in
        let item = if packed then packed_item_exn else sub_exn in
        let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (item d :: acc) in
        go n [])
      (replay v)

  let list_length v = Bin.wrap (fun d -> fst (list_head_exn d)) (replay v)

  (* One-item projection: items before [i] are skipped, items after it
     never scanned. [Ok None] when the list is shorter than [i + 1]. *)
  let list_item v i =
    if i < 0 then Error (Printf.sprintf "negative list index %d" i)
    else
      Bin.wrap
        (fun d ->
          let n, packed = list_head_exn d in
          if i >= n then None
          else if packed then begin
            for _ = 1 to i do
              ignore (Bin.uvarint_exn d : int)
            done;
            Some (packed_item_exn d)
          end
          else begin
            for _ = 1 to i do
              Bin.skip_value_exn d 0
            done;
            Some (sub_exn d)
          end)
        (replay v)

  let record_fields v =
    Bin.wrap
      (fun d ->
        let t = Bin.u8 d in
        if t <> Bin.t_record then Bin.bad "expected record, got tag 0x%02x" t;
        let n = Bin.uvarint_exn d in
        if n < 0 || n > Bin.remaining d then Bin.bad "record of %d fields overruns input" n;
        let rec go k acc =
          if k = 0 then List.rev acc
          else begin
            let name = Bin.string_exn d in
            let fv = sub_exn d in
            go (k - 1) ((name, fv) :: acc)
          end
        in
        go n [])
      (replay v)

  (* One-field projection: earlier fields are skipped, later fields
     never scanned. *)
  let record_field v name =
    Bin.wrap
      (fun d ->
        let t = Bin.u8 d in
        if t <> Bin.t_record then Bin.bad "expected record, got tag 0x%02x" t;
        let n = Bin.uvarint_exn d in
        if n < 0 || n > Bin.remaining d then Bin.bad "record of %d fields overruns input" n;
        let rec go k =
          if k = 0 then None
          else begin
            let fname = Bin.string_exn d in
            if String.equal fname name then Some (sub_exn d)
            else begin
              Bin.skip_value_exn d 0;
              go (k - 1)
            end
          end
        in
        go n)
      (replay v)

  let tagged_parts v =
    Bin.wrap
      (fun d ->
        let t = Bin.u8 d in
        if t <> Bin.t_tagged then Bin.bad "expected tagged, got tag 0x%02x" t;
        let tag = Bin.string_exn d in
        let inner = sub_exn d in
        (tag, inner))
      (replay v)

  (* Cheap pre-filter: a promise reference can only exist where its tag
     byte occurs, so a slice without 0x0B anywhere needs no walk. *)
  let has_prefs v =
    match String.index_from_opt v.v_src v.v_start '\x0b' with
    | Some i when i < v.v_stop -> (
        match Bin.skip_value_exn ~stop_at_pref:true (replay v) 0 with
        | () -> false
        | exception Bin.Found_pref -> true
        | exception Bin.Bad _ -> false)
    | _ -> false
end

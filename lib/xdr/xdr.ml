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
  let version = 3

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
  and t_nint = 0x0D
  and t_zpacked = 0x0E
  and t_records = 0x0F
  and t_real16 = 0x10

  (* Every scalar travels at its shortest exact width (CBOR's preferred
     serialisation). An [Int n >= 0] is [t_int] + plain LEB128; only a
     negative one pays for a sign, as [t_nint] + zigzag. A [Real] is
     binary16 ([t_real16]) when widening that form gives back the same
     64 bits, else binary64 ([t_real]). The decoders accept either
     width; only the encoder is canonical. *)

  (* A non-empty list of [Int]s only ships packed: one tag, one count,
     then bare varints — plain LEB128 under [t_packed] when no element
     is negative, zigzag under [t_zpacked] otherwise. Every other list —
     empty, or with any non-[Int] element — stays [t_list], so each value
     has exactly one encoding. [packed_count] is that rule in one walk:
     [n] for a packable list of [n] non-negative ints, [-n] for one with
     a negative element, 0 for any other. It stops at the first
     non-[Int]. The sign test ORs the elements together (the result is
     negative iff one of them is), so the walk gains no branch. *)
  let packed_count vs =
    let rec go n ors = function
      | [] -> if ors < 0 then -n else n
      | Int i :: rest -> go (n + 1) (ors lor i) rest
      | _ :: _ -> 0
    in
    go 0 0 vs

  (* A non-empty list whose elements are all [Record]s with one
     non-empty field-name sequence (same names, same order) ships as
     [t_records]: one tag, the count, the field count and the names
     once, then the values record by record with no per-record tag,
     count or names. [record_shape] is that rule: the first record's
     fields when the list qualifies, [] otherwise. It is tried only
     after [packed_count] said 0, and stops at the first element that
     does not match, so a list that does not start with a record pays
     O(1). *)
  let rec same_names fs gs =
    match (fs, gs) with
    | (n, _) :: fs, (m, _) :: gs -> String.equal n m && same_names fs gs
    | [], [] -> true
    | _ -> false

  let rec shared_shape fields = function
    | [] -> fields
    | Record gs :: rest when same_names fields gs -> shared_shape fields rest
    | _ :: _ -> []

  let record_shape = function
    | Record (_ :: _ as fields) :: rest -> shared_shape fields rest
    | _ -> []

  (* Decode refuses nesting deeper than this rather than risking a
     stack overflow on adversarial input. *)
  let max_depth = 1024

  (* --- encoder ---------------------------------------------------- *)

  type encoder = {
    e_buf : Buffer.t;
    e_strings : (string, int) Hashtbl.t;  (* interned string -> slot *)
    mutable e_next : int;  (* next intern slot *)
    mutable e_mark_len : int;  (* length and next slot at the last [mark] *)
    mutable e_mark_next : int;
  }

  let create_encoder () =
    {
      e_buf = Buffer.create 256;
      e_strings = Hashtbl.create 16;
      e_next = 0;
      e_mark_len = 0;
      e_mark_next = 0;
    }

  let length e = Buffer.length e.e_buf

  let contents e = Buffer.contents e.e_buf

  let append e src = Buffer.add_buffer e.e_buf src.e_buf

  let mark e =
    e.e_mark_len <- Buffer.length e.e_buf;
    e.e_mark_next <- e.e_next

  (* Back to the last [mark]: the strings interned since go with their
     bytes, so no later reference names a slot the decoder never saw. *)
  let rewind e =
    let keep = e.e_mark_next in
    Buffer.truncate e.e_buf e.e_mark_len;
    Hashtbl.filter_map_inplace (fun _ slot -> if slot < keep then Some slot else None) e.e_strings;
    e.e_next <- keep

  let add_byte e n = Buffer.add_char e.e_buf (Char.unsafe_chr (n land 0xff))

  (* LEB128; the first iteration may see a negative int (all-ones
     pattern from zigzag of min_int) — [lsr] then makes it positive, so
     the loop terminates in at most 9 bytes for a 63-bit int. *)
  let buffer_add_uvarint b n =
    let rec go n =
      if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
      else begin
        Buffer.add_char b (Char.unsafe_chr (n land 0x7f lor 0x80));
        go (n lsr 7)
      end
    in
    go n

  let add_uvarint e n = buffer_add_uvarint e.e_buf n

  let zigzag n = (n lsl 1) lxor (n asr 62)

  let unzigzag z = (z lsr 1) lxor (-(z land 1))

  let add_varint e n = add_uvarint e (zigzag n)

  let varint_length n =
    let rec go z k = if z land lnot 0x7f = 0 then k else go (z lsr 7) (k + 1) in
    go (zigzag n) 1

  (* binary16 -> binary64, exactly: [float_of_half] is the decoder's
     widening. *)
  let float_of_half h =
    let e = (h lsr 10) land 0x1f and m = h land 0x3ff in
    if e = 0 then
      let f = Float.ldexp (float_of_int m) (-24) in
      if h land 0x8000 <> 0 then Float.neg f else f
    else
      let e = if e = 0x1f then 0x7ff else e + (1023 - 15) in
      Int64.float_of_bits
        (Int64.logor
           (Int64.shift_left (Int64.of_int (((h lsr 15) lsl 11) lor e)) 52)
           (Int64.of_int (m lsl 42)))

  (* [real_half r] is [r]'s binary16 pattern when [float_of_half]
     widens that back to the same 64 bits, else -1: the mantissa bits
     binary16 drops must be zero and the exponent in its range (normal,
     subnormal, or the infinity/NaN exponent, payload included). Bits
     are compared, not floats, so -0.0 keeps its sign and a NaN its
     payload. It stays in unboxed int arithmetic. *)
  let real_half r =
    let bits = Int64.bits_of_float r in
    let s = Int64.to_int (Int64.shift_right_logical bits 63) lsl 15
    and e = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff
    and m = Int64.to_int bits land 0xF_FFFF_FFFF_FFFF in
    let x = e - 1023 in
    if e = 0x7ff || (x >= -14 && x <= 15) then
      if m land 0x3FF_FFFF_FFFF <> 0 then -1
      else s lor ((if e = 0x7ff then 0x1f else x + 15) lsl 10) lor (m lsr 42)
    else if x >= -24 && x < -14 then
      if m land ((1 lsl (28 - x)) - 1) <> 0 then -1 else s lor ((m lor (1 lsl 52)) lsr (28 - x))
    else if e = 0 && m = 0 then s
    else -1

  let add_int e i =
    if i >= 0 then begin
      add_byte e t_int;
      add_uvarint e i
    end
    else begin
      add_byte e t_nint;
      add_varint e i
    end

  let add_real e r =
    let h = real_half r in
    if h >= 0 then begin
      add_byte e t_real16;
      Buffer.add_uint16_le e.e_buf h
    end
    else begin
      add_byte e t_real;
      Buffer.add_int64_le e.e_buf (Int64.bits_of_float r)
    end

  (* The elements of a packed list as bare varints, zigzag when [zz]. A
     direct loop: no closure per list. *)
  let rec add_packed e zz = function
    | Int i :: rest ->
        add_uvarint e (if zz then zigzag i else i);
        add_packed e zz rest
    | _ -> ()

  let add_raw_string e s =
    add_uvarint e (String.length s);
    Buffer.add_string e.e_buf s

  let seed e s =
    if not (Hashtbl.mem e.e_strings s) then begin
      Hashtbl.add e.e_strings s e.e_next;
      e.e_next <- e.e_next + 1
    end

  (* String reference: [0] introduces a new intern-table entry inline,
     [k > 0] references entry [k-1] — single-pass for both sides. *)
  let add_string e s =
    match Hashtbl.find_opt e.e_strings s with
    | Some slot -> add_uvarint e (slot + 1)
    | None ->
        Hashtbl.add e.e_strings s e.e_next;
        e.e_next <- e.e_next + 1;
        add_byte e 0;
        add_raw_string e s

  let rec add_value e v =
    match v with
    | Unit -> add_byte e t_unit
    | Bool false -> add_byte e t_false
    | Bool true -> add_byte e t_true
    | Int i -> add_int e i
    | Real r -> add_real e r
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
        | 0 -> (
            match record_shape vs with
            | [] ->
                add_byte e t_list;
                add_uvarint e (List.length vs);
                List.iter (add_value e) vs
            | fields ->
                add_byte e t_records;
                add_uvarint e (List.length vs);
                add_uvarint e (List.length fields);
                List.iter (fun (name, _) -> add_string e name) fields;
                List.iter
                  (function Record fs -> List.iter (fun (_, v) -> add_value e v) fs | _ -> ())
                  vs)
        | n ->
            add_byte e (if n > 0 then t_packed else t_zpacked);
            add_uvarint e (abs n);
            add_packed e (n < 0) vs)
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

  (* Encoder pool, process-wide: hot paths (a channel's open packet, the
     frame it is sent in) reuse buffers and intern tables instead of
     reallocating. *)
  let pool : encoder list ref = ref []

  let pool_cap = 8

  let acquire () =
    match !pool with
    | e :: rest ->
        pool := rest;
        Buffer.clear e.e_buf;
        Hashtbl.reset e.e_strings;
        e.e_next <- 0;
        e
    | [] -> create_encoder ()

  let release e = if List.compare_length_with !pool pool_cap < 0 then pool := e :: !pool

  let to_string v =
    let e = acquire () in
    add_value e v;
    let s = contents e in
    release e;
    s

  (* --- decoder ---------------------------------------------------- *)

  exception Bad of string
  (* internal only: every public read catches it and returns [Error] *)

  type decoder = {
    d_src : string;
    mutable d_pos : int;
    mutable d_table : string array;
    mutable d_count : int;
  }

  let decoder s = { d_src = s; d_pos = 0; d_table = [||]; d_count = 0 }

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

  (* The intern slot a string reference names: marker [0] defines the
     next slot inline, [k > 0] is slot [k-1]. *)
  let slot_exn d =
    let n = uvarint_exn d in
    if n = 0 then begin
      push_interned d (raw_string_exn d);
      d.d_count - 1
    end
    (* a 9-byte marker can wrap negative: refs are bounded on both sides *)
    else if n > 0 && n - 1 < d.d_count then n - 1
    else bad "string ref %d out of table range (%d entries)" n d.d_count

  let string_exn d = d.d_table.(slot_exn d)

  (* A real of [width] bytes: 8 (binary64) or 2 (binary16). *)
  let real_exn d width =
    let pos = d.d_pos in
    if String.length d.d_src - pos < width then bad "truncated real at byte %d" pos;
    d.d_pos <- pos + width;
    if width = 8 then Int64.float_of_bits (String.get_int64_le d.d_src pos)
    else float_of_half (String.get_uint16_le d.d_src pos)

  (* The count after a [t_packed] or [t_zpacked] tag: at least one
     element (an empty list is [t_list]), and no more than the bytes
     left, since every element takes at least one. *)
  let packed_count_exn d =
    let n = uvarint_exn d in
    if n < 1 || n > remaining d then bad "packed list of %d ints overruns input" n;
    n

  (* The field count after a [t_records] tag and its count [n]: at
     least one record of at least one field (no lying count can build
     empty records from a few bytes), and no more values, [n * k], than
     the bytes left — compared as a quotient, so the product cannot
     overflow. *)
  let records_fields_exn d n =
    let k = uvarint_exn d in
    if n < 1 || k < 1 || n > remaining d / k then
      bad "packed list of %d records of %d fields overruns input" n k;
    k

  let rec value_exn d depth =
    if depth > max_depth then bad "nesting deeper than %d" max_depth;
    let tag = u8 d in
    if tag = t_unit then Unit
    else if tag = t_false then Bool false
    else if tag = t_true then Bool true
    else if tag = t_int then Int (uvarint_exn d)
    else if tag = t_nint then Int (unzigzag (uvarint_exn d))
    else if tag = t_real16 then Real (real_exn d 2)
    else if tag = t_real then Real (real_exn d 8)
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
        if k = 0 then List.rev acc else go (k - 1) (Int (uvarint_exn d) :: acc)
      in
      List (go n [])
    end
    else if tag = t_zpacked then begin
      let n = packed_count_exn d in
      let rec go k acc =
        if k = 0 then List.rev acc else go (k - 1) (Int (unzigzag (uvarint_exn d)) :: acc)
      in
      List (go n [])
    end
    else if tag = t_records then begin
      let n = uvarint_exn d in
      let k = records_fields_exn d n in
      let rec names j acc = if j = 0 then List.rev acc else names (j - 1) (string_exn d :: acc) in
      let names = names k [] in
      (* a record's values sit where the tagged form's would: depth + 2 *)
      let rec record acc = function
        | [] -> Record (List.rev acc)
        | name :: rest -> record ((name, value_exn d (depth + 2)) :: acc) rest
      in
      let rec go j acc = if j = 0 then List.rev acc else go (j - 1) (record [] names :: acc) in
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

  (* A real's [width] payload bytes. *)
  let skip_fixed slen pos width =
    if slen - pos < width then bad "truncated real at byte %d" pos;
    pos + width

  (* Structural scan without materialisation: validates exactly what
     [value_exn] would and leaves the cursor after the value, but
     allocates nothing except intern-table entries (the per-frame table
     must see the same side effects either way, so a later slice of the
     same frame decodes identically). The scan runs
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
    else if tag = t_int || tag = t_nint then skip_varint src slen pos
    else if tag = t_real16 then skip_fixed slen pos 2
    else if tag = t_real then skip_fixed slen pos 8
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
    else if tag = t_packed || tag = t_zpacked then begin
      d.d_pos <- pos;
      let n = packed_count_exn d in
      skip_varints src slen n d.d_pos
    end
    else if tag = t_records then begin
      d.d_pos <- pos;
      let n = uvarint_exn d in
      let k = records_fields_exn d n in
      let pos = skip_names d src slen k d.d_pos in
      skip_items d src slen stop_at_pref (depth + 2) (n * k) pos
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

  and skip_names d src slen k pos =
    if k = 0 then pos else skip_names d src slen (k - 1) (skip_istring d src slen pos)

  (* Skip an interned string. The common steady-state shape — a
     one-byte back-reference into a table the scan has already built —
     resolves positionally with no side effects; everything else
     (defines, multi-byte markers, bad refs) falls back to [string_exn]
     for identical table updates and errors. *)
  and skip_istring d src slen pos =
    if pos >= slen then truncated_at pos;
    let m = Char.code (String.unsafe_get src pos) in
    (* marker 0 is a define; k>0 is frame slot k-1 *)
    let slot = if m >= 0x80 then -1 else m - 1 in
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
     scan itself wrote, so sharing the array is safe). Navigation and
     materialisation replay the slice through a fresh cursor.

     Views share mutable intern tables with their frame and are NOT
     safe to hand to another domain: materialise first. *)

  type t = {
    v_src : string;
    v_start : int;
    v_stop : int;
    v_table : string array;  (* frame intern table, post-scan *)
    v_tcount : int;  (* intern count at [v_start] *)
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

  (* An immutable copy of the view's mutable surroundings: the intern
     table is snapshotted (its strings are immutable and safely shared),
     so the result can cross to a pool worker domain while the frame's
     decoder keeps appending to the original. O(table size) pointer
     copies, no byte copying. *)
  let snapshot v = { v with v_table = Array.copy v.v_table }

  let replay v =
    { Bin.d_src = v.v_src; d_pos = v.v_start; d_table = v.v_table; d_count = v.v_tcount }

  (* The scan in [read] rejected unknown tags, so the head byte is
     total here. *)
  let shape v =
    let t = Char.code (String.unsafe_get v.v_src v.v_start) in
    if t = Bin.t_unit then Vunit
    else if t = Bin.t_false || t = Bin.t_true then Vbool
    else if t = Bin.t_int || t = Bin.t_nint then Vint
    else if t = Bin.t_real || t = Bin.t_real16 then Vreal
    else if t = Bin.t_str_ref || t = Bin.t_str_inline then Vstr
    else if t = Bin.t_pair then Vpair
    else if t = Bin.t_list || t = Bin.t_packed || t = Bin.t_zpacked || t = Bin.t_records then Vlist
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

  (* How a list's elements are laid out after its head. *)
  type items =
    | Tagged_items  (* [t_list]: each element a whole value *)
    | Packed_ints of int  (* bare varints; the scalar tag of their form *)
    | Packed_records of string array
        (* [t_records]: the bytes an element view writes before each
           field's value *)

  let plain_ints = Packed_ints Bin.t_int

  let zigzag_ints = Packed_ints Bin.t_nint

  (* An element of a packed int list has no tag byte of its own, so its
     view is a fresh standalone [Int] encoding rather than a slice of
     the frame: the element's bytes behind [int_tag], the scalar tag of
     the list's varint form. *)
  let packed_item_exn int_tag (d : Bin.decoder) =
    let start = d.Bin.d_pos in
    ignore (Bin.uvarint_exn d : int);
    let len = d.Bin.d_pos - start in
    let b = Bytes.create (1 + len) in
    Bytes.set b 0 (Char.chr int_tag);
    Bytes.blit_string d.Bin.d_src start b 1 len;
    {
      v_src = Bytes.unsafe_to_string b;
      v_start = 0;
      v_stop = 1 + len;
      v_table = [||];
      v_tcount = 0;
    }

  (* The head of a [t_records] list names its fields once, so an
     element's view is a fresh [t_record] encoding too: a [09 k]
     header, each name as a reference to its slot in the frame's
     intern table, and each value's bytes copied from the frame. It
     shares the frame's table, counted from the element's start, so
     strings the element's values define land in their frame slots on
     replay. [fields.(j)] holds the bytes before value [j]. *)
  let record_prefixes_exn (d : Bin.decoder) k =
    let b = Buffer.create 8 in
    Array.init k (fun j ->
        Buffer.clear b;
        if j = 0 then begin
          Buffer.add_char b (Char.chr Bin.t_record);
          Bin.buffer_add_uvarint b k
        end;
        Bin.buffer_add_uvarint b (Bin.slot_exn d + 1);
        Buffer.contents b)

  let packed_record_exn fields (d : Bin.decoder) =
    let tcount = d.Bin.d_count in
    let b = Buffer.create 64 in
    Array.iter
      (fun prefix ->
        Buffer.add_string b prefix;
        let start = d.Bin.d_pos in
        Bin.skip_value_exn d 0;
        Buffer.add_substring b d.Bin.d_src start (d.Bin.d_pos - start))
      fields;
    {
      v_src = Buffer.contents b;
      v_start = 0;
      v_stop = Buffer.length b;
      v_table = d.Bin.d_table;
      v_tcount = tcount;
    }

  (* Read a list head: the element count and how the elements are laid
     out. *)
  let list_head_exn (d : Bin.decoder) =
    let t = Bin.u8 d in
    if t = Bin.t_list then begin
      let n = Bin.uvarint_exn d in
      if n < 0 || n > Bin.remaining d then Bin.bad "list of %d elements overruns input" n;
      (n, Tagged_items)
    end
    else if t = Bin.t_packed then (Bin.packed_count_exn d, plain_ints)
    else if t = Bin.t_zpacked then (Bin.packed_count_exn d, zigzag_ints)
    else if t = Bin.t_records then begin
      let n = Bin.uvarint_exn d in
      let k = Bin.records_fields_exn d n in
      (n, Packed_records (record_prefixes_exn d k))
    end
    else Bin.bad "expected list, got tag 0x%02x" t

  let item_exn items d =
    match items with
    | Tagged_items -> sub_exn d
    | Packed_ints int_tag -> packed_item_exn int_tag d
    | Packed_records fields -> packed_record_exn fields d

  let list_items v =
    Bin.wrap
      (fun d ->
        let n, items = list_head_exn d in
        let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (item_exn items d :: acc) in
        go n [])
      (replay v)

  (* Every list form puts its count right after the tag, so the count
     alone needs no head: a [t_records] head would build its field
     prefixes for nothing. *)
  let list_length v =
    Bin.wrap
      (fun d ->
        let t = Bin.u8 d in
        if shape v <> Vlist then Bin.bad "expected list, got tag 0x%02x" t;
        Bin.uvarint_exn d)
      (replay v)

  (* One-item projection: items before [i] are skipped, items after it
     never scanned. [Ok None] when the list is shorter than [i + 1]. *)
  let list_item v i =
    if i < 0 then Error (Printf.sprintf "negative list index %d" i)
    else
      Bin.wrap
        (fun d ->
          let n, items = list_head_exn d in
          if i >= n then None
          else begin
            (match items with
            | Tagged_items ->
                for _ = 1 to i do
                  Bin.skip_value_exn d 0
                done
            | Packed_ints _ ->
                for _ = 1 to i do
                  ignore (Bin.uvarint_exn d : int)
                done
            | Packed_records fields ->
                for _ = 1 to i * Array.length fields do
                  Bin.skip_value_exn d 0
                done);
            Some (item_exn items d)
          end)
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

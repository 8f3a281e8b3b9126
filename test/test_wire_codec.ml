(* Tests for the binary wire layer (docs/WIRE.md): Xdr.Bin value codec
   round trips (property-based, incl. adversarial inputs), the Chanhub
   packet frame codec, ack piggybacking, Nagle-style adaptive flushing
   and the sender-side sliding window. *)

module S = Sched.Scheduler
module B = Xdr.Bin
module CH = Cstream.Chanhub
module SE = Cstream.Stream_end
module T = Cstream.Target
module W = Cstream.Wire
module GC = Cstream.Group_config

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Random value trees *)

(* Ints at the edges of each varint width, in both forms: plain LEB128
   for n >= 0 (1 byte up to 127, 9 bytes past 2^56 - 1), zigzag for
   n < 0 (1 byte down to -64). *)
let width_edge_ints =
  [ 0; 1; 63; 64; 127; 128; (1 lsl 56) - 1; 1 lsl 56; max_int; -1; -64; -65; min_int ]

(* Reals of every width the encoder picks (docs/WIRE.md §1): means of
   16 grades and binary16's edges — its largest finite value, smallest
   normal and subnormal — then values one step past binary16 (65520
   overflows it, 2049 needs 12 significant bits, 2^-25 underflows),
   binary32 patterns, other binary64-only values such as 0.1, signed zeros,
   infinities and NaNs with payloads, quiet and signalling. *)
let gen_real : float QCheck.Gen.t =
  let open QCheck.Gen in
  oneof
    [
      float;
      map (fun k -> float_of_int k /. 16.0) (int_range (-1600) 1600);
      oneofl
        [
          65504.0; -65504.0; Float.ldexp 1.0 (-14); Float.ldexp 1.0 (-24); 2048.0;
          65520.0; 2049.0; Float.ldexp 1.0 (-25); Float.ldexp 3.0 (-25);
        ];
      map Int32.float_of_bits int32;
      oneofl
        [
          0.1; 0.0; -0.0; infinity; neg_infinity; nan; Float.min_float; Float.max_float;
          Float.ldexp 1.0 (-1074);
        ];
      map Int64.float_of_bits
        (oneofl
           [
             0x7FF0_0000_0000_0001L; 0x7FF4_0000_0000_0000L; 0x7FF8_0000_0000_0001L;
             0xFFF8_0000_0000_0000L; 0x7FFC_0000_0000_0000L; 0x7FF0_0000_2000_0000L;
             0xFFFF_FFFF_FFFF_FFFFL;
           ]);
      map Int64.float_of_bits int64;
    ]

let field_names = [ "q"; "i"; "p"; "k"; "a"; "name"; "grades" ]

(* Record [fields] with one field renamed, two swapped, one more or one
   fewer ([miss] 1-4), or as it is (0). *)
let near_miss miss fields =
  match (miss, fields) with
  | 1, (n, v) :: rest -> (n ^ "'", v) :: rest
  | 2, a :: b :: rest -> b :: a :: rest
  | 3, _ -> fields @ [ ("extra", Xdr.Unit) ]
  | 4, _ :: rest -> rest
  | _ -> fields

(* A list of records sharing one field-name sequence, the packed record
   form (tag 0x0F), or a near miss of one: one record renamed,
   reordered, or with a field more or less, which must stay 0x08. *)
let gen_record_list sub =
  let open QCheck.Gen in
  let* names = list_size (int_range 1 4) (oneofl field_names) in
  let* rows = list_size (int_range 1 5) (list_repeat (List.length names) sub) in
  let* miss = int_bound 4 and* j = int_bound (List.length rows - 1) in
  return
    (Xdr.List
       (List.mapi
          (fun i vs ->
            let fields = List.combine names vs in
            Xdr.Record (if i = j then near_miss miss fields else fields))
          rows))

let gen_value : Xdr.value QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_string =
    oneof
      [
        string_size ~gen:printable (int_range 0 12);
        (* raw bytes incl. NUL and non-ASCII *)
        string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 20);
        return "héllo wörld ⇒ ünïcode";
        string_size ~gen:printable (int_range 65 120);  (* beyond intern threshold *)
      ]
  in
  let gen_int = oneof [ small_signed_int; int; oneofl width_edge_ints ] in
  sized @@ fix (fun self n ->
      let gen_pref =
        map3
          (fun stream call field -> Xdr.Pref { Xdr.ps_stream = stream; ps_call = call; ps_field = field })
          gen_string
          (oneof [ small_nat; oneofl [ 0; 1; max_int ] ])
          (oneof [ return None; map Option.some gen_string ])
      in
      let leaf =
        oneof
          [
            return Xdr.Unit;
            map (fun b -> Xdr.Bool b) bool;
            map (fun i -> Xdr.Int i) gen_int;
            map (fun r -> Xdr.Real r) gen_real;
            map (fun s -> Xdr.Str s) gen_string;
            gen_pref;
          ]
      in
      if n <= 0 then leaf
      else
        let sub = self (n / 3) in
        oneof
          [
            leaf;
            map2 (fun a b -> Xdr.Pair (a, b)) sub sub;
            map (fun vs -> Xdr.List vs) (list_size (int_range 0 6) sub);
            (* all-Int lists take the packed encoding *)
            map
              (fun is -> Xdr.List (List.map (fun i -> Xdr.Int i) is))
              (list_size (int_range 0 6) gen_int);
            map
              (fun fields -> Xdr.Record fields)
              (list_size (int_range 0 5) (pair (oneofl field_names) sub));
            gen_record_list sub;
            map2 (fun t v -> Xdr.Tagged (t, v)) (oneofl [ "n"; "g"; "u"; "f" ]) sub;
          ])

let arb_value = QCheck.make ~print:(Format.asprintf "%a" Xdr.pp_value) gen_value

let prop_roundtrip =
  QCheck.Test.make ~name:"decode (encode v) = v" ~count:500 arb_value (fun v ->
      match B.of_string (B.to_string v) with
      | Ok v' -> Xdr.equal_value v v'
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* [Xdr.equal_value] with reals compared by their bits, so -0.0 differs
   from 0.0 and one NaN payload from another: a width picker that drops
   a sign or a payload fails it. *)
let rec equal_bits (a : Xdr.value) (b : Xdr.value) =
  match (a, b) with
  | Xdr.Real x, Xdr.Real y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Xdr.Pair (a1, a2), Xdr.Pair (b1, b2) -> equal_bits a1 b1 && equal_bits a2 b2
  | Xdr.List xs, Xdr.List ys -> List.equal equal_bits xs ys
  | Xdr.Record xs, Xdr.Record ys ->
      List.equal (fun (n, x) (m, y) -> String.equal n m && equal_bits x y) xs ys
  | Xdr.Tagged (s, x), Xdr.Tagged (t, y) -> String.equal s t && equal_bits x y
  | _ -> Xdr.equal_value a b

let prop_bit_exact =
  QCheck.Test.make ~name:"bits survive decode and views, re-encode identical"
    ~count:1000 arb_value (fun v ->
      let enc = B.to_string v in
      match (B.of_string enc, Result.bind (Xdr.View.of_string enc) Xdr.View.materialize) with
      | Ok tree, Ok viewed ->
          equal_bits v tree && equal_bits v viewed && String.equal (B.to_string tree) enc
      | Error e, _ | _, Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

(* ------------------------------------------------------------------ *)
(* Explicit edge cases *)

let roundtrip v =
  match B.of_string (B.to_string v) with
  | Ok v' -> v'
  | Error e -> Alcotest.failf "decode failed: %s" e

let assert_roundtrips what v =
  check Alcotest.bool what true (Xdr.equal_value v (roundtrip v))

let test_edge_values () =
  assert_roundtrips "min_int" (Xdr.Int min_int);
  assert_roundtrips "max_int" (Xdr.Int max_int);
  assert_roundtrips "negative" (Xdr.Int (-123456789));
  assert_roundtrips "nan" (Xdr.Real nan);
  assert_roundtrips "inf" (Xdr.Real infinity);
  assert_roundtrips "-inf" (Xdr.Real neg_infinity);
  assert_roundtrips "-0." (Xdr.Real (-0.0));
  assert_roundtrips "empty list" (Xdr.List []);
  assert_roundtrips "empty record" (Xdr.Record []);
  assert_roundtrips "empty string" (Xdr.Str "");
  assert_roundtrips "non-ascii" (Xdr.Str "日本語 résumé \x00\xff");
  assert_roundtrips "long string" (Xdr.Str (String.make 5000 '\xab'));
  assert_roundtrips "repeated fields"
    (Xdr.List
       (List.init 20 (fun i ->
            Xdr.Record [ ("q", Xdr.Int i); ("a", Xdr.Str "portname") ])));
  assert_roundtrips "promise ref"
    (Xdr.Pref { Xdr.ps_stream = "3|~r/a/main/1"; ps_call = 42; ps_field = None });
  assert_roundtrips "promise ref with field"
    (Xdr.Pref { Xdr.ps_stream = "3|~r/a/main/1"; ps_call = 0; ps_field = Some "hi" });
  assert_roundtrips "promise ref edge strings"
    (Xdr.Pref { Xdr.ps_stream = ""; ps_call = max_int; ps_field = Some "" });
  (* The stream id is repeated across a pipelined batch: it must go
     through the string-interning path like any other string. *)
  assert_roundtrips "interned stream ids"
    (Xdr.List
       (List.init 8 (fun i ->
            Xdr.Pref { Xdr.ps_stream = "7|~r/agent/group/9"; ps_call = i; ps_field = None })))

let test_pref_bad_field_marker_rejected () =
  (* Tag 0x0B (Pref), interned empty stream id (fresh entry, length 0),
     call 0, then a field marker that is neither 0 nor 1: the total
     decoder must reject, not crash. *)
  match B.of_string "\x0b\x00\x00\x00\x02" with
  | Ok v -> Alcotest.failf "bad field marker decoded as %a" Xdr.pp_value v
  | Error _ -> ()

let test_wrapped_string_ref_rejected () =
  (* A 9-byte string-ref marker that wraps to a negative int: the ref
     must be refused, not used as an array index. *)
  let frame = "\n\000\001n\n\001\005\239\166\161\142\187\193\202\192\127" in
  (match B.of_string frame with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "wrapped ref decoded as %a" Xdr.pp_value v);
  match Xdr.View.of_string frame with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrapped ref scanned"

let test_deep_nesting_roundtrips () =
  let rec deep n acc = if n = 0 then acc else deep (n - 1) (Xdr.Pair (Xdr.Int n, acc)) in
  assert_roundtrips "300 levels" (deep 300 Xdr.Unit)

let test_excessive_nesting_rejected () =
  (* Hand-built 2000-deep Pair spine: the decoder must refuse (depth
     cap) rather than risk a stack overflow — and refuse politely. *)
  let b = Buffer.create 4096 in
  for _ = 1 to 2000 do
    Buffer.add_char b '\x07' (* Pair *);
    Buffer.add_char b '\x00' (* Unit as first component *)
  done;
  Buffer.add_char b '\x00';
  match B.of_string (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "2000-deep nesting accepted"

let test_string_interning_compresses () =
  (* 50 records sharing field names and a port string: the intern table
     should make this far smaller than 50 standalone encodings. *)
  let item i = Xdr.Record [ ("port", Xdr.Str "record_grade"); ("seq", Xdr.Int i) ] in
  let size v = String.length (B.to_string v) in
  let batch = size (Xdr.List (List.init 50 item)) in
  let standalone = List.init 50 (fun i -> size (item i)) |> List.fold_left ( + ) 0 in
  check Alcotest.bool
    (Printf.sprintf "batched %dB < 60%% of standalone %dB" batch standalone)
    true
    (float_of_int batch < 0.6 *. float_of_int standalone)

(* ------------------------------------------------------------------ *)
(* Truncation / corruption: total decoding *)

let sample_handoff =
  { W.ho_owner = 2; ho_stream = "1|~r/a/grades/2"; ho_call = 5; ho_epoch = 1 }

let test_truncated_returns_error () =
  let victims =
    [
      Xdr.Int max_int;
      Xdr.Real 3.25;
      Xdr.Str "hello world";
      Xdr.List [ Xdr.Int 1; Xdr.Str "two"; Xdr.Real 3.0 ];
      Xdr.Record [ ("q", Xdr.Int 1); ("a", Xdr.Tagged ("n", Xdr.Unit)) ];
      (* packed: multi-byte varints, so cuts land inside an element *)
      Xdr.List [ Xdr.Int 1; Xdr.Int min_int; Xdr.Int 300; Xdr.Int max_int ];
      Xdr.Record [ ("grades", Xdr.List [ Xdr.Int 90; Xdr.Int (-7) ]); ("n", Xdr.Int 2) ];
      (* envelopes: a call with every optional element, replies of
         both forms, a packed int reply and a traced send-ok *)
      W.call_item ~resubmit:true ~handoff:[ sample_handoff ] ~cid:300 ~trace:(Some 70000)
        ~port:(W.Define "record_grade") ~kind:W.Send
        ~args:(Xdr.Pair (Xdr.Str "stu1", Xdr.Int 85)) ();
      W.reply_item ~trace:None (W.W_normal (Xdr.Str "done"));
      W.reply_item ~trace:None (W.W_normal (Xdr.Int 70000));
      W.reply_item ~trace:(Some 70000) (W.W_signal ("no_such_user", Xdr.Str "bob"));
      W.send_ok_item ~trace:(Some 70000);
    ]
  in
  List.iter
    (fun v ->
      let enc = B.to_string v in
      for len = 0 to String.length enc - 1 do
        match B.of_string (String.sub enc 0 len) with
        | Error _ -> ()
        | Ok got ->
            Alcotest.failf "prefix %d/%d of %a decoded to %a" len (String.length enc)
              Xdr.pp_value v Xdr.pp_value got
      done)
    victims

let test_trailing_garbage_rejected () =
  let enc = B.to_string (Xdr.Int 5) ^ "x" in
  match B.of_string enc with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing byte accepted"

let prop_corruption_never_raises =
  QCheck.Test.make ~name:"corrupted buffers never raise" ~count:300
    QCheck.(triple arb_value small_int (int_bound 255))
    (fun (v, pos, byte) ->
      let enc = Bytes.of_string (B.to_string v) in
      let pos = pos mod Bytes.length enc in
      Bytes.set enc pos (Char.chr byte);
      match B.of_string (Bytes.to_string enc) with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

let prop_random_bytes_never_raise =
  QCheck.Test.make ~name:"arbitrary byte strings never raise" ~count:300
    QCheck.(string_gen_of_size (Gen.int_range 0 40) (Gen.map Char.chr (Gen.int_range 0 255)))
    (fun s ->
      match B.of_string s with
      | Ok _ | Error _ -> true
      | exception e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Packet frame codec *)

let ack ?(pressure = 0) idx upto = { CH.a_idx = idx; a_upto = upto; a_pressure = pressure }

let equal_packet (a : Xdr.value CH.packet) (b : Xdr.value CH.packet) =
  match (a, b) with
  | ( CH.Data { idx = x1; first_seq = f1; opening = o1; acks = a1; items = i1 },
      CH.Data { idx = x2; first_seq = f2; opening = o2; acks = a2; items = i2 } ) ->
      x1 = x2 && f1 = f2 && o1 = o2 && a1 = a2
      && List.length i1 = List.length i2
      && List.for_all2 Xdr.equal_value i1 i2
  | CH.Ack { acks = a1 }, CH.Ack { acks = a2 } -> a1 = a2
  | CH.Reset _, CH.Reset _ -> a = b
  | _ -> false

let sample_opening = { CH.open_label = "grades"; open_meta = "~r/a/grades/1/0" }

let data ?(acks = []) ?(items = []) ~first_seq () =
  let opening = if first_seq = 0 then Some sample_opening else None in
  CH.Data { idx = 7; first_seq; opening; acks; items }

let test_packet_roundtrips () =
  let packets =
    [
      data ~first_seq:42
        ~acks:[ ack 7 (-1); ack ~pressure:2 8 17 ]
        ~items:
          (List.init 5 (fun i ->
               W.call_item ~cid:(100 + i) ~trace:None
                 ~port:(if i = 0 then W.Define "record_grade" else W.Ref 0) ~kind:W.Call
                 ~args:(Xdr.Pair (Xdr.Str "stu00001", Xdr.Int 85)) ()))
        ();
      data ~first_seq:0 ();
      CH.Ack { acks = [ ack ~pressure:1 7 12 ] };
      CH.Ack { acks = [] };
      CH.Reset { src = 3; idx = 7; reason = "no such port group" };
    ]
  in
  List.iter
    (fun p ->
      match CH.decode_packet (CH.encode_packet p) with
      | Ok p' -> check Alcotest.bool "packet roundtrip" true (equal_packet p p')
      | Error e -> Alcotest.failf "packet decode failed: %s" e)
    packets

(* Ack indexes and uptos range over every int; an ack idx outside
   [0 .. max_int lsr 2], where it would not fit beside the pressure
   bits, makes the encoder raise. first_seq runs up to [max_int lsr 2]
   and takes the int edges too, where an upto counted from it would
   overflow. *)
let gen_packet : Xdr.value CH.packet QCheck.Gen.t =
  let open QCheck.Gen in
  let top = max_int lsr 2 in
  let nat = oneof [ small_nat; int_bound max_int ] in
  let edges = oneofl [ -1; 0; top; top + 1; max_int; min_int ] in
  (* a channel idx shares its varint with an ack's two pressure bits *)
  let idx = oneof [ small_nat; int_bound top ] in
  let gen_ack =
    map3
      (fun a_idx a_upto a_pressure -> { CH.a_idx; a_upto; a_pressure })
      (frequency [ (10, idx); (1, int); (1, edges) ])
      (oneof [ return (-1); nat; int; edges ])
      (int_bound 3)
  in
  let gen_string = string_size ~gen:printable (int_range 0 24) in
  let gen_data =
    (* first_seq = 0 half the time: the opening form is not a corner case *)
    let* first_seq =
      oneof [ return 0; oneof [ map succ small_nat; int_range 1 top; edges ] ]
    in
    let* opening =
      if first_seq = 0 then
        map2 (fun open_label open_meta -> Some { CH.open_label; open_meta }) gen_string gen_string
      else return None
    in
    map3
      (fun idx acks items -> CH.Data { idx; first_seq; opening; acks; items })
      idx
      (list_size (int_range 0 4) gen_ack)
      (list_size (int_range 0 4) gen_value)
  in
  oneof
    [
      gen_data;
      gen_data;
      map (fun acks -> CH.Ack { acks }) (list_size (int_range 0 4) gen_ack);
      map3 (fun src idx reason -> CH.Reset { src; idx; reason }) nat nat gen_string;
    ]

let acks_in_range = function
  | CH.Data { acks; _ } | CH.Ack { acks } ->
      List.for_all (fun a -> a.CH.a_idx >= 0 && a.CH.a_idx <= max_int lsr 2) acks
  | CH.Reset _ -> true

let prop_packet_roundtrip =
  QCheck.Test.make ~name:"decode (encode p) = p, and re-encodes byte-for-byte" ~count:1000
    (QCheck.make gen_packet) (fun p ->
      match CH.encode_packet p with
      | exception Invalid_argument _ when not (acks_in_range p) -> true
      | _ when not (acks_in_range p) -> QCheck.Test.fail_reportf "ack idx out of range encoded"
      | f -> (
          match CH.decode_packet f with
          | Ok p' -> equal_packet p p' && String.equal (CH.encode_packet p') f
          | Error e -> QCheck.Test.fail_reportf "packet decode failed: %s" e))

(* A channel encodes each item into its open packet as it is sent, and
   a flush writes the head in front: every frame must be the reference
   encoding of the same packet. Labels, metas and the strings inside
   items come from one small pool, so label = meta and items that
   reuse the opening's strings are common. *)
let prop_send_path_is_encode_packet =
  let pool = [ "grades"; "~r/a/grades/1/0"; "k"; "" ] in
  let gen =
    let open QCheck.Gen in
    let name = oneofl pool in
    let item =
      oneof
        [
          gen_value;
          map (fun s -> Xdr.Str s) name;
          map2 (fun s v -> Xdr.Tagged (s, v)) name gen_value;
          map2 (fun s v -> Xdr.Record [ (s, v); (s, Xdr.Str s) ]) name gen_value;
          map2
            (fun s call -> Xdr.Pref { Xdr.ps_stream = s; ps_call = call; ps_field = Some s })
            name small_nat;
        ]
    in
    triple name name (list_size (int_range 1 4) (list_size (int_range 1 5) item))
  in
  let print (label, meta, batches) =
    Printf.sprintf "label %S, meta %S, batches [%s]" label meta
      (String.concat "; "
         (List.map
            (fun items -> String.concat ", " (List.map (Format.asprintf "%a" Xdr.pp_value) items))
            batches))
  in
  QCheck.Test.make ~name:"send + flush_out frames = encode_packet" ~count:300
    (QCheck.make ~print gen) (fun (label, meta, batches) ->
      let sched = S.create () in
      let net = Net.create sched Net.default_config in
      let node = Net.add_node net ~name:"a" in
      let frames = ref [] in
      let capture ~dst:_ f = frames := f :: !frames in
      let tr = { (Transport_sim.endpoint net node) with Transport.send = capture } in
      let hub = CH.create_hub ~transport:tr () in
      let cfg =
        {
          CH.default_config with
          CH.max_batch = max_int;
          max_batch_bytes = max_int;
          flush_interval = infinity;
        }
      in
      let out = CH.connect hub ~dst:(Net.address node + 1) ~label ~meta cfg in
      let key = CH.out_key out in
      let expected, _ =
        List.fold_left
          (fun (acc, first_seq) items ->
            List.iter (fun v -> ignore (CH.send out v : (unit, string) result)) items;
            CH.flush_out out;
            let opening =
              if first_seq = 0 then Some { CH.open_label = label; open_meta = meta } else None
            in
            let p = CH.Data { idx = key.CH.idx; first_seq; opening; acks = []; items } in
            (CH.encode_packet p :: acc, first_seq + List.length items))
          ([], 0) batches
      in
      List.equal String.equal (List.rev expected) (List.rev !frames))

(* Rewinding to a mark forgets the bytes and the intern entries written
   since: the strings of the dropped value are defined afresh by the
   next one that uses them, as if it had never been encoded. *)
let prop_rewind_forgets =
  QCheck.Test.make ~name:"a, mark, b, rewind, c encodes as a, c" ~count:300
    (QCheck.make ~print:(fun (a, b, c) ->
         Format.asprintf "%a | %a | %a" Xdr.pp_value a Xdr.pp_value b Xdr.pp_value c)
       (QCheck.Gen.triple gen_value gen_value gen_value))
    (fun (a, b, c) ->
      let rewound = B.acquire () and plain = B.acquire () in
      B.add_value rewound a;
      B.mark rewound;
      B.add_value rewound b;
      B.rewind rewound;
      List.iter (B.add_value rewound) [ c; b ];
      List.iter (B.add_value plain) [ a; c; b ];
      let same = String.equal (B.contents rewound) (B.contents plain) in
      B.release rewound;
      B.release plain;
      same)

let test_opening_fields_only_at_seq_zero () =
  let compact = CH.encode_packet (data ~first_seq:1 ()) in
  let opening = CH.encode_packet (data ~first_seq:0 ()) in
  check Alcotest.int "an opening frame adds exactly its label and meta"
    (String.length compact
    + String.length (B.to_string (Xdr.Str sample_opening.open_label))
    + String.length (B.to_string (Xdr.Str sample_opening.open_meta))
    - 2)
    (String.length opening);
  let rejects p =
    match CH.encode_packet p with
    | _ -> Alcotest.fail "inconsistent opening encoded"
    | exception Invalid_argument _ -> ()
  in
  rejects (CH.Data { idx = 7; first_seq = 0; opening = None; acks = []; items = [] });
  rejects (CH.Data { idx = 7; first_seq = 1; opening = Some sample_opening; acks = []; items = [] })

let test_packet_garbage_rejected () =
  (match CH.decode_packet "" with Error _ -> () | Ok _ -> Alcotest.fail "empty frame accepted");
  (match CH.decode_packet "\x02\x01" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong version accepted");
  List.iter
    (fun p ->
      let enc = CH.encode_packet p in
      for len = 0 to String.length enc - 1 do
        match CH.decode_packet (String.sub enc 0 len) with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "truncated frame (%d bytes) accepted" len
      done)
    [ CH.Reset { src = 3; idx = 7; reason = "r" }; data ~first_seq:0 () ]

(* ------------------------------------------------------------------ *)
(* Behaviour: piggybacking, Nagle flush, sliding window *)

type world = {
  sched : S.t;
  net : CH.frame Net.t;
  node_a : Net.node;
  node_b : Net.node;
  hub_a : CH.hub;
  hub_b : CH.hub;
}

let make_world ?(cfg = Net.default_config) ?(seed = 42) ?(ack_delay = 0.0) () =
  let sched = S.create ~seed () in
  let net = Net.create sched cfg in
  let node_a = Net.add_node net ~name:"a" in
  let node_b = Net.add_node net ~name:"b" in
  let hub_a = CH.create_hub ~ack_delay ~net:(net, node_a) () in
  let hub_b = CH.create_hub ~ack_delay ~net:(net, node_b) () in
  { sched; net; node_a; node_b; hub_a; hub_b }

let run_ok w =
  match S.run w.sched with
  | S.Completed -> ()
  | S.Deadlocked fs ->
      Alcotest.failf "deadlock: %s" (String.concat "," (List.map S.fiber_name fs))
  | S.Time_limit -> Alcotest.fail "unexpected time limit"

(* A request/reply echo world over raw stream/target, returning the
   scheduler stats after [n] calls. *)
let run_echo ~w ~cfg ~n =
  let target =
    T.create w.hub_b ~gid:"echo"
      ~config:GC.(default |> with_reply_config cfg)
      (fun _conn ~seq:_ ~port:_ ~kind:_ ~args ~reply -> reply (W.W_normal args))
  in
  ignore (target : T.t);
  let se = SE.create w.hub_a ~agent:"t" ~dst:(Net.address w.node_b) ~gid:"echo" ~config:cfg () in
  let replies = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to n do
           match
             SE.call se ~port:"p" ~kind:W.Call ~args:(Xdr.Int i) ~on_reply:(fun _ -> incr replies)
           with
           | Ok _ -> ()
           | Error e -> Alcotest.failf "call failed: %s" e
         done;
         match SE.synch se with
         | Ok () -> ()
         | Error `Exception_reply -> Alcotest.fail "exception reply"
         | Error (`Broken r) -> Alcotest.failf "stream broke: %s" r));
  run_ok w;
  check Alcotest.int "all replies arrived" n !replies;
  S.stats w.sched

(* A simulated reply leaves a turn after its call arrived (the receive
   overhead is lane time), so with the end-of-turn hold the call acks
   go alone; a 1 ms hold waits for the replies. *)
let test_piggybacking_halves_standalone_acks () =
  let cfg = { CH.default_config with CH.max_batch = 8; flush_interval = 1e-3 } in
  let without = run_echo ~w:(make_world ()) ~cfg ~n:64 in
  let with_ = run_echo ~w:(make_world ~ack_delay:1e-3 ()) ~cfg ~n:64 in
  let acks_off = Sim.Stats.peek without "chan_ack_packets" in
  let acks_on = Sim.Stats.peek with_ "chan_ack_packets" in
  check Alcotest.bool
    (Printf.sprintf "standalone ack packets: %d with a 1 ms hold <= half of %d with a turn hold"
       acks_on acks_off)
    true
    (acks_on * 2 <= acks_off);
  check Alcotest.bool "some acks actually piggybacked" true
    (Sim.Stats.peek with_ "chan_piggybacked_acks" > 0)

let test_nagle_first_item_flushes_immediately () =
  let w = make_world () in
  let received_at = ref nan in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ _ -> received_at := S.now w.sched));
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:""
      { CH.adaptive_config with CH.flush_interval = 100e-3 }
  in
  ignore (S.spawn w.sched (fun () -> ignore (CH.send out (Xdr.Int 1) : (unit, string) result)));
  run_ok w;
  (* Idle channel: the item must leave immediately (one RTT ~ 1.1 ms),
     not wait for the 100 ms flush timer. *)
  check Alcotest.bool
    (Printf.sprintf "delivered at %.4fs, not on the flush timer" !received_at)
    true
    (!received_at < 10e-3)

(* An idle channel flushes at the end of the turn: everything sent in
   that turn leaves as one batch. While the batch is unacked, later
   sends coalesce and leave together on its ack, long before the
   100 ms flush timer. *)
let test_nagle_coalesces_under_load () =
  let w = make_world () in
  let batches = ref [] in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items ->
          batches := (List.length items, S.now w.sched) :: !batches));
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:""
      { CH.adaptive_config with CH.flush_interval = 100e-3 }
  in
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to 20 do
           ignore (CH.send out (Xdr.Int i) : (unit, string) result)
         done;
         (* The first batch is on the wire now and stays unacked for a
            round trip. *)
         for i = 21 to 25 do
           S.sleep w.sched 1e-4;
           ignore (CH.send out (Xdr.Int i) : (unit, string) result)
         done));
  run_ok w;
  let batches = List.rev !batches in
  check
    Alcotest.(list int)
    "one batch per turn, then one per ack" [ 20; 5 ] (List.map fst batches);
  match batches with
  | [ _; (_, second_at) ] ->
      check Alcotest.bool
        (Printf.sprintf "second batch delivered at %.4fs, on the ack" second_at)
        true (second_at < 10e-3)
  | _ -> ()

(* The idle flush does not wait on the hub's [ack_delay]: with a 1 ms
   hold, an item sent on an idle channel still leaves at the instant it
   was sent, carrying the ack that hold had parked. *)
let test_idle_flush_ignores_ack_delay () =
  let w = make_world ~ack_delay:1e-3 () in
  let stats = S.stats w.sched in
  let out =
    CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" CH.adaptive_config
  in
  let sent_at = ref nan and after_turn = ref None and received_at = ref nan in
  CH.on_connect w.hub_b ~label:"sink" (fun i ->
      CH.set_deliver i (fun _ _ -> received_at := S.now w.sched));
  (* b's item arrives at a, which parks the ack for it on the 1 ms
     hold and, in the same turn, sends on its idle channel. *)
  CH.on_connect w.hub_a ~label:"in" (fun i ->
      CH.set_deliver i (fun _ _ ->
          sent_at := S.now w.sched;
          ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
          S.after w.sched 0.0 (fun () ->
              after_turn :=
                Some
                  ( S.now w.sched,
                    Sim.Stats.peek stats "chan_data_packets",
                    Sim.Stats.peek stats "chan_piggybacked_acks",
                    Sim.Stats.peek stats "chan_ack_packets" ))));
  let back = CH.connect w.hub_b ~dst:(Net.address w.node_a) ~label:"in" ~meta:"" CH.rpc_config in
  ignore (CH.send back (Xdr.Int 0) : (unit, string) result);
  run_ok w;
  match !after_turn with
  | None -> Alcotest.fail "b's item never reached a"
  | Some (at, data_pkts, piggy, ack_pkts) ->
      check (Alcotest.float 0.0) "still the same virtual instant" !sent_at at;
      check Alcotest.int "both data packets out by then" 2 data_pkts;
      check Alcotest.int "the parked ack rode the flush" 1 piggy;
      check Alcotest.int "no standalone ack" 0 ack_pkts;
      check Alcotest.bool "the item was delivered" true (Float.is_finite !received_at)

(* The window-checked send: a refused offer waits, then offers again. *)
let rec send_windowed out item =
  match CH.offer out item with
  | Ok true -> Ok (CH.commit out)
  | Ok false -> send_windowed out item
  | Error e -> Error e

let test_window_backpressures_and_bounds_inflight () =
  let w = make_world () in
  let item = Xdr.Str (String.make 100 'x') in
  let item_bytes = String.length (B.to_string item) in
  (* Window fits ~4 items; 20 sends must block and drain in waves. *)
  let cfg =
    {
      CH.adaptive_config with
      CH.max_inflight_bytes = 4 * item_bytes;
      max_batch = 4;
      flush_interval = 1e-3;
    }
  in
  let received = ref 0 in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items -> received := !received + List.length items));
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" cfg in
  let max_seen = ref 0 in
  ignore
    (S.spawn w.sched (fun () ->
         for _ = 1 to 20 do
           (match send_windowed out item with
           | Ok () -> ()
           | Error e -> Alcotest.failf "send failed: %s" e);
           if CH.inflight_bytes out > !max_seen then max_seen := CH.inflight_bytes out
         done));
  run_ok w;
  check Alcotest.int "all delivered" 20 !received;
  check Alcotest.bool
    (Printf.sprintf "inflight bytes bounded: %d <= %d" !max_seen cfg.CH.max_inflight_bytes)
    true
    (!max_seen <= cfg.CH.max_inflight_bytes)

let test_window_waiters_released_on_break () =
  let w = make_world () in
  let item = Xdr.Str (String.make 100 'x') in
  let cfg = { CH.adaptive_config with CH.max_inflight_bytes = 50; max_retries = 0 } in
  (* No acceptor for the label on b: data is answered with Reset, so
     the channel breaks while the second sender waits for window room. *)
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"nobody" ~meta:"" cfg in
  let got_error = ref None in
  ignore
    (S.spawn w.sched (fun () ->
         ignore (CH.send out item : (unit, string) result);
         match CH.offer out item with
         | Ok _ -> Alcotest.fail "window opened on a broken channel"
         | Error e -> got_error := Some e));
  run_ok w;
  match !got_error with
  | Some _ -> ()
  | None -> Alcotest.fail "waiter never released"

let test_stream_call_window_preserves_order () =
  (* Two fibers race calls through a tiny window. Wake order under
     back-pressure decides how the fibers interleave, but each fiber's
     own calls must still execute in its issue order, and nothing may
     be lost or duplicated. *)
  let w = make_world () in
  let cfg =
    { CH.adaptive_config with CH.max_inflight_bytes = 60; max_batch = 2; flush_interval = 1e-3 }
  in
  let executed = ref [] in
  let target =
    T.create w.hub_b ~gid:"echo"
      ~config:GC.(default |> with_reply_config cfg)
      (fun _conn ~seq:_ ~port:_ ~kind:_ ~args ~reply ->
        (match args with Xdr.Int i -> executed := i :: !executed | _ -> ());
        reply (W.W_normal args))
  in
  ignore (target : T.t);
  let se = SE.create w.hub_a ~agent:"t" ~dst:(Net.address w.node_b) ~gid:"echo" ~config:cfg () in
  let caller lo hi =
    S.spawn w.sched (fun () ->
        for i = lo to hi do
          match SE.call se ~port:"p" ~kind:W.Call ~args:(Xdr.Int i) ~on_reply:(fun _ -> ()) with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "call failed: %s" e
        done)
  in
  ignore (caller 1 15);
  ignore (caller 101 115);
  ignore
    (S.spawn w.sched (fun () ->
         S.sleep w.sched 1.0;
         match SE.synch se with Ok () -> () | Error _ -> Alcotest.fail "broke"));
  run_ok w;
  let executed = List.rev !executed in
  let of_fiber lo hi = List.filter (fun i -> lo <= i && i <= hi) executed in
  check Alcotest.(list int) "fiber 1's calls in its issue order"
    (List.init 15 (fun i -> i + 1))
    (of_fiber 1 15);
  check Alcotest.(list int) "fiber 2's calls in its issue order"
    (List.init 15 (fun i -> i + 101))
    (of_fiber 101 115);
  check Alcotest.int "nothing lost or duplicated" 30 (List.length executed)

(* ------------------------------------------------------------------ *)
(* Compact channel names: only the opening packet names a channel in
   full, so the hub must cope with compact packets it cannot place. *)

let peek w name = Sim.Stats.peek (S.stats w.sched) name

(* Hand packet [p] to [dst]'s hub as if [src] had sent it. *)
let inject w ~src ~dst p = Net.send w.net ~src ~dst:(Net.address dst) ~bytes_:0 (CH.encode_packet p)

let sink w =
  let got = ref [] and opened = ref 0 in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      incr opened;
      CH.set_deliver in_chan (fun _ items ->
          got := !got @ List.map (fun vw -> Result.get_ok (Xdr.View.materialize vw)) items));
  (got, opened)

let test_compact_for_unknown_channel_dropped () =
  let w = make_world () in
  let got, opened = sink w in
  inject w ~src:w.node_a ~dst:w.node_b
    (CH.Data { idx = 0; first_seq = 3; opening = None; acks = []; items = [ Xdr.Int 1 ] });
  run_ok w;
  check Alcotest.int "no in-chan created" 0 !opened;
  check Alcotest.int "nothing delivered" 0 (List.length !got);
  check Alcotest.int "no Reset sent" 0 (peek w "chan_reset_packets");
  check Alcotest.int "no ack sent" 0 (peek w "chan_ack_packets");
  check Alcotest.int "counted" 1 (peek w "chan_unopened_drops")

let test_lost_opening_recovered_by_retransmit () =
  (* Hub a's link loses exactly the first frame it sends — the opening
     packet — and delivers the compact one behind it. *)
  let sched = S.create ~seed:42 () in
  let net = Net.create sched Net.default_config in
  let node_a = Net.add_node net ~name:"a" and node_b = Net.add_node net ~name:"b" in
  let tr = Transport_sim.endpoint net node_a in
  let lost = ref 0 in
  let lossy =
    {
      tr with
      Transport.send =
        (fun ~dst frame -> if !lost = 0 then incr lost else tr.Transport.send ~dst frame);
    }
  in
  let w =
    {
      sched;
      net;
      node_a;
      node_b;
      hub_a = CH.create_hub ~transport:lossy ();
      hub_b = CH.create_hub ~net:(net, node_b) ();
    }
  in
  let got, opened = sink w in
  let out =
    CH.connect w.hub_a ~dst:(Net.address node_b) ~label:"sink" ~meta:""
      { CH.rpc_config with CH.retransmit_timeout = 10e-3 }
  in
  ignore
    (S.spawn sched (fun () ->
         List.iter (fun i -> ignore (CH.send out (Xdr.Int i) : (unit, string) result)) [ 1; 2 ]));
  run_ok w;
  check Alcotest.int "the opening packet was lost" 1 !lost;
  check Alcotest.bool "the compact packet was dropped, not answered" true
    (peek w "chan_unopened_drops" >= 1 && peek w "chan_reset_packets" = 0);
  check Alcotest.bool "recovered by retransmit" true (peek w "chan_retransmits" >= 1);
  check Alcotest.int "opened once" 1 !opened;
  check Alcotest.bool "delivered exactly once, in order" true
    (List.equal Xdr.equal_value [ Xdr.Int 1; Xdr.Int 2 ] !got);
  check Alcotest.int "fully acked" 0 (CH.unacked_count out)

let test_ack_for_unknown_idx_ignored () =
  let w = make_world () in
  (* The channel's peer runs no hub: only the injected acks below can
     move the channel. *)
  let peer = Net.add_node w.net ~name:"silent" in
  let out =
    CH.connect w.hub_a ~dst:(Net.address peer) ~label:"sink" ~meta:""
      { CH.rpc_config with CH.retransmit_timeout = 10.0 }
  in
  ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
  let unacked_at = ref [] in
  let probe () = unacked_at := CH.unacked_count out :: !unacked_at in
  let ack_from node idx = inject w ~src:node ~dst:w.node_a (CH.Ack { acks = [ ack idx 0 ] }) in
  ack_from peer 5;  (* an idx hub a never opened *)
  ack_from w.node_b 0;  (* the right idx, from a node that is not the peer *)
  S.after w.sched 0.1 probe;
  S.after w.sched 0.2 (fun () -> ack_from peer 0);
  S.after w.sched 0.3 probe;
  ignore (S.run ~until:1.0 w.sched : S.outcome);
  check Alcotest.(list int) "stray acks ignored, the peer's ack frees the item" [ 0; 1 ]
    !unacked_at

(* An ack past the last transmitted seq frees what was sent and
   nothing more: the next item stays tracked until its own ack. *)
let test_ack_past_sent_clamped () =
  let w = make_world () in
  let peer = Net.add_node w.net ~name:"silent" in
  let out =
    CH.connect w.hub_a ~dst:(Net.address peer) ~label:"sink" ~meta:""
      { CH.rpc_config with CH.retransmit_timeout = 10.0 }
  in
  let idx = (CH.out_key out).CH.idx in
  let unacked_at = ref [] in
  let probe () = unacked_at := CH.unacked_count out :: !unacked_at in
  let ack_upto upto = inject w ~src:peer ~dst:w.node_a (CH.Ack { acks = [ ack idx upto ] }) in
  ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
  S.after w.sched 0.1 (fun () -> ack_upto 5);
  S.after w.sched 0.2 (fun () ->
      probe ();
      ignore (CH.send out (Xdr.Int 2) : (unit, string) result);
      probe ());
  S.after w.sched 0.3 (fun () -> ack_upto 1);
  S.after w.sched 0.4 probe;
  ignore (S.run ~until:1.0 w.sched : S.outcome);
  check Alcotest.(list int) "seq 0 freed, seq 1 tracked, then freed by its ack" [ 0; 1; 0 ]
    (List.rev !unacked_at);
  check Alcotest.bool "not broken" true (CH.out_broken out = None)

(* Only a channel's peer may feed or break it. A Data packet names no
   source, so a third node's compact Data with the a->b channel's idx
   names the third node's own channel, never opened here: it is
   dropped as unopened. A Reset from a third node naming the a->b
   channel is dropped and counted as spoofed. Either way the channel
   carries on. The peer sends item 1 before the forgery and item 2
   after it, at the position the forged Data claimed. *)
let spoof_world () =
  let w = make_world () in
  let got, _ = sink w in
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" CH.rpc_config in
  let send_at time v =
    S.after w.sched time (fun () -> ignore (CH.send out (Xdr.Int v) : (unit, string) result))
  in
  send_at 0.0 1;
  send_at 0.2 2;
  (w, got, out, Net.add_node w.net ~name:"mallory")

let check_channel_survived got out =
  check Alcotest.bool "the peer's items delivered, in order" true
    (List.equal Xdr.equal_value [ Xdr.Int 1; Xdr.Int 2 ] !got);
  check Alcotest.bool "sender not broken" true (CH.out_broken out = None);
  check Alcotest.int "fully acked" 0 (CH.unacked_count out)

let test_spoofed_data_dropped () =
  let w, got, out, mallory = spoof_world () in
  let k = CH.out_key out in
  S.after w.sched 0.1 (fun () ->
      inject w ~src:mallory ~dst:w.node_b
        (CH.Data
           { idx = k.CH.idx; first_seq = 1; opening = None; acks = []; items = [ Xdr.Int 99 ] }));
  run_ok w;
  check_channel_survived got out;
  check Alcotest.int "acks only for the peer's two packets" 2 (peek w "chan_ack_packets");
  check Alcotest.int "dropped as the third node's unopened channel" 1
    (peek w "chan_unopened_drops");
  check Alcotest.int "no Data counts as spoofed" 0 (peek w "chan_spoofed_drops")

let test_spoofed_reset_dropped at () =
  let w, got, out, mallory = spoof_world () in
  let k = CH.out_key out in
  S.after w.sched 0.1 (fun () ->
      inject w ~src:mallory ~dst:(at w)
        (CH.Reset { src = k.CH.src; idx = k.CH.idx; reason = "forged" }));
  run_ok w;
  check_channel_survived got out;
  check Alcotest.int "counted" 1 (peek w "chan_spoofed_drops")

(* A third node's opening Data reusing the a->b channel's idx opens the
   third node's own (mallory, idx) end: its item is delivered there,
   and the a->b channel's items and acks are untouched. *)
let test_third_node_opening_reusing_idx () =
  let w, _, out, mallory = spoof_world () in
  let by_src = ref [] in
  CH.on_connect w.hub_b ~label:"sink" (fun in_chan ->
      CH.set_deliver in_chan (fun _ items ->
          List.iter
            (fun vw -> by_src := (CH.in_src in_chan, Xdr.View.as_int vw) :: !by_src)
            items));
  S.after w.sched 0.1 (fun () ->
      inject w ~src:mallory ~dst:w.node_b
        (CH.Data
           {
             idx = (CH.out_key out).CH.idx;
             first_seq = 0;
             opening = Some { CH.open_label = "sink"; open_meta = "" };
             acks = [];
             items = [ Xdr.Int 99 ];
           }));
  run_ok w;
  let from node =
    List.rev (List.filter_map (fun (s, v) -> if s = Net.address node then Some v else None) !by_src)
  in
  check Alcotest.(list (result int string)) "a's items, in order" [ Ok 1; Ok 2 ] (from w.node_a);
  check Alcotest.(list (result int string)) "mallory's item, on its own end" [ Ok 99 ]
    (from mallory);
  check Alcotest.int "two receiving ends" 2 (CH.table_sizes w.hub_b).CH.ins;
  check Alcotest.bool "sender not broken" true (CH.out_broken out = None);
  check Alcotest.int "fully acked" 0 (CH.unacked_count out);
  check Alcotest.int "nothing spoofed" 0 (peek w "chan_spoofed_drops")

let test_truncated_opening_counted () =
  let w = make_world () in
  let _, opened = sink w in
  let frame =
    CH.encode_packet
      (CH.Data
         {
           idx = 0;
           first_seq = 0;
           opening = Some { CH.open_label = "sink"; open_meta = "~r/agent/g/1/0" };
           acks = [];
           items = [];
         })
  in
  (* The frame ends with meta's bytes, then the empty ack list's count
     (the items, none here, run to the end of the frame): cut four
     bytes into meta's tail. *)
  let cut = String.sub frame 0 (String.length frame - 5) in
  (match CH.decode_packet cut with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "frame truncated inside meta decoded");
  Net.send w.net ~src:w.node_a ~dst:(Net.address w.node_b) ~bytes_:0 cut;
  run_ok w;
  check Alcotest.int "counted as a decode error" 1 (peek w "chan_decode_errors");
  check Alcotest.int "no channel opened" 0 !opened

let test_stale_compact_after_reset_answered () =
  let w = make_world () in
  let got, _ = sink w in
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" CH.rpc_config in
  ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
  S.after w.sched 0.1 (fun () -> CH.break_out out ~reason:"restart");
  let stale =
    let idx = (CH.out_key out).CH.idx in
    CH.Data { idx; first_seq = 1; opening = None; acks = []; items = [ Xdr.Int 2 ] }
  in
  S.after w.sched 0.2 (fun () -> inject w ~src:w.node_a ~dst:w.node_b stale);
  run_ok w;
  check Alcotest.int "only the first item delivered" 1 (List.length !got);
  check Alcotest.int "the sender's Reset, then the receiver's answer to the stale packet" 2
    (peek w "chan_reset_packets");
  check Alcotest.int "not mistaken for an unopened channel" 0 (peek w "chan_unopened_drops")

(* A raw peer speaking a stateful frame dialect: a tag-4 control frame
   (as a connection handshake would open with) and a version-2 Data
   frame whose item defines strings under marker 1. A hub keeps no
   string state across frames, so each is refused as one decode error
   and left unanswered, and the peer's opened channel carries on. *)
let test_stateful_dialect_refused () =
  let w = make_world () in
  let got, _ = sink w in
  let peer = Net.add_node w.net ~name:"peer" in
  let raw = Transport_sim.endpoint w.net peer in
  let answers = ref 0 in
  raw.Transport.set_receiver (fun ~src:_ _ -> incr answers);
  let src = Net.address peer and dst = Net.address w.node_b in
  let v1_data ~first_seq v =
    let opening = if first_seq = 0 then Some { CH.open_label = "sink"; open_meta = "" } else None in
    CH.encode_packet (CH.Data { idx = 0; first_seq; opening; acks = []; items = [ v ] })
  in
  (* A list of two strings, each introduced under [marker]: marker 0 is
     the v1 define. *)
  let item marker =
    let str s = Printf.sprintf "\x05%c%c%s" (Char.chr marker) (Char.chr (String.length s)) s in
    "\x08\x02" ^ str "shard-a" ^ str "shard-b"
  in
  check Alcotest.string "marker 0 is the v1 encoding"
    (B.to_string (Xdr.List [ Xdr.Str "shard-a"; Xdr.Str "shard-b" ]))
    (item 0);
  let v2_data =
    (* version 2, epoch 0, Data; src, idx 0, first_seq 1, no acks, one item *)
    let e = B.acquire () in
    List.iter (B.add_byte e) [ 2; 0; 1 ];
    List.iter (B.add_uvarint e) [ src; 0; 1; 0; 1 ];
    B.contents e ^ item 1
  in
  let errors_at = ref [] and answers_at = ref [] in
  let note () =
    errors_at := peek w "chan_decode_errors" :: !errors_at;
    answers_at := !answers :: !answers_at
  in
  let send_at time frame = S.after w.sched time (fun () -> raw.Transport.send ~dst frame) in
  send_at 0.0 (v1_data ~first_seq:0 (Xdr.Int 1));
  S.after w.sched 0.1 note;
  send_at 0.1 "\x01\x04\x00";
  S.after w.sched 0.2 note;
  send_at 0.2 v2_data;
  S.after w.sched 0.3 note;
  send_at 0.3 (v1_data ~first_seq:1 (Xdr.Int 2));
  run_ok w;
  check Alcotest.(list int) "each frame one decode error" [ 0; 1; 2 ] (List.rev !errors_at);
  (match List.rev !answers_at with
  | [ a0; a1; a2 ] ->
      check Alcotest.int "no answer to the control frame" a0 a1;
      check Alcotest.int "no answer to the v2 frame" a0 a2
  | _ -> Alcotest.fail "expected three notes");
  check Alcotest.bool "the opened channel carries on" true
    (List.equal Xdr.equal_value [ Xdr.Int 1; Xdr.Int 2 ] !got)

(* An ack entry packs the channel idx and two pressure bits into one
   varint, so a channel idx past [max_int lsr 2] could not be acked.
   Both frame decoders refuse a Data packet naming one; a hub counts
   such a frame as a decode error and opens nothing, while the largest
   idx opens and is acked. *)
let test_idx_past_range_refused () =
  let top = max_int lsr 2 in
  let raw_opening idx =
    let e = B.acquire () in
    List.iter (B.add_byte e) [ B.version; 1 ];
    List.iter (B.add_uvarint e) [ idx; 0 ];
    List.iter (B.add_string e) [ "sink"; "" ];
    B.add_value e (Xdr.Int 5);
    B.contents e
  in
  let refused what f =
    match (CH.decode_packet f, CH.decode_packet_view f) with
    | Error _, Error _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  refused "Data idx max_int lsr 2 + 1" (raw_opening (top + 1));
  refused "Data idx -1" (raw_opening (-1));
  (* the encoder refuses to write an ack for such an idx *)
  List.iter
    (fun a_idx ->
      let a = [ ack a_idx 5 ] in
      List.iter
        (fun p ->
          match CH.encode_packet p with
          | _ -> Alcotest.failf "ack idx %d encoded" a_idx
          | exception Invalid_argument _ -> ())
        [ CH.Ack { acks = a }; data ~first_seq:9 ~acks:(ack 0 1 :: a) () ])
    [ top + 1; -1; max_int; min_int ];
  (match CH.decode_packet (CH.encode_packet (CH.Ack { acks = [ ack ~pressure:3 top 5 ] })) with
  | Ok (CH.Ack { acks = [ a ] }) ->
      check Alcotest.int "ack idx max_int lsr 2 round-trips" top a.CH.a_idx
  | Ok _ | Error _ -> Alcotest.fail "ack at max_int lsr 2 lost");
  let w = make_world () in
  let got, opened = sink w in
  let send_raw f = Net.send w.net ~src:w.node_a ~dst:(Net.address w.node_b) ~bytes_:0 f in
  send_raw (raw_opening (top + 1));
  S.after w.sched 0.1 (fun () -> send_raw (raw_opening top));
  run_ok w;
  check Alcotest.int "one decode error" 1 (peek w "chan_decode_errors");
  check Alcotest.int "only the in-range channel opened" 1 !opened;
  check Alcotest.bool "its item delivered" true (List.equal Xdr.equal_value [ Xdr.Int 5 ] !got);
  check Alcotest.int "and acked" 1 (peek w "chan_ack_packets")

(* Pressure travels in two bits, so a peer can send 3: an adaptive
   sender reads it as congestion, like 2. A relaxed ack grows the
   window one step from its floor; the pressure-3 ack cuts it back. *)
let test_pressure_3_cuts_adaptive_window () =
  let w = make_world () in
  let peer = Net.add_node w.net ~name:"silent" in
  let out =
    CH.connect w.hub_a ~dst:(Net.address peer) ~label:"sink" ~meta:""
      { CH.aimd_config with CH.retransmit_timeout = 10.0 }
  in
  let idx = (CH.out_key out).CH.idx in
  let windows = ref [] in
  let note () = windows := CH.window_bytes out :: !windows in
  let ack_upto ~pressure upto =
    inject w ~src:peer ~dst:w.node_a (CH.Ack { acks = [ ack ~pressure idx upto ] })
  in
  let send v = ignore (CH.send out (Xdr.Int v) : (unit, string) result) in
  send 1;
  S.after w.sched 0.1 (fun () ->
      note ();
      ack_upto ~pressure:0 0);
  S.after w.sched 0.2 (fun () ->
      note ();
      send 2);
  S.after w.sched 0.3 (fun () -> ack_upto ~pressure:3 1);
  S.after w.sched 0.4 note;
  ignore (S.run ~until:1.0 w.sched : S.outcome);
  let floor = CH.aimd_config.CH.window_min_bytes in
  check Alcotest.(list int) "grown by the relaxed ack, cut by pressure 3"
    [ floor; floor + CH.aimd_config.CH.window_increase; floor ]
    (List.rev !windows);
  check Alcotest.int "one cut" 1 (peek w "chan_window_cuts");
  check Alcotest.int "fully acked" 0 (CH.unacked_count out)

(* ------------------------------------------------------------------ *)
(* Lazy views (docs/WIRE.md §Lazy views): a scan-validated slice must
   be interchangeable with the tree it covers. *)

let prop_view_materialize_equiv =
  QCheck.Test.make ~name:"materialize (view (encode v)) = v" ~count:500 arb_value (fun v ->
      match Xdr.View.of_string (B.to_string v) with
      | Error e -> QCheck.Test.fail_reportf "scan failed: %s" e
      | Ok vw -> (
          match Xdr.View.materialize vw with
          | Ok v' -> Xdr.equal_value v v'
          | Error e -> QCheck.Test.fail_reportf "materialize failed: %s" e))

let prop_view_navigation_equiv =
  QCheck.Test.make ~name:"view slicing = tree navigation" ~count:300 arb_value (fun v ->
      match Xdr.View.of_string (B.to_string v) with
      | Error e -> QCheck.Test.fail_reportf "scan failed: %s" e
      | Ok vw -> (
          let mat sub =
            match Xdr.View.materialize sub with
            | Ok x -> x
            | Error e -> QCheck.Test.fail_reportf "materialize failed: %s" e
          in
          match v with
          | Xdr.List items -> (
              match (Xdr.View.list_items vw, Xdr.View.list_item vw (List.length items)) with
              | Ok subs, Ok None ->
                  List.length subs = List.length items
                  && List.for_all2 (fun x s -> Xdr.equal_value x (mat s)) items subs
                  && (items = []
                     ||
                     let k = List.length items / 2 in
                     match Xdr.View.list_item vw k with
                     | Ok (Some s) -> Xdr.equal_value (List.nth items k) (mat s)
                     | _ -> false)
              | _ -> false)
          | Xdr.Record fields ->
              (* both sides resolve a duplicate name to its first
                 occurrence *)
              List.for_all
                (fun (n, _) ->
                  match Xdr.View.record_field vw n with
                  | Ok (Some s) -> Xdr.equal_value (List.assoc n fields) (mat s)
                  | Ok None -> false
                  | Error e -> QCheck.Test.fail_reportf "record_field: %s" e)
                fields
          | other -> Xdr.equal_value other (mat vw)))

let rec tree_has_prefs = function
  | Xdr.Pref _ -> true
  | Xdr.Pair (a, b) -> tree_has_prefs a || tree_has_prefs b
  | Xdr.List vs -> List.exists tree_has_prefs vs
  | Xdr.Record fs -> List.exists (fun (_, x) -> tree_has_prefs x) fs
  | Xdr.Tagged (_, x) -> tree_has_prefs x
  | Xdr.Unit | Xdr.Bool _ | Xdr.Int _ | Xdr.Real _ | Xdr.Str _ -> false

let prop_has_prefs_matches_tree =
  QCheck.Test.make ~name:"View.has_prefs = tree walk" ~count:300 arb_value (fun v ->
      match Xdr.View.of_string (B.to_string v) with
      | Error e -> QCheck.Test.fail_reportf "scan failed: %s" e
      | Ok vw -> Bool.equal (Xdr.View.has_prefs vw) (tree_has_prefs v))

let view_of v =
  match Xdr.View.of_string (B.to_string v) with
  | Ok vw -> vw
  | Error e -> Alcotest.failf "view scan failed: %s" e

let materialize_ok vw =
  match Xdr.View.materialize vw with Ok v -> v | Error e -> Alcotest.failf "materialize: %s" e

let test_view_projection_units () =
  let l = Xdr.List [ Xdr.Int 10; Xdr.Str "x"; Xdr.Real 2.5 ] in
  let lw = view_of l in
  (match Xdr.View.list_item lw 1 with
  | Ok (Some it) -> check Alcotest.bool "item 1" true (Xdr.equal_value (Xdr.Str "x") (materialize_ok it))
  | _ -> Alcotest.fail "list_item 1 missing");
  (match Xdr.View.list_item lw 3 with
  | Ok None -> ()
  | _ -> Alcotest.fail "index past the end must be Ok None");
  (match Xdr.View.list_item lw (-1) with
  | Error _ -> ()
  | _ -> Alcotest.fail "negative index must be an error");
  let r = Xdr.Record [ ("a", Xdr.Int 1); ("b", Xdr.Str "bee") ] in
  let rw = view_of r in
  (match Xdr.View.record_field rw "b" with
  | Ok (Some f) -> check Alcotest.bool "field b" true (Xdr.equal_value (Xdr.Str "bee") (materialize_ok f))
  | _ -> Alcotest.fail "record_field b missing");
  match Xdr.View.record_field rw "zz" with
  | Ok None -> ()
  | _ -> Alcotest.fail "absent field must be Ok None"

(* ------------------------------------------------------------------ *)
(* Packed int lists (docs/WIRE.md §1, tag 0x0C) *)

let ints is = Xdr.List (List.map (fun i -> Xdr.Int i) is)

(* Values built around int lists: empty, singleton, extreme ints, mixed
   int/non-int, nested in records, pairs and tagged values. *)
let gen_int_list_value : Xdr.value QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_int = oneof [ small_signed_int; int; oneofl [ 0; -1; 1; -6; max_int; min_int ] ] in
  let int_list =
    oneof
      [
        return (Xdr.List []);
        map (fun i -> ints [ i ]) gen_int;
        map ints (list_size (int_range 1 20) gen_int);
        return (ints [ min_int; max_int; 0 ]);
        (* mixed: one non-Int anywhere keeps the tagged encoding *)
        map2
          (fun is k ->
            let n = List.length is in
            Xdr.List
              (List.mapi
                 (fun j i -> if j = k mod (n + 1) then Xdr.Str "x" else Xdr.Int i)
                 (is @ [ 0 ])))
          (list_size (int_range 0 6) gen_int) nat;
      ]
  in
  sized @@ fix (fun self n ->
      if n <= 0 then int_list
      else
        let sub = self (n / 3) in
        oneof
          [
            int_list;
            map2 (fun a b -> Xdr.Pair (a, b)) sub sub;
            map (fun vs -> Xdr.List vs) (list_size (int_range 1 4) sub);
            map2
              (fun g v -> Xdr.Record [ ("name", Xdr.Str "stu"); ("grades", g); ("x", v) ])
              int_list sub;
            map2 (fun t v -> Xdr.Tagged (t, v)) (oneofl [ "n"; "some" ]) sub;
          ])

let prop_packed_roundtrip =
  QCheck.Test.make ~name:"int lists: decode and re-encode agree" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Xdr.pp_value) gen_int_list_value)
    (fun v ->
      let enc = B.to_string v in
      match B.of_string enc with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok v' ->
          Xdr.equal_value v v' && String.equal enc (B.to_string v'))

let hex s =
  String.concat " " (List.init (String.length s) (fun i -> Printf.sprintf "%02x" (Char.code s.[i])))

let test_packed_pinned_bytes () =
  let bytes what expect v = check Alcotest.string what expect (hex (B.to_string v)) in
  (* tag 0x0C, count, then plain LEB128 varints with no per-element
     tags; one negative element switches the whole list to 0x0E and
     zigzag *)
  bytes "non-negative list packs plain" "0c 03 01 00 ac 02" (ints [ 1; 0; 300 ]);
  bytes "a negative element packs zigzag" "0e 03 02 01 d8 04" (ints [ 1; -1; 300 ]);
  bytes "singleton is packed" "0c 01 00" (ints [ 0 ]);
  bytes "max_int packs in 9 plain bytes" "0c 01 ff ff ff ff ff ff ff ff 3f" (ints [ max_int ]);
  bytes "extreme ints are packed"
    "0e 02 ff ff ff ff ff ff ff ff 7f fe ff ff ff ff ff ff ff 7f"
    (ints [ min_int; max_int ]);
  bytes "empty list keeps 0x08" "08 00" (Xdr.List []);
  bytes "mixed list keeps 0x08" "08 02 03 01 00" (Xdr.List [ Xdr.Int 1; Xdr.Unit ]);
  bytes "list of int lists: outer 0x08, inner 0x0C" "08 02 0c 01 01 08 00"
    (Xdr.List [ ints [ 1 ]; Xdr.List [] ]);
  (* 16 grades: one tag and one count instead of 16 tags *)
  let grades = ints (List.init 16 (fun g -> 40 + g)) in
  let size v = String.length (B.to_string v) in
  check Alcotest.int "16 one-byte grades" 18 (size grades);
  (* grades 64-100 need no sign bit either *)
  check Alcotest.int "16 grades in 85-100" 18 (size (ints (List.init 16 (fun g -> 85 + g))))

let expect_rejected what frame =
  (match B.of_string frame with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "%s: decoded as %a" what Xdr.pp_value v
  | exception e -> Alcotest.failf "%s: decode raised %s" what (Printexc.to_string e));
  match Xdr.View.of_string frame with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: scanned" what
  | exception e -> Alcotest.failf "%s: scan raised %s" what (Printexc.to_string e)

let test_packed_hostile_rejected () =
  expect_rejected "count 0" "\x0c\x00";
  expect_rejected "count past the input" "\x0c\x05\x02\x04";
  expect_rejected "huge count" "\x0c\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x02";
  expect_rejected "truncated varint" "\x0c\x02\x02\x80";
  expect_rejected "10-byte varint" ("\x0c\x01" ^ String.make 9 '\xff' ^ "\x01");
  expect_rejected "truncated inside a record"
    "\x09\x01\x00\x06grades\x0c\x03\x02\x04";
  (* the bytes left cover the count but not the elements *)
  expect_rejected "elements past the input" "\x0c\x02\x80\x80";
  expect_rejected "inside a tagged list" "\x08\x01\x0c\x02\x02"

let test_packed_views () =
  (* -6 zigzags to 0x0b, the Pref tag byte: the memchr pre-filter hits,
     and the structural walk must still say no. *)
  let v = ints [ 5; -6; 300; min_int ] in
  let vw = view_of v in
  check Alcotest.bool "shape is Vlist" true (Xdr.View.shape vw = Xdr.View.Vlist);
  check Alcotest.bool "no prefs" false (Xdr.View.has_prefs vw);
  check Alcotest.bool "materialize" true (Xdr.equal_value v (materialize_ok vw));
  (match Xdr.View.list_items vw with
  | Ok items ->
      check Alcotest.(list int) "items" [ 5; -6; 300; min_int ]
        (List.map
           (fun it ->
             check Alcotest.bool "item shape" true (Xdr.View.shape it = Xdr.View.Vint);
             match Xdr.View.as_int it with Ok i -> i | Error e -> Alcotest.fail e)
           items)
  | Error e -> Alcotest.fail e);
  (match Xdr.View.list_item vw 2 with
  | Ok (Some it) -> check Alcotest.(result int string) "item 2" (Ok 300) (Xdr.View.as_int it)
  | _ -> Alcotest.fail "list_item 2 missing");
  (match Xdr.View.list_item vw 4 with
  | Ok None -> ()
  | _ -> Alcotest.fail "index past the end must be Ok None");
  (* a record field holding a packed list, reached by projection *)
  let r = Xdr.Record [ ("grades", v); ("mean", Xdr.Real 1.5) ] in
  match Xdr.View.record_field (view_of r) "mean" with
  | Ok (Some f) -> check Alcotest.bool "field after packed list" true
                     (Xdr.equal_value (Xdr.Real 1.5) (materialize_ok f))
  | _ -> Alcotest.fail "record_field mean missing"

(* ------------------------------------------------------------------ *)
(* Packed record lists (docs/WIRE.md §1, tag 0x0F) *)

(* The encoder's rule, restated: a non-empty list of records that all
   spell the first one's non-empty field-name sequence. *)
let packs_as_records = function
  | Xdr.List (Xdr.Record (_ :: _ as fs) :: rest) ->
      let names = List.map fst fs in
      List.for_all (function Xdr.Record gs -> List.map fst gs = names | _ -> false) rest
  | _ -> false

let prop_record_list_form =
  QCheck.Test.make ~name:"record lists: one form, decode and re-encode agree" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Xdr.pp_value)
       (gen_record_list gen_value))
    (fun v ->
      let enc = B.to_string v in
      Char.code enc.[0] = (if packs_as_records v then 0x0f else 0x08)
      &&
      match B.of_string enc with
      | Ok v' -> equal_bits v v' && String.equal enc (B.to_string v')
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let ab a b = Xdr.Record [ ("a", Xdr.Int a); ("b", Xdr.Int b) ]

let test_records_pinned_bytes () =
  let bytes what expect v = check Alcotest.string what expect (hex (B.to_string v)) in
  (* tag 0x0F, the count, the field count and the names once, then the
     values record by record with no tag, count or names of their own *)
  bytes "two records, one header" "0f 02 02 00 01 61 00 01 62 03 01 03 02 03 03 03 04"
    (Xdr.List [ ab 1 2; ab 3 4 ]);
  bytes "a singleton is packed" "0f 01 02 00 01 61 00 01 62 03 01 03 02" (Xdr.List [ ab 1 2 ]);
  bytes "empty records keep 0x08" "08 02 09 00 09 00" (Xdr.List [ Xdr.Record []; Xdr.Record [] ]);
  let tagged what v = check Alcotest.string what "08" (String.sub (hex (B.to_string v)) 0 2) in
  let second fields = Xdr.List [ ab 1 2; Xdr.Record fields ] in
  tagged "one record renamed keeps 0x08" (second [ ("a", Xdr.Int 3); ("c", Xdr.Int 4) ]);
  tagged "one record reordered keeps 0x08" (second [ ("b", Xdr.Int 4); ("a", Xdr.Int 3) ]);
  tagged "a field more keeps 0x08" (second [ ("a", Xdr.Int 3); ("b", Xdr.Int 4); ("c", Xdr.Unit) ]);
  tagged "a field fewer keeps 0x08" (second [ ("a", Xdr.Int 3) ]);
  tagged "a non-record after records keeps 0x08" (Xdr.List [ ab 1 2; Xdr.Unit ]);
  tagged "records after a non-record keep 0x08" (Xdr.List [ Xdr.Unit; ab 1 2 ]);
  (* a record list nested in a packed record: both packed *)
  bytes "nested" "0f 01 01 00 01 6c 0f 01 02 00 01 61 00 01 62 03 01 03 02"
    (Xdr.List [ Xdr.Record [ ("l", Xdr.List [ ab 1 2 ]) ] ])

let test_records_hostile_rejected () =
  expect_rejected "count 0" "\x0f\x00\x01\x00\x01a";
  (* five empty records would otherwise decode from three bytes, and
     2^62 of them from twelve *)
  expect_rejected "field count 0" "\x0f\x05\x00";
  expect_rejected "huge count, field count 0" ("\x0f" ^ String.make 8 '\xff' ^ "\x3f\x00");
  expect_rejected "n * k past the bytes left" "\x0f\x04\x02\x00\x01a\x03";
  (* 2^61 + 1 records of 4 fields: the product wraps to 4 in 63 bits,
     and exactly 4 values follow *)
  expect_rejected "n * k overflowing"
    ("\x0f\x81" ^ String.make 7 '\x80' ^ "\x20\x04\x00\x01a\x00\x01b\x00\x01c\x00\x01d"
   ^ "\x03\x01\x03\x02\x03\x03\x03\x04");
  expect_rejected "header name ref out of range" "\x0f\x01\x01\x05\x03\x01";
  expect_rejected "header name ref wrapping negative"
    ("\x0f\x01\x01" ^ String.make 8 '\xff' ^ "\x7f\x03\x01");
  expect_rejected "truncated in the names" "\x0f\x01\x02\x00\x01a";
  expect_rejected "truncated inside a name" "\x0f\x01\x01\x00\x05ab";
  expect_rejected "truncated inside the last element" "\x0f\x02\x01\x00\x01a\x03\x01\x03";
  expect_rejected "last element missing" "\x0f\x02\x01\x00\x01a\x03\x01";
  expect_rejected "inside a tagged list" "\x08\x01\x0f\x01\x01\x00\x01a"

let item_views vw =
  match Xdr.View.list_items vw with Ok items -> items | Error e -> Alcotest.failf "list_items: %s" e

let field_of what it name =
  match Xdr.View.record_field it name with
  | Ok (Some f) -> materialize_ok f
  | Ok None -> Alcotest.failf "%s: field %s missing" what name
  | Error e -> Alcotest.failf "%s: %s" what e

let test_records_views () =
  let rec3 id who tags = Xdr.Record [ ("id", Xdr.Int id); ("who", Xdr.Str who); ("tags", tags) ] in
  (* "ann" and "bob" are defined inside elements 0 and 1, and elements
     2 and 3 refer back to them: an element view's intern slots must
     line up on replay, whichever element is read first *)
  let tags = [ ints [ 1; 2 ]; Xdr.List []; ints [ 3 ]; ints [ 4 ] ] in
  let items = List.mapi (fun i t -> rec3 (i + 1) (if i mod 2 = 1 then "bob" else "ann") t) tags in
  let v = Xdr.List items in
  check Alcotest.string "packed" "0f" (String.sub (hex (B.to_string v)) 0 2);
  let vw = view_of v in
  let same what x y = check Alcotest.bool what true (Xdr.equal_value x y) in
  check Alcotest.bool "shape is Vlist" true (Xdr.View.shape vw = Xdr.View.Vlist);
  check Alcotest.(result int string) "list_length" (Ok 4) (Xdr.View.list_length vw);
  same "materialize" v (materialize_ok vw);
  check Alcotest.bool "no prefs" false (Xdr.View.has_prefs vw);
  List.iteri
    (fun i it ->
      let item = List.nth items i in
      check Alcotest.bool "item shape" true (Xdr.View.shape it = Xdr.View.Vrecord);
      same "list_items item" item (materialize_ok it);
      same "list_items who" (Xdr.Str (if i mod 2 = 1 then "bob" else "ann"))
        (field_of "item" it "who"))
    (item_views vw);
  List.iter
    (fun i ->
      match Xdr.View.list_item vw i with
      | Ok (Some it) ->
          same "list_item" (List.nth items i) (materialize_ok it);
          same "list_item tags" (List.nth tags i) (field_of "list_item" it "tags");
          check Alcotest.bool "absent field" true (Xdr.View.record_field it "nope" = Ok None)
      | _ -> Alcotest.failf "list_item %d missing" i)
    [ 3; 2; 0; 1 ];
  (match Xdr.View.list_item vw 4 with
  | Ok None -> ()
  | _ -> Alcotest.fail "index past the end must be Ok None");
  (* a Pref in element 1 only *)
  let pref = Xdr.Pref { Xdr.ps_stream = "1|s"; ps_call = 4; ps_field = None } in
  let pv = view_of (Xdr.List [ rec3 1 "ann" Xdr.Unit; rec3 2 "bob" pref; rec3 3 "cy" Xdr.Unit ]) in
  check Alcotest.bool "prefs in the list" true (Xdr.View.has_prefs pv);
  check Alcotest.(list bool) "prefs per element" [ false; true; false ]
    (List.map Xdr.View.has_prefs (item_views pv));
  (* 130 strings first, so "late" takes slot 130: element views refer
     to it by a 2-byte ref, to "s5" by a 1-byte one *)
  let strs = Xdr.List (List.init 130 (fun i -> Xdr.Str (Printf.sprintf "s%d" i))) in
  let late i s = Xdr.Record [ ("late", Xdr.Int i); ("s5", Xdr.Str s) ] in
  let outer = view_of (Xdr.List [ strs; Xdr.List [ late 1 "s129"; late 2 "new" ] ]) in
  match Xdr.View.list_item outer 1 with
  | Ok (Some lw) ->
      List.iteri
        (fun i it ->
          same "late item" (late (i + 1) (if i = 0 then "s129" else "new")) (materialize_ok it);
          same "late field" (Xdr.Int (i + 1)) (field_of "late item" it "late"))
        (item_views lw)
  | _ -> Alcotest.fail "list_item 1 missing"

(* ------------------------------------------------------------------ *)
(* Scalar widths (docs/WIRE.md §1): every Int and Real at its shortest
   exact width. *)

let test_scalar_widths_pinned () =
  let bytes what expect v = check Alcotest.string what expect (hex (B.to_string v)) in
  let int n = Xdr.Int n and real r = Xdr.Real r in
  (* 0x03: plain LEB128 for n >= 0; 0x0D: zigzag, only for n < 0 *)
  bytes "0" "03 00" (int 0);
  bytes "63" "03 3f" (int 63);
  bytes "64" "03 40" (int 64);
  bytes "127" "03 7f" (int 127);
  bytes "128" "03 80 01" (int 128);
  bytes "max_int" "03 ff ff ff ff ff ff ff ff 3f" (int max_int);
  bytes "-1" "0d 01" (int (-1));
  bytes "-64" "0d 7f" (int (-64));
  bytes "-65" "0d 81 01" (int (-65));
  bytes "min_int" "0d ff ff ff ff ff ff ff ff 7f" (int min_int);
  (* 0x10: binary16; 0x04: binary64 — both little-endian *)
  bytes "1.5" "10 00 3e" (real 1.5);
  bytes "a mean of 16 grades" "10 9a 51" (real (717.0 /. 16.0));
  bytes "0.0" "10 00 00" (real 0.0);
  bytes "-0.0 keeps its sign" "10 00 80" (real (-0.0));
  bytes "infinity" "10 00 7c" (real infinity);
  bytes "neg_infinity" "10 00 fc" (real neg_infinity);
  bytes "65504, binary16's largest" "10 ff 7b" (real 65504.0);
  bytes "2^-14, binary16's smallest normal" "10 00 04" (real (Float.ldexp 1.0 (-14)));
  bytes "2^-24, binary16's smallest subnormal" "10 01 00" (real (Float.ldexp 1.0 (-24)));
  bytes "65520 overflows binary16" "04 00 00 00 00 00 fe ef 40" (real 65520.0);
  bytes "2049 needs 12 bits" "04 00 00 00 00 00 02 a0 40" (real 2049.0);
  bytes "2^-25 underflows binary16" "04 00 00 00 00 00 00 60 3e" (real (Float.ldexp 1.0 (-25)));
  bytes "0.1f" "04 00 00 00 a0 99 99 b9 3f" (real (Int32.float_of_bits 0x3dcccccdl));
  bytes "0.1" "04 9a 99 99 99 99 99 b9 3f" (real 0.1);
  (* a NaN payload binary16 would drop stays binary64 *)
  bytes "NaN, low payload" "04 01 00 00 00 00 00 f8 7f"
    (real (Int64.float_of_bits 0x7FF8_0000_0000_0001L));
  bytes "NaN, binary16 payload" "10 00 7f" (real (Int64.float_of_bits 0x7FFC_0000_0000_0000L))

let test_scalar_hostile_rejected () =
  let ten = String.make 9 '\xff' ^ "\x01" in
  expect_rejected "10-byte varint under 0x03" ("\x03" ^ ten);
  expect_rejected "10-byte varint under 0x0D" ("\x0d" ^ ten);
  expect_rejected "10-byte varint under 0x0E" ("\x0e\x01" ^ ten);
  expect_rejected "truncated varint under 0x0D" "\x0d\x80";
  expect_rejected "count 0 under 0x0E" "\x0e\x00";
  expect_rejected "truncated binary16" "\x10\x00";
  expect_rejected "0x0F with count and field count 0" "\x0f\x00\x00\x00\x00";
  expect_rejected "truncated binary64" ("\x04" ^ String.make 7 '\x00');
  expect_rejected "first unknown tag" "\x11"

(* CI guard for loadbench's stream_large shape, kept in [@wire] so a
   regression to zigzag grades, 9-byte means or per-record field names
   fails without running the benchmark: the [sheet] payload's size, its
   list header and one record's bytes. *)
let test_sheet_pinned () =
  let _, sheet, _ =
    List.find (fun (l, _, _) -> l = "sheet") Workloads.Exp_wire.reference_payloads
  in
  let enc = B.to_string sheet in
  check Alcotest.int "sheet bytes" 1114 (String.length enc);
  check Alcotest.string "key, list header and record 0's values"
    (String.concat " "
       [
         "07 05 00 0f 6b 65 79 2d 30 37 2d 71 68 72 7a 6d 74 77 65";
         (* 0x0F: 32 records of 3 fields, the names once *)
         "0f 20 03 00 04 6e 61 6d 65 00 06 67 72 61 64 65 73 00 04 6d 65 61 6e";
         (* record 0's values, with no tag, count or names of its own *)
         "05 00 06 61 6c 77 68 73 64";
         "0c 10 00 3b 11 4c 22 5d 33 09 44 1a 55 2b 01 3c 12 4d";
         "10 9a 51";
       ])
    (hex (String.sub enc 0 72));
  (* the same record on its own is a 0x09 record spelling its names *)
  check Alcotest.string "record 0"
    (String.concat " "
       [
         "09 03";
         (* "name" and its value, both defined inline *)
         "00 04 6e 61 6d 65 05 00 06 61 6c 77 68 73 64";
         "00 06 67 72 61 64 65 73";
         (* 16 grades, 5 of them in 64-100: one byte each *)
         "0c 10 00 3b 11 4c 22 5d 33 09 44 1a 55 2b 01 3c 12 4d";
         (* "mean": 717/16 as binary16 *)
         "00 04 6d 65 61 6e 10 9a 51";
       ])
    (hex (B.to_string (Workloads.Exp_wire.sheet_record 0)))

(* ------------------------------------------------------------------ *)
(* Differential decoder fuzz: the tree decoder and the structural scan
   must accept exactly the same byte strings, never raise, and agree on
   what an accepted string means. *)

let decoders_agree s =
  match (B.of_string s, Xdr.View.of_string s) with
  | Ok tree, Ok vw -> (
      match Xdr.View.materialize vw with Ok v -> equal_bits tree v | Error _ -> false)
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false
  | exception _ -> false

(* One value holding every tag: both int forms, each with a 9-byte
   varint (so one byte set makes a 10-byte run), under 0x03/0x0D and
   0x0C/0x0E, both real widths, both string forms and refs, a promise
   ref and a packed record list. *)
let tag_tour =
  Xdr.Record
    [
      ("u", Xdr.Unit);
      ("b", Xdr.Pair (Xdr.Bool false, Xdr.Bool true));
      ("i", Xdr.List [ Xdr.Int max_int; Xdr.Int min_int; Xdr.Int (-65); Xdr.Str "b" ]);
      ("r", Xdr.List [ Xdr.Real 0.1; Xdr.Real 1.5 ]);
      ("s", Xdr.Str (String.make 70 's'));
      ("p", ints [ max_int; 300 ]);
      ("z", ints [ min_int; 5 ]);
      ("t", Xdr.Tagged ("b", Xdr.Unit));
      ("f", Xdr.Pref { Xdr.ps_stream = "1|s"; ps_call = 3; ps_field = Some "u" });
      (* 0x0F: "u" a ref and "n" a define in its header, "v" defined
         in the first element and referred to from the second *)
      ( "l",
        Xdr.List
          [
            Xdr.Record [ ("u", Xdr.Int 1); ("n", Xdr.Str "v") ];
            Xdr.Record [ ("u", Xdr.Unit); ("n", Xdr.Str "v") ];
          ] );
    ]

(* [probe] every prefix of [s], and [s] with each byte set to each of
   the 256 values (a superset of single bit flips). *)
let probe_one_byte_mutations probe s =
  let n = String.length s in
  for len = 0 to n do
    probe (String.sub s 0 len)
  done;
  for pos = 0 to n - 1 do
    let b = Bytes.of_string s in
    for byte = 0 to 255 do
      Bytes.set b pos (Char.chr byte);
      probe (Bytes.to_string b)
    done
  done

let test_tag_tour_mutations () =
  let disagree = ref [] in
  let probe s = if not (decoders_agree s) then disagree := hex s :: !disagree in
  probe_one_byte_mutations probe (B.to_string tag_tour);
  check Alcotest.(list string) "tree and view agree on every mutation" [] !disagree

type mutation = Set of int * int | Flip of int * int | Cut of int

let mutate s = function
  | Cut n -> String.sub s 0 (n mod (String.length s + 1))
  | (Set _ | Flip _) when s = "" -> s
  | Set (pos, byte) ->
      let b = Bytes.of_string s in
      Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
      Bytes.to_string b
  | Flip (pos, bit) ->
      let b = Bytes.of_string s in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
      Bytes.to_string b

(* One to three byte sets, bit flips or truncations. Set bytes lean
   towards tags (0x00-0x10, and the first unknown, 0x11) and varint
   continuation patterns. *)
let gen_mutations : mutation list QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_byte = frequency [ (2, int_bound 255); (2, int_bound 0x11); (1, oneofl [ 0x7f; 0x80; 0xff ]) ] in
  list_size (int_range 1 3)
    (oneof
       [
         map2 (fun pos byte -> Set (pos, byte)) nat gen_byte;
         map2 (fun pos bit -> Flip (pos, bit)) nat (int_bound 7);
         map (fun n -> Cut n) nat;
       ])

(* Encodings of random values, of the pinned envelopes and reference
   payloads and of the tag tour, each mutated. *)
let gen_mutated_frame : string QCheck.Gen.t =
  let open QCheck.Gen in
  let pinned =
    List.map (fun (_, _, bytes) -> bytes) Workloads.Exp_wire.envelope_goldens
    @ List.map (fun (_, v, _) -> B.to_string v) Workloads.Exp_wire.reference_payloads
    @ [ B.to_string tag_tour ]
  in
  map2 (List.fold_left mutate) (oneof [ map B.to_string gen_value; oneofl pinned ]) gen_mutations

let prop_decoders_agree =
  QCheck.Test.make ~name:"tree and view decoders accept the same mutated frames" ~count:3000
    (QCheck.make ~print:hex gen_mutated_frame) decoders_agree

(* The same property one layer up: [decode_packet] and
   [decode_packet_view] read one frame grammar (version 3; Data, Ack,
   Reset) and must accept exactly the same frames, never raise, and
   agree on what an accepted frame holds. *)

let tree_of_view_packet : Xdr.View.t CH.packet -> Xdr.value CH.packet = function
  | CH.Data { idx; first_seq; opening; acks; items } ->
      CH.Data { idx; first_seq; opening; acks; items = List.map materialize_ok items }
  | CH.Ack { acks } -> CH.Ack { acks }
  | CH.Reset { src; idx; reason } -> CH.Reset { src; idx; reason }

let frame_decoders_agree f =
  match (CH.decode_packet f, CH.decode_packet_view f) with
  | Ok p, Ok pv -> ( try equal_packet p (tree_of_view_packet pv) with _ -> false)
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false
  | exception _ -> false

(* Golden frames of every packet form, each with the offsets and values
   of its count prefixes (ack count, reason length), all one byte long
   here. Only a frame with two acks or more spells an ack count, and a
   Data packet's items run to the end of the frame: there is no item
   count to lie about. The Data frames cover the opening form, the
   compact form with no ack, one and two absolute acks, and one and two
   acks counted from first_seq (rpc_small's shape). One frame sits at
   the largest channel idx, acked at pressure 3, beside an upto that
   cannot count from first_seq without overflowing, so mutations cross
   both bounds. *)
let golden_frames =
  let data_frame ~first_seq acks items =
    let enc acks items = CH.encode_packet (data ~first_seq ~acks ~items ()) in
    let n = List.length acks in
    let counts = if n < 2 then [] else [ (String.length (enc [] []), n) ] in
    (enc acks items, counts)
  in
  let top = max_int lsr 2 in
  let at_top acks =
    CH.encode_packet (CH.Data { idx = top; first_seq = 1; opening = None; acks; items = [] })
  in
  let call i port =
    W.call_item ~cid:i ~trace:None ~port ~kind:W.Call
      ~args:(Xdr.Pair (Xdr.Str "stu00001", Xdr.Int 85)) ()
  in
  let ack_frame acks =
    let counts = if List.length acks < 2 then [] else [ (2, List.length acks) ] in
    (CH.encode_packet (CH.Ack { acks }), counts)
  in
  let reset reason = CH.encode_packet (CH.Reset { src = 3; idx = 7; reason }) in
  [
    data_frame ~first_seq:0
      [ ack 2 (-1); ack ~pressure:2 5 17 ]
      [ call 0 (W.Define "record_grade"); call 1 (W.Ref 0) ];
    data_frame ~first_seq:300 [ ack 7 12 ] [ tag_tour; Xdr.Int 5 ];
    data_frame ~first_seq:5 [] [ Xdr.Int 5 ];
    data_frame ~first_seq:300 [ ack 7 12; ack 8 (-1) ] [ Xdr.Int 5 ];
    data_frame ~first_seq:20000 [ ack 0 19999 ] [ call 20000 (W.Ref 0) ];
    data_frame ~first_seq:20000 [ ack 0 19999; ack ~pressure:1 3 20001 ] [ Xdr.Int 5 ];
    ( at_top [ ack ~pressure:3 top 0; ack top min_int ],
      [ (String.length (at_top []), 2) ] );
    ack_frame [ ack 7 (-1); ack ~pressure:1 8 300 ];
    ack_frame [ ack 7 300 ];
    ack_frame [];
    (reset "no such port group", [ (String.length (reset "") - 1, 18) ]);
  ]

(* [frame] with its count prefix at [pos] replaced by [n]. *)
let lie frame pos n =
  String.sub frame 0 pos
  ^ (let e = B.acquire () in
     B.add_uvarint e n;
     B.contents e)
  ^ String.sub frame (pos + 1) (String.length frame - pos - 1)

(* Every golden frame: each count prefix rewritten to a spread of lies,
   and every one-byte mutation. *)
let test_golden_frame_mutations () =
  let disagree = ref [] in
  let probe f = if not (frame_decoders_agree f) then disagree := hex f :: !disagree in
  List.iter
    (fun (frame, counts) ->
      (match CH.decode_packet frame with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "golden frame refused: %s" e);
      List.iter
        (fun (pos, n) ->
          check Alcotest.int "count prefix where expected" n (Char.code frame.[pos]);
          List.iter
            (fun lie_n -> probe (lie frame pos lie_n))
            (List.init (n + 4) Fun.id @ [ 127; 128; 16383; 16384; max_int; -1 ]))
        counts;
      probe_one_byte_mutations probe frame)
    golden_frames;
  check Alcotest.(list string) "frame decoders agree on every mutation" [] !disagree

(* Golden frames, maybe with one count prefix lying, then mutated. *)
let gen_mutated_packet_frame : string QCheck.Gen.t =
  let open QCheck.Gen in
  let gen_lie (frame, counts) =
    if counts = [] then return frame
    else
      let* k = int_bound (List.length counts - 1) in
      let pos, n = List.nth counts k in
      let* lie_n =
        oneof [ map (fun d -> max 0 (n + d)) (int_range (-2) 3); oneofl [ 128; max_int; -1 ]; nat ]
      in
      return (lie frame pos lie_n)
  in
  let* golden = oneofl golden_frames in
  let* frame = oneof [ return (fst golden); gen_lie golden ] in
  map (List.fold_left mutate frame) gen_mutations

let prop_frame_decoders_agree =
  QCheck.Test.make ~name:"tree and view frame decoders accept the same mutated frames"
    ~count:3000
    (QCheck.make ~print:hex gen_mutated_packet_frame)
    frame_decoders_agree

(* The kind bytes the grammar admits: Data with no ack, one, or a
   count of them, the last two also with uptos counted from first_seq
   (bit 4); Ack with no ack, one, or a count; Reset. *)
let legal_kinds = [ 0x01; 0x05; 0x09; 0x15; 0x19; 0x02; 0x06; 0x0a; 0x03 ]

let set_byte pos byte f = String.mapi (fun i c -> if i = pos then Char.chr byte else c) f

(* One wire version and nine kind bytes: every other version byte (the
   retired 1 and 2 among them, so the retired handshake tags 4 and 5
   are refused under either) and every other kind byte (tag 0, ack form
   3, bits 5-7 set, bit 4 off a Data packet with acks, a Reset kind
   other than 3) is refused by both frame decoders, whatever body
   follows. *)
let test_other_versions_and_tags_refused () =
  let accepted = ref [] in
  let probe what f =
    match (CH.decode_packet f, CH.decode_packet_view f) with
    | Error _, Error _ -> ()
    | _ -> accepted := Printf.sprintf "%s %s" what (hex f) :: !accepted
  in
  List.iter
    (fun (frame, _) ->
      check Alcotest.int "golden frame is version 3" B.version (Char.code frame.[0]);
      for byte = 0 to 255 do
        if byte <> B.version then probe "version" (set_byte 0 byte frame);
        if not (List.mem byte legal_kinds) then probe "kind" (set_byte 1 byte frame)
      done;
      List.iter
        (fun v ->
          List.iter (fun tag -> probe "retired" (set_byte 0 v (set_byte 1 tag frame))) [ 4; 5 ])
        [ 1; 2 ])
    golden_frames;
  check Alcotest.(list string) "nothing accepted" [] !accepted

(* A count under ack form 2 says two entries or more, and an upto
   counted from first_seq must not overflow: both decoders refuse the
   rest. The encoder never writes such a frame: from a first_seq where
   counting would wrap, it spells the upto whole. *)
let test_ack_count_and_overflow_refused () =
  let frame kind ints =
    let e = B.acquire () in
    List.iter (B.add_byte e) [ B.version; kind ];
    List.iter (fun (signed, n) -> if signed then B.add_varint e n else B.add_uvarint e n) ints;
    B.contents e
  in
  let u n = (false, n) and z n = (true, n) in
  let decodes f =
    match (CH.decode_packet f, CH.decode_packet_view f) with
    | Ok p, Ok _ -> Some p
    | Error _, Error _ -> None
    | _ -> Alcotest.failf "decoders disagree on %s" (hex f)
  in
  let refused what f = if decodes f <> None then Alcotest.failf "%s accepted" what in
  refused "Ack count 0 under form 2" (frame 0x0a [ u 0 ]);
  refused "Ack count 1 under form 2" (frame 0x0a [ u 1; u 0; z 5 ]);
  refused "Data count 1 under form 2" (frame 0x19 [ u 0; u 5; u 1; u 0; z 0 ]);
  refused "first_seq 5 + max_int" (frame 0x15 [ u 0; u 5; u 0; z max_int ]);
  (match decodes (frame 0x15 [ u 0; u 5; u 0; z (max_int - 5) ]) with
  | Some (CH.Data { acks = [ a ]; _ }) -> check Alcotest.int "5 + (max_int - 5)" max_int a.CH.a_upto
  | _ -> Alcotest.fail "the largest upto from first_seq 5 refused");
  List.iter
    (fun (first_seq, upto) ->
      let p = CH.Data { idx = 0; first_seq; opening = None; acks = [ ack 0 upto ]; items = [] } in
      let f = CH.encode_packet p in
      check Alcotest.int "spelled whole" 0x05 (Char.code f.[1]);
      match decodes f with
      | Some p' -> check Alcotest.bool "round-trips" true (equal_packet p p')
      | None -> Alcotest.failf "first_seq %d, upto %d refused" first_seq upto)
    [ (min_int, max_int); (max_int, min_int); (-1, max_int) ]

(* Every golden frame under each of the 256 kind bytes and the version
   bytes 1, 2 and 3. Only version 3 with a legal kind decodes; the two
   decoders agree on every frame; each golden frame decodes under its
   own kind, and a Data frame with acks also under its kind with bit 4
   flipped, to the same packet with every upto moved by first_seq. A
   hub counts each refused frame as one decode error. *)
let test_kind_byte_exhaustive () =
  let refused = ref [] and wrong = ref [] in
  let fail what f = wrong := Printf.sprintf "%s %s" what (hex f) :: !wrong in
  let shifted by = function
    | CH.Data r ->
        CH.Data { r with acks = List.map (fun a -> { a with CH.a_upto = a.CH.a_upto + by }) r.acks }
    | p -> p
  in
  List.iter
    (fun (frame, _) ->
      let own = Char.code frame.[1] in
      let golden = Result.get_ok (CH.decode_packet frame) in
      check Alcotest.bool "golden kind is legal" true (List.mem own legal_kinds);
      List.iter
        (fun version ->
          for kind = 0 to 255 do
            let f = set_byte 0 version (set_byte 1 kind frame) in
            if not (frame_decoders_agree f) then fail "decoders disagree" f;
            let legal = version = B.version && List.mem kind legal_kinds in
            match (CH.decode_packet f, golden) with
            | Error _, _ ->
                refused := f :: !refused;
                if legal && (kind = own || kind = own lxor 0x10) then fail "refused" f
            | Ok _, _ when not legal -> fail "accepted" f
            | Ok p, CH.Data { first_seq; _ } when kind = own lxor 0x10 ->
                let by = if own land 0x10 = 0 then first_seq else -first_seq in
                if not (equal_packet p (shifted by golden)) then fail "other ack base misread" f
            | Ok _, _ -> ()
          done)
        [ 1; 2; 3 ])
    golden_frames;
  check Alcotest.(list string) "kind bytes read as the grammar says" [] !wrong;
  check Alcotest.(list int) "the golden frames cover every legal kind"
    (List.sort compare legal_kinds)
    (List.sort_uniq compare (List.map (fun (f, _) -> Char.code f.[1]) golden_frames));
  let w = make_world () in
  List.iter
    (fun f -> Net.send w.net ~src:w.node_a ~dst:(Net.address w.node_b) ~bytes_:0 f)
    !refused;
  run_ok w;
  check Alcotest.int "each refused frame one decode error" (List.length !refused)
    (peek w "chan_decode_errors")

(* ------------------------------------------------------------------ *)
(* Golden wire bytes: every E12 cell must stay digit-for-digit on the
   pinned table (the same one the bench runner
   gates on before writing BENCH_wire.json). *)

let test_e12_golden_bytes () =
  let rows = Workloads.Exp_wire.e12_rows () in
  check Alcotest.int "row count" (List.length Workloads.Exp_wire.goldens) (List.length rows);
  check Alcotest.(list string) "E12 matches its goldens" []
    (Workloads.Exp_wire.golden_mismatches rows)

let test_reference_payload_sizes () =
  check Alcotest.(list string) "codec reference payloads match their sizes" []
    (Workloads.Exp_wire.payload_mismatches ())

(* ------------------------------------------------------------------ *)
(* Call and reply envelopes (docs/WIRE.md §1.2): positional lists whose
   head bits decide which optional elements follow. Parsed from views
   over the encoded bytes, as the receive path sees them. *)

let view_of v =
  match Xdr.View.of_string (B.to_string v) with
  | Ok vw -> vw
  | Error e -> Alcotest.failf "view scan failed: %s" e

let parse_reply v = Result.bind (W.parse_reply_view (view_of v)) W.outcome_of_view

(* Every head combination: kind × resubmit × elide × cid (present when
   it differs from the position) × trace × non-empty handoff × port
   define or ref, each with random contents. *)
let prop_call_envelope_roundtrip =
  QCheck.Test.make ~name:"call envelopes round-trip under every head" ~count:50
    QCheck.(quad small_nat (int_bound max_int) small_printable_string arb_value)
    (fun (cid, tid, port, args) ->
      List.for_all
        (fun combo ->
          let on b = combo land b <> 0 in
          let kind = if on 1 then W.Send else W.Call in
          let resubmit = on 2 and elide = on 4 in
          let cid = if on 8 then Some cid else None in
          let handoff =
            if on 16 then [ sample_handoff; { sample_handoff with W.ho_call = 6 } ] else []
          in
          let trace = if on 32 then Some tid else None in
          let port = if on 64 then W.Ref (tid lsr 8) else W.Define port in
          let item = W.call_item ~resubmit ~handoff ~elide ?cid ~trace ~port ~kind ~args () in
          let vw = view_of item in
          let fail fmt = QCheck.Test.fail_reportf ("combo 0x%x: " ^^ fmt) combo in
          match W.parse_call_view vw with
          | Error e -> fail "parse failed: %s" e
          | Ok cv -> (
              if (cv.W.cv_cid, cv.W.cv_port, cv.W.cv_kind) <> (cid, port, kind)
              then fail "envelope fields differ"
              else if (cv.W.cv_trace, cv.W.cv_resubmit, cv.W.cv_elide, cv.W.cv_handoff)
                      <> (trace, resubmit, elide, handoff)
              then fail "flags or optional elements differ"
              else if W.item_trace item <> trace || W.item_trace_view vw <> trace then
                fail "item_trace disagrees"
              else
                match Xdr.View.materialize cv.W.cv_args with
                | Ok a when Xdr.equal_value a args -> true
                | Ok _ -> fail "args differ"
                | Error e -> fail "args: %s" e))
        (List.init 128 Fun.id))

(* Every reply form: untraced [[v]] and [[]], and the coded form for
   everything else, each traced or not. *)
let equal_outcome a b =
  match (a, b) with
  | W.W_normal x, W.W_normal y -> Xdr.equal_value x y
  | W.W_signal (n, x), W.W_signal (m, y) -> n = m && Xdr.equal_value x y
  | a, b -> a = b

let check_reply_roundtrip ~trace item outcome =
  match parse_reply item with
  | Error e -> Error e
  | Ok got when not (equal_outcome got outcome) -> Error "outcome differs"
  | Ok _ ->
      if W.item_trace item <> trace || W.item_trace_view (view_of item) <> trace then
        Error "item_trace disagrees"
      else Ok ()

let all_reply_forms v =
  [
    ("normal", W.reply_item, W.W_normal v);
    ("signal", W.reply_item, W.W_signal ("no_such_user", v));
    ("unavailable", W.reply_item, W.W_unavailable "cannot communicate");
    ("failure", W.reply_item, W.W_failure "handler does not exist");
    ("send-ok", (fun ~trace _ -> W.send_ok_item ~trace), W.W_normal Xdr.Unit);
  ]

let prop_reply_envelope_roundtrip =
  QCheck.Test.make ~name:"reply envelopes round-trip in every form" ~count:100
    QCheck.(pair (option (int_bound max_int)) arb_value)
    (fun (trace, v) ->
      List.for_all
        (fun (what, build, outcome) ->
          match check_reply_roundtrip ~trace (build ~trace outcome) outcome with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_reportf "%s: %s" what e)
        (all_reply_forms v))

let test_reply_envelope_roundtrips () =
  let values =
    [
      Xdr.Int 7;
      (* a user value shaped like a coded reply or an old outcome: the
         element count, not the value, decides how a reply is read *)
      Xdr.Int 0x24;
      Xdr.List [ Xdr.Int 2; Xdr.Str "r" ];
      Xdr.Tagged ("g", Xdr.Pair (Xdr.Str "x", Xdr.Unit));
      Xdr.List [];
      Xdr.Unit;
    ]
  in
  List.iter
    (fun trace ->
      List.iter
        (fun v ->
          List.iter
            (fun (what, build, outcome) ->
              match check_reply_roundtrip ~trace (build ~trace outcome) outcome with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s of %a: %s" what Xdr.pp_value v e)
            (all_reply_forms v))
        values)
    [ None; Some 9; Some max_int ];
  (* The untraced forms: a one-element list is a normal reply whatever
     its value, and an int result packs. *)
  check Alcotest.string "int reply packs" "\x0c\x01\x07"
    (B.to_string (W.reply_item ~trace:None (W.W_normal (Xdr.Int 7))));
  check Alcotest.bool "a lone int reads as a value, not a head" true
    (parse_reply (Xdr.List [ Xdr.Int 0x24 ]) = Ok (W.W_normal (Xdr.Int 0x24)));
  check Alcotest.bool "the empty list is a send-ok" true
    (parse_reply (Xdr.List []) = Ok (W.W_normal Xdr.Unit))

let ok_args = Xdr.Pair (Xdr.Str "stu1", Xdr.Int 85)

(* Define-form heads carry 0x40 and a port element; ref-form heads
   carry the table index above bit 7 and no port element. *)
let hostile_calls =
  let i n = Xdr.Int n and port = Xdr.Str "p" and d = 0x40 in
  [
    ("not a list", i 3);
    ( "the field-named record form",
      Xdr.Record [ ("q", i 1); ("i", i 1); ("p", port); ("k", Xdr.Str "c"); ("a", i 1) ] );
    ("old form with a leading seq", Xdr.List [ i 12; i 0; Xdr.Str "work"; i 42 ]);
    ("old form with seq 0", Xdr.List [ i 0; i 0x20; port; ok_args; i 9 ]);
    ("short list", Xdr.List [ i d; port ]);
    ("lone ref head", Xdr.List [ i 0x80 ]);
    ("empty list", Xdr.List []);
    ("head mistyped", Xdr.List [ Xdr.Bool true; port; ok_args ]);
    ("port mistyped", Xdr.List [ i d; i 5; ok_args ]);
    ("cid mistyped", Xdr.List [ i (d lor 0x08); port; ok_args; Xdr.Str "2" ]);
    ("cid mistyped, port ref", Xdr.List [ i 0x88; ok_args; Xdr.Str "2" ]);
    ("trace mistyped", Xdr.List [ i (d lor 0x20); port; ok_args; Xdr.Unit ]);
    ("handoff mistyped", Xdr.List [ i (d lor 0x10); port; ok_args; i 3 ]);
    ("handoff list empty", Xdr.List [ i (d lor 0x10); port; ok_args; Xdr.List [] ]);
    ("handoff entry malformed", Xdr.List [ i (d lor 0x10); port; ok_args; Xdr.List [ i 3 ] ]);
    ("define with an index", Xdr.List [ i (0x80 lor d); port; ok_args ]);
    ("negative head", Xdr.List [ i (-1); port; ok_args ]);
    ("negative head, port ref form", Xdr.List [ i min_int; ok_args ]);
    ("cid bit, no cid", Xdr.List [ i (d lor 0x08); port; ok_args ]);
    ("trace bit, no trace", Xdr.List [ i (d lor 0x20); port; ok_args ]);
    ("trace bit, no trace, port ref", Xdr.List [ i 0x20; ok_args ]);
    ("cid and trace bits, one element", Xdr.List [ i (d lor 0x28); port; ok_args; i 2 ]);
    ("trailing element", Xdr.List [ i d; port; ok_args; i 2 ]);
    ("trailing element, port ref", Xdr.List [ i 0x180; ok_args; i 2 ]);
    ("trailing after trace", Xdr.List [ i (d lor 0x20); port; ok_args; i 9; i 2 ]);
    ( "optional elements out of order",
      Xdr.List
        [ i (d lor 0x18); port; ok_args; Xdr.List [ W.handoff_value sample_handoff ]; i 2 ] );
  ]

let hostile_replies =
  let i n = Xdr.Int n in
  [
    ("not a list", Xdr.Str "nope");
    ( "the tagged-outcome record form",
      Xdr.Record [ ("q", i 1); ("t", i 9); ("o", Xdr.Tagged ("n", i 7)) ] );
    ("the old (seq, value) pair", Xdr.Pair (i 3, i 7));
    ("old send-ok with a leading seq", Xdr.List [ i 3; i 4 ]);
    ("old traced send-ok with a leading seq", Xdr.List [ i 3; i 0x24; i 9 ]);
    ("head mistyped", Xdr.List [ Xdr.Str "n"; i 7 ]);
    ("code out of range", Xdr.List [ i 5; Xdr.Str "x" ]);
    ("code out of range, traced", Xdr.List [ i 0x27; i 9 ]);
    ("negative code", Xdr.List [ i (-1); Xdr.Str "x" ]);
    ("untraced normal in coded form", Xdr.List [ i 0; i 7 ]);
    ("head and trace, no value", Xdr.List [ i 0x20; i 9 ]);
    ("trace mistyped", Xdr.List [ i 0x22; Xdr.Str "r"; Xdr.Str "9" ]);
    ("untraced send-ok in coded form", Xdr.List [ i 4; i 9 ]);
    ("traced send-ok with payload", Xdr.List [ i 0x24; i 1; i 9 ]);
    ("unavailable with extra", Xdr.List [ i 2; Xdr.Str "r"; Xdr.Str "extra" ]);
    ("signal missing value", Xdr.List [ i 1; Xdr.Str "oops" ]);
    ("signal name mistyped", Xdr.List [ i 1; i 3; Xdr.Unit ]);
    ("failure reason mistyped", Xdr.List [ i 3; i 5 ]);
  ]

let test_hostile_envelopes_rejected () =
  List.iter
    (fun (what, v) ->
      match W.parse_call_view (view_of v) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "hostile call accepted: %s" what
      | exception e -> Alcotest.failf "hostile call %s raised %s" what (Printexc.to_string e))
    hostile_calls;
  List.iter
    (fun (what, v) ->
      match parse_reply v with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "hostile reply accepted: %s" what
      | exception e -> Alcotest.failf "hostile reply %s raised %s" what (Printexc.to_string e))
    hostile_replies

(* Elements are read by position: the order is fixed, a port ref has no
   port element, and a call without its argument is rejected. *)
let test_call_elements_positional () =
  let item port =
    W.call_item ~cid:9 ~trace:None ~port ~kind:W.Call ~args:(Xdr.Str "payload") ()
  in
  (match item (W.Define "work") with
  | Xdr.List [ Xdr.Int 0x48; Xdr.Str "work"; Xdr.Str "payload"; Xdr.Int 9 ] -> ()
  | v -> Alcotest.failf "unexpected define layout %a" Xdr.pp_value v);
  (match item (W.Ref 5) with
  | Xdr.List [ Xdr.Int 0x288; Xdr.Str "payload"; Xdr.Int 9 ] -> ()
  | v -> Alcotest.failf "unexpected ref layout %a" Xdr.pp_value v);
  let reordered = Xdr.List [ Xdr.Str "work"; Xdr.Int 0; Xdr.Str "payload" ] in
  match W.parse_call_view (view_of reordered) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reordered call accepted"

(* [[Int 0; Str "x"]] is a complete ref-form call (port entry 0, args
   "x"); the shortest incomplete calls are a lone head of either form. *)
let test_call_missing_elements_rejected () =
  List.iter
    (fun v ->
      match W.parse_call_view (view_of v) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "incomplete call accepted: %a" Xdr.pp_value v)
    [ Xdr.List [ Xdr.Int 0x40 ]; Xdr.List [ Xdr.Int 0 ]; Xdr.List [ Xdr.Int 0x40; Xdr.Str "x" ] ]

(* ------------------------------------------------------------------ *)
(* Envelope fuzz: [parse_call_view] and [parse_reply_view] over mutated
   envelopes never raise, and what they accept agrees with the
   materialised tree. *)

let materialized vw = Result.to_option (Xdr.View.materialize vw)

(* The tree reading of an accepted call: its head, port, args, cid and
   handoff elements, by position. *)
let call_agrees_with_tree vw (cv : W.call_view) =
  match materialized vw with
  | Some (Xdr.List (Xdr.Int head :: rest)) -> (
      let port_ok, rest =
        match (cv.W.cv_port, rest) with
        | W.Define p, Xdr.Str q :: rest -> (head land 0x40 <> 0 && String.equal p q, rest)
        | W.Ref i, _ -> (head land 0x40 = 0 && i = head lsr 7, rest)
        | W.Define _, _ -> (false, rest)
      in
      match rest with
      | args :: opt ->
          let at b i = if head land b = 0 then None else List.nth_opt opt i in
          port_ok
          && cv.W.cv_kind = (if head land 0x01 <> 0 then W.Send else W.Call)
          && (match materialized cv.W.cv_args with Some a -> equal_bits a args | None -> false)
          && (match (cv.W.cv_cid, at 0x08 0) with
             | None, None -> true
             | Some c, Some (Xdr.Int c') -> c = c'
             | _ -> false)
          && (match at 0x10 ((head lsr 3) land 1) with
             | None -> cv.W.cv_handoff = []
             | Some (Xdr.List hs) ->
                 List.map W.parse_handoff hs = List.map Result.ok cv.W.cv_handoff
             | Some _ -> false)
      | [] -> false)
  | _ -> false

(* The tree reading of a reply: the element count picks the form. *)
let reply_of_tree = function
  | Xdr.List [] -> Some (W.W_normal Xdr.Unit)
  | Xdr.List [ v ] -> Some (W.W_normal v)
  | Xdr.List (Xdr.Int head :: payload) -> (
      let traced = head land 0x20 <> 0 in
      let payload =
        if not traced then Some payload
        else match List.rev payload with Xdr.Int _ :: rev -> Some (List.rev rev) | _ -> None
      in
      match (head land lnot 0x20, payload) with
      | 0, Some [ v ] when traced -> Some (W.W_normal v)
      | 1, Some [ Xdr.Str name; v ] -> Some (W.W_signal (name, v))
      | 2, Some [ Xdr.Str reason ] -> Some (W.W_unavailable reason)
      | 3, Some [ Xdr.Str reason ] -> Some (W.W_failure reason)
      | 4, Some [] -> Some (W.W_normal Xdr.Unit)
      | _ -> None)
  | _ -> None

let envelope_parsers_agree s =
  try
    match Xdr.View.of_string s with
    | Error _ -> true
    | Ok vw -> (
        (match W.parse_call_view vw with Ok cv -> call_agrees_with_tree vw cv | Error _ -> true)
        &&
        let expected = Option.bind (materialized vw) reply_of_tree in
        match Result.bind (W.parse_reply_view vw) W.outcome_of_view with
        | Ok o -> ( match expected with Some o' -> equal_outcome o o' | None -> false)
        | Error _ -> expected = None)
  with _ -> false

(* A call whose arguments and handoff annotations are packed record
   lists, and replies carrying one. *)
let record_envelopes =
  let recs =
    Xdr.List
      (List.init 3 (fun i ->
           Xdr.Record [ ("who", Xdr.Str (Printf.sprintf "s%d" i)); ("g", ints [ i; 90 ]) ]))
  in
  List.map B.to_string
    [
      W.call_item ~cid:7 ~handoff:[ sample_handoff ] ~trace:(Some 3) ~port:(W.Define "grade")
        ~kind:W.Call ~args:(Xdr.Pair (Xdr.Str "k", recs)) ();
      W.reply_item ~trace:None (W.W_normal recs);
      W.reply_item ~trace:(Some 4) (W.W_signal ("late", recs));
    ]

let test_envelope_mutations () =
  let disagree = ref [] in
  let probe s = if not (envelope_parsers_agree s) then disagree := hex s :: !disagree in
  List.iter (probe_one_byte_mutations probe) record_envelopes;
  check Alcotest.(list string) "parsers agree with the tree on every mutation" [] !disagree

let prop_envelope_parsers_agree =
  let seeds =
    List.map (fun (_, _, bytes) -> bytes) Workloads.Exp_wire.envelope_goldens @ record_envelopes
  in
  QCheck.Test.make ~name:"envelope parsers agree with the tree on mutated items" ~count:2000
    (QCheck.make ~print:hex QCheck.Gen.(map2 (List.fold_left mutate) (oneofl seeds) gen_mutations))
    envelope_parsers_agree

(* ------------------------------------------------------------------ *)
(* Ack hold: every ack parks for the next Data packet to its peer until
   the scheduler runs out of work at the current instant *)

type logged = { at : float; packet : Xdr.value CH.packet }

(* [tr] with every packet it sends and receives logged, oldest first. *)
let recording tr =
  let sent = ref [] and received = ref [] in
  let log into frame =
    match CH.decode_packet frame with
    | Ok packet -> into := { at = S.now tr.Transport.sched; packet } :: !into
    | Error e -> Alcotest.failf "undecodable frame: %s" e
  in
  let tr =
    {
      tr with
      Transport.send =
        (fun ~dst frame ->
          log sent frame;
          tr.Transport.send ~dst frame);
      set_receiver =
        (fun f ->
          tr.Transport.set_receiver (fun ~src frame ->
              log received frame;
              f ~src frame));
    }
  in
  (tr, (fun () -> List.rev !sent), fun () -> List.rev !received)

type recorded = {
  rw : world;
  a_sent : unit -> logged list;
  b_sent : unit -> logged list;
  b_received : unit -> logged list;
}

let recorded_world () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched Net.default_config in
  let node_a = Net.add_node net ~name:"a" and node_b = Net.add_node net ~name:"b" in
  let tr_a, a_sent, _ = recording (Transport_sim.endpoint net node_a) in
  let tr_b, b_sent, b_received = recording (Transport_sim.endpoint net node_b) in
  let rw =
    {
      sched;
      net;
      node_a;
      node_b;
      hub_a = CH.create_hub ~transport:tr_a ();
      hub_b = CH.create_hub ~transport:tr_b ();
    }
  in
  { rw; a_sent; b_sent; b_received }

let acks_of = function CH.Ack { acks } -> Some acks | CH.Data _ | CH.Reset _ -> None

let is_data = function CH.Data _ -> true | CH.Ack _ | CH.Reset _ -> false

(* A guardian on hub b serving [work] after [service] seconds, and a
   client agent on hub a bound to it. *)
let work_pair w ~cfg ~service =
  let server = Argus.Guardian.create w.hub_b ~name:"server" in
  Argus.Guardian.register_group server ~group:"main" ~config:GC.(default |> with_reply_config cfg)
    ();
  Argus.Guardian.register server ~group:"main" Workloads.Fixtures.work_sig (fun ctx i ->
      if service > 0.0 then S.sleep ctx.Argus.Guardian.sched service;
      Ok i);
  let ag = Core.Agent.create w.hub_a ~name:"client" ~config:cfg () in
  Core.Remote.bind ag ~dst:(Net.address w.node_b) ~gid:"main" Workloads.Fixtures.work_sig

let rpc_loop w h ~n =
  ignore
    (S.spawn w.sched (fun () ->
         for i = 1 to n do
           match Core.Remote.rpc h i with
           | Core.Promise.Normal v when v = i -> ()
           | _ -> Alcotest.failf "rpc %d failed" i
         done));
  run_ok w

(* (a) In an RPC loop each reply's ack rides the client's next call:
   the client sends one standalone Ack at most, after its last call. *)
(* The window charges the bytes an item ships in. A depth-4 chain's
   four calls leave in one frame, whose three references name their
   own stream by the empty id: the frame spells that id once and refers
   to it twice.
   When the frame leaves, before any ack, the channel's inflight bytes
   are the frame minus its head, which is the same packet encoded with
   no items. *)
let test_window_charges_wire_bytes () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched Net.default_config in
  let node_a = Net.add_node net ~name:"a" and node_b = Net.add_node net ~name:"b" in
  let stream = ref None and sent = ref [] in
  let tr = Transport_sim.endpoint net node_a in
  let capture ~dst frame =
    (match !stream with Some se -> sent := (frame, SE.inflight_bytes se) :: !sent | None -> ());
    tr.Transport.send ~dst frame
  in
  let w =
    {
      sched;
      net;
      node_a;
      node_b;
      hub_a = CH.create_hub ~transport:{ tr with Transport.send = capture } ();
      hub_b = CH.create_hub ~net:(net, node_b) ();
    }
  in
  let h = work_pair w ~cfg:CH.adaptive_config ~service:0.0 in
  stream := Some (Core.Remote.stream h);
  ignore
    (S.spawn sched (fun () ->
         let p = ref (Core.Remote.stream_call h 7) in
         for _ = 2 to 4 do
           p := Core.Remote.Call.(submit (piped h (Core.Remote.pipe !p)))
         done;
         match Core.Promise.claim !p with
         | Core.Promise.Normal 7 -> ()
         | _ -> Alcotest.fail "chain failed"));
  run_ok w;
  match List.rev !sent with
  | (frame, inflight) :: _ -> (
      match CH.decode_packet frame with
      | Ok (CH.Data { idx; first_seq; opening; acks; items }) ->
          check Alcotest.int "the chain leaves in one frame" 4 (List.length items);
          let refs = List.length (List.filter (fun i -> Xdr.View.has_prefs (view_of i)) items) in
          check Alcotest.int "three calls carry a reference" 3 refs;
          let head =
            CH.encode_packet (CH.Data { idx; first_seq; opening; acks; items = [] })
          in
          check Alcotest.int "inflight bytes = frame - head"
            (String.length frame - String.length head)
            inflight
      | Ok _ | Error _ -> Alcotest.fail "the first frame is not the chain's Data packet")
  | [] -> Alcotest.fail "nothing sent"

let test_rpc_reply_acks_ride_next_call () =
  let r = recorded_world () in
  let n = 20 in
  rpc_loop r.rw (work_pair r.rw ~cfg:CH.rpc_config ~service:0.0) ~n;
  let sent = r.a_sent () in
  let calls = List.filter (fun l -> is_data l.packet) sent in
  check Alcotest.int "one Data packet per call" n (List.length calls);
  List.iteri
    (fun k l ->
      match l.packet with
      | CH.Data { acks; _ } ->
          check Alcotest.int (Printf.sprintf "call %d carries the previous reply's ack" k)
            (min k 1) (List.length acks)
      | CH.Ack _ | CH.Reset _ -> ())
    calls;
  match List.filter (fun l -> acks_of l.packet <> None) sent with
  | [] -> ()
  | [ l ] ->
      check Alcotest.bool "the one standalone ack is the last frame" true
        (l == List.nth sent (List.length sent - 1))
  | acks -> Alcotest.failf "%d standalone acks" (List.length acks)

(* (b) A receiver that sends nothing back still acks in the virtual
   instant the packet was delivered. *)
let test_silent_receiver_acks_same_instant () =
  let r = recorded_world () in
  let w = r.rw in
  let got, _ = sink w in
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" CH.rpc_config in
  ignore (CH.send out (Xdr.Int 1) : (unit, string) result);
  run_ok w;
  check Alcotest.int "delivered" 1 (List.length !got);
  match (r.b_received (), r.b_sent ()) with
  | [ delivered ], [ { at; packet = CH.Ack { acks = [ _ ] } } ] ->
      check (Alcotest.float 0.0) "acked at the delivery instant" delivered.at at;
      check Alcotest.int "sender fully acked" 0 (CH.unacked_count out)
  | _ -> Alcotest.fail "expected one Data in and one standalone Ack out"

(* (c) A handler slower than the caller's retransmit timeout: its call
   is acked at delivery, so nothing is retransmitted. *)
let test_slow_handler_acked_at_delivery () =
  let r = recorded_world () in
  let cfg = { CH.rpc_config with CH.retransmit_timeout = 10e-3 } in
  rpc_loop r.rw (work_pair r.rw ~cfg ~service:50e-3) ~n:1;
  (match (r.b_received (), r.b_sent ()) with
  | call :: _, { at; packet = CH.Ack _ } :: _ ->
      check (Alcotest.float 0.0) "call acked at delivery" call.at at
  | _ -> Alcotest.fail "expected the server's first frame to be a standalone Ack");
  check Alcotest.int "no retransmits" 0 (peek r.rw "chan_retransmits")

(* (d) Packets from one peer on two channels, delivered in one instant,
   are acked by one frame. *)
let test_two_channels_one_ack_frame () =
  let r = recorded_world () in
  let w = r.rw in
  let got, opened = sink w in
  let outs =
    List.init 2 (fun _ ->
        CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"sink" ~meta:"" CH.rpc_config)
  in
  List.iter (fun o -> ignore (CH.send o (Xdr.Int 1) : (unit, string) result)) outs;
  run_ok w;
  check Alcotest.int "both channels opened" 2 !opened;
  check Alcotest.int "both items delivered" 2 (List.length !got);
  (match r.b_received () with
  | [ p; q ] -> check (Alcotest.float 0.0) "delivered in one instant" p.at q.at
  | _ -> Alcotest.fail "expected two Data packets");
  (match List.filter_map (fun l -> acks_of l.packet) (r.b_sent ()) with
  | [ acks ] -> check Alcotest.int "one Ack frame, two entries" 2 (List.length acks)
  | frames -> Alcotest.failf "%d Ack frames" (List.length frames));
  List.iter (fun o -> check Alcotest.int "fully acked" 0 (CH.unacked_count o)) outs

(* A frame carries no state across frames: a hub sending the same
   string-heavy item in frame after frame spends the same bytes on it
   each time, and every frame it sent decodes alone, in any order, to
   exactly its own bytes again. *)
let test_hub_frames_decode_alone () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched Net.default_config in
  let node_a = Net.add_node net ~name:"a" and node_b = Net.add_node net ~name:"b" in
  let raw = ref [] in
  let tr = Transport_sim.endpoint net node_a in
  let tr = { tr with Transport.send = (fun ~dst f -> raw := f :: !raw; tr.Transport.send ~dst f) } in
  let w =
    {
      sched;
      net;
      node_a;
      node_b;
      hub_a = CH.create_hub ~transport:tr ();
      hub_b = CH.create_hub ~net:(net, node_b) ();
    }
  in
  let got, _ = sink w in
  let item i =
    Xdr.Record
      [ ("host", Xdr.Str "shard-host-03.internal"); ("zone", Xdr.Str "eu-west"); ("seq", Xdr.Int i) ]
  in
  let n = 10 in
  let out = CH.connect w.hub_a ~dst:(Net.address node_b) ~label:"sink" ~meta:"" CH.rpc_config in
  ignore
    (S.spawn sched (fun () ->
         for i = 1 to n do
           ignore (CH.send out (item i) : (unit, string) result);
           S.sleep sched 0.05
         done));
  run_ok w;
  check Alcotest.bool "all delivered in order" true
    (List.equal Xdr.equal_value (List.init n (fun i -> item (i + 1))) !got);
  let frames = List.rev !raw in
  check Alcotest.int "one frame per item" n (List.length frames);
  List.iter
    (fun f ->
      match CH.decode_packet f with
      | Ok p -> check Alcotest.string "re-encodes to its own bytes" (hex f) (hex (CH.encode_packet p))
      | Error e -> Alcotest.failf "frame does not decode alone: %s" e)
    (List.rev frames);
  match List.map String.length frames with
  | _opening :: (len :: _ as rest) ->
      List.iter (check Alcotest.int "a repeated item costs the same every frame" len) rest
  | _ -> Alcotest.fail "expected several frames"

(* A world whose two hubs log every frame they send, raw, oldest first.
   With no receive overhead a server replies in its call's turn, as
   over TCP, so its replies carry the acks. *)
let raw_world () =
  let sched = S.create ~seed:42 () in
  let net = Net.create sched { Net.default_config with Net.kernel_overhead = 0.0 } in
  let node_a = Net.add_node net ~name:"a" and node_b = Net.add_node net ~name:"b" in
  let logged node =
    let log = ref [] and tr = Transport_sim.endpoint net node in
    let send ~dst f =
      log := f :: !log;
      tr.Transport.send ~dst f
    in
    (CH.create_hub ~transport:{ tr with Transport.send } (), fun () -> List.rev !log)
  in
  let hub_a, a_frames = logged node_a and hub_b, b_frames = logged node_b in
  ({ sched; net; node_a; node_b; hub_a; hub_b }, a_frames, b_frames)

(* rpc_small's frames: one call per frame naming its port by table
   entry 0, acking the previous reply (upto = first_seq - 1); its reply
   acks the call (upto = first_seq). *)
let rpc_call_frame ~seq ~arg =
  CH.encode_packet
    (CH.Data
       {
         idx = 0;
         first_seq = seq;
         opening = None;
         acks = [ ack 0 (seq - 1) ];
         items = [ W.call_item ~trace:None ~port:(W.Ref 0) ~kind:W.Call ~args:(Xdr.Int arg) () ];
       })

let rpc_reply_frame ~seq ~value =
  CH.encode_packet
    (CH.Data
       {
         idx = 0;
         first_seq = seq;
         opening = None;
         acks = [ ack 0 seq ];
         items = [ W.reply_item ~trace:None (W.W_normal (Xdr.Int value)) ];
       })

(* Loadbench's frames, byte for byte. A sim RPC loop sends exactly the
   frames above after the two openings; past seq 2^14, with loadbench's
   4-byte arguments, the call is 15 B and the reply 14 B, each acking in
   one byte from first_seq. A depth-4 chain on adaptive channels to an
   unordered group sends one call frame (a fresh call and three
   references to its own stream) and one reply frame; chain 3's pair is
   pinned. At these small seqs an upto takes one byte either way, so
   the acks stay absolute. *)
let test_loadbench_frames_pinned () =
  let w, a_frames, b_frames = raw_world () in
  let n = 20 in
  rpc_loop w (work_pair w ~cfg:CH.rpc_config ~service:0.0) ~n;
  (* call seq s carries argument s + 1, which the handler echoes *)
  let warm frames = List.filteri (fun k _ -> k >= 1 && k < n) frames in
  check Alcotest.(list string) "a hub's RPC calls"
    (List.init (n - 1) (fun k -> hex (rpc_call_frame ~seq:(k + 1) ~arg:(k + 2))))
    (List.map hex (warm (a_frames ())));
  check Alcotest.(list string) "a hub's RPC replies"
    (List.init (n - 1) (fun k -> hex (rpc_reply_frame ~seq:(k + 1) ~value:(k + 2))))
    (List.map hex (warm (b_frames ())));
  check Alcotest.string "rpc_small call at seq 100000"
    "03 15 00 a0 8d 06 00 01 0c 02 00 9e cb f3 10"
    (hex (rpc_call_frame ~seq:100_000 ~arg:35_448_222));
  check Alcotest.string "rpc_small reply at seq 100000"
    "03 15 00 a0 8d 06 00 00 0c 01 9f cb f3 10"
    (hex (rpc_reply_frame ~seq:100_000 ~value:35_448_223));
  let w, a_frames, b_frames = raw_world () in
  let cfg = CH.adaptive_config in
  let server = Argus.Guardian.create w.hub_b ~name:"server" in
  Argus.Guardian.register_group server ~group:"main"
    ~config:GC.(default |> with_reply_config cfg |> with_ordered false)
    ();
  Argus.Guardian.register server ~group:"main" Workloads.Fixtures.work_sig (fun _ n -> Ok (n + 1));
  let h =
    Core.Remote.bind
      (Core.Agent.create w.hub_a ~name:"client" ~config:cfg ())
      ~dst:(Net.address w.node_b) ~gid:"main" Workloads.Fixtures.work_sig
  in
  ignore
    (S.spawn w.sched (fun () ->
         for chain = 0 to 3 do
           let p = ref (Core.Remote.stream_call h (35_448_222 + chain)) in
           for _ = 2 to 4 do
             p := Core.Remote.Call.(submit (piped h (Core.Remote.pipe !p)))
           done;
           Core.Remote.flush h;
           match Core.Promise.claim !p with
           | Core.Promise.Normal v when v = 35_448_226 + chain -> ()
           | _ -> Alcotest.fail "chain failed"
         done));
  run_ok w;
  check Alcotest.(list string) "chain 3's call frame"
    [
      "03 05 00 0c 00 16 0c 02 00 a1 cb f3 10 08 02 03 00 0b 00 00 18 00 08 02 03 00 0b 01 1a 00 \
       08 02 03 00 0b 01 1c 00";
    ]
    (List.map hex (List.filteri (fun k _ -> k = 3) (a_frames ())));
  check Alcotest.(list string) "chain 3's reply frame"
    [ "03 05 00 0c 00 1e 0c 01 a2 cb f3 10 0c 01 a3 cb f3 10 0c 01 a4 cb f3 10 0c 01 a5 cb f3 10" ]
    (List.map hex (List.filteri (fun k _ -> k = 3) (b_frames ())))

(* Loadbench's replay re-encodes exactly the frames whose first byte is
   the wire version, so every frame a hub sends must start with it:
   calls, replies and acks of an RPC loop and a stream, and a Reset. *)
let test_hub_frames_start_with_version () =
  let w, a_frames, b_frames = raw_world () in
  let h = work_pair w ~cfg:CH.adaptive_config ~service:0.0 in
  rpc_loop w h ~n:5;
  ignore
    (S.spawn w.sched (fun () ->
         let ps = List.init 40 (fun i -> Core.Remote.stream_call h i) in
         List.iteri
           (fun i p ->
             if Core.Promise.claim p <> Core.Promise.Normal i then
               Alcotest.fail "stream call failed")
           ps));
  run_ok w;
  let out = CH.connect w.hub_a ~dst:(Net.address w.node_b) ~label:"none" ~meta:"" CH.rpc_config in
  CH.break_out out ~reason:"done";
  run_ok w;
  let frames = a_frames () @ b_frames () in
  check Alcotest.(list string) "every frame starts with the version byte" []
    (List.filter_map
       (fun f -> if f <> "" && Char.code f.[0] = B.version then None else Some (hex f))
       frames);
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun f ->
           match CH.decode_packet f with
           | Ok (CH.Data _) -> "data"
           | Ok (CH.Ack _) -> "ack"
           | Ok (CH.Reset _) -> "reset"
           | Error e -> e)
         frames)
  in
  check Alcotest.(list string) "every packet form sent" [ "ack"; "data"; "reset" ] kinds

(* A connection loss drops the acks parked for that peer: they name the
   old incarnation's channel indexes, which a restarted peer reuses.
   The simulated net never fires the peer watch, so the hub runs on a
   hand-built transport. *)
let test_peer_down_drops_parked_acks () =
  let sched = S.create () in
  let receiver = ref (fun ~src:_ _ -> ()) in
  let watch = ref (fun ~peer:_ ~reason:_ -> ()) in
  let sent = ref [] in
  let tr =
    {
      Transport.addr = 0;
      node_name = "hub";
      backend = "test";
      sched;
      stats = Sim.Stats.create ();
      send = (fun ~dst frame -> sent := (dst, frame) :: !sent);
      set_receiver = (fun f -> receiver := f);
      set_peer_watch = (fun f -> watch := f);
      recv_overhead = (fun () -> 0.0);
      realtime = false;
    }
  in
  let hub = CH.create_hub ~transport:tr () in
  let delivered = ref 0 in
  CH.on_connect hub ~label:"sink" (fun i ->
      CH.set_deliver i (fun _ items -> delivered := List.length items));
  let opening = Some { CH.open_label = "sink"; open_meta = "" } in
  S.at sched 0.0 (fun () ->
      !receiver ~src:1
        (CH.encode_packet
           (CH.Data { idx = 0; first_seq = 0; opening; acks = []; items = [ Xdr.Int 1 ] }));
      !watch ~peer:1 ~reason:"connection reset");
  ignore (S.run sched : S.outcome);
  check Alcotest.int "delivered" 1 !delivered;
  let acks_to_peer =
    List.filter
      (fun (dst, frame) ->
        dst = 1 && match CH.decode_packet frame with Ok (CH.Ack _) -> true | _ -> false)
      !sent
  in
  check Alcotest.int "no Ack sent to the lost peer" 0 (List.length acks_to_peer)

(* ------------------------------------------------------------------ *)
(* Satellite regressions: NaN equality *)

(* ------------------------------------------------------------------ *)
(* Port tables (docs/WIRE.md §1.2): both ends of a call channel append
   defined ports in channel order, up to the cap. *)

let test_port_table_cap () =
  let cap = W.port_table_cap in
  let names = W.port_names () and table = W.port_table () in
  let port i = Printf.sprintf "p%d" i in
  for i = 0 to cap - 1 do
    match W.intern_port names (port i) with
    | W.Define n as form ->
        check Alcotest.string "first use defines" (port i) n;
        check Alcotest.(option string) "receiver applies the define" (Some n)
          (W.resolve_port table form)
    | W.Ref _ -> Alcotest.failf "port %d referenced before its define" i
  done;
  check Alcotest.bool "later uses refer" true (W.intern_port names (port 7) = W.Ref 7);
  check Alcotest.(option string) "refs resolve" (Some (port 7)) (W.resolve_port table (W.Ref 7));
  (* Past the cap: a define every time, appended on neither end. *)
  let late = port cap in
  for _ = 1 to 3 do
    check Alcotest.bool "past the cap, still a define" true
      (W.intern_port names late = W.Define late);
    check Alcotest.(option string) "past the cap, resolved in place" (Some late)
      (W.resolve_port table (W.Define late))
  done;
  check Alcotest.bool "the sender's table did not grow" true
    (W.port_form names late = W.Define late);
  check Alcotest.(option string) "the receiver's table did not grow" None
    (W.resolve_port table (W.Ref cap))

(* A call naming a port entry its channel never defined is a protocol
   error of that channel alone: it is counted, the channel is Reset and
   none of its calls runs, while a well-behaved stream to the same group
   carries on. *)
let test_bad_port_ref_breaks_only_its_channel () =
  let w = make_world () in
  let executed = ref [] in
  ignore
    (T.create w.hub_b ~gid:"echo" (fun _conn ~seq:_ ~port ~kind:_ ~args:_ ~reply ->
         executed := port :: !executed;
         reply (W.W_normal (Xdr.Str port)))
      : T.t);
  let forger = Net.add_node w.net ~name:"forger" in
  let forged =
    CH.Data
      {
        idx = 0;
        first_seq = 0;
        opening = Some { CH.open_label = "echo"; open_meta = "~r/f/echo/1/0" };
        acks = [];
        items =
          [
            W.call_item ~trace:None ~port:(W.Define "ok") ~kind:W.Call ~args:Xdr.Unit ();
            W.call_item ~trace:None ~port:(W.Ref 1) ~kind:W.Call ~args:Xdr.Unit ();
          ];
      }
  in
  let se = SE.create w.hub_a ~agent:"t" ~dst:(Net.address w.node_b) ~gid:"echo" () in
  let replies = ref [] in
  ignore
    (S.spawn w.sched (fun () ->
         inject w ~src:forger ~dst:w.node_b forged;
         List.iter
           (fun port ->
             match
               SE.call se ~port ~kind:W.Call ~args:Xdr.Unit ~on_reply:(fun o ->
                   replies := o :: !replies)
             with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "call failed: %s" e)
           [ "x"; "y"; "x" ];
         match SE.synch se with Ok () -> () | Error _ -> Alcotest.fail "good stream broke"));
  run_ok w;
  check Alcotest.int "bad ref counted" 1 (peek w "target_bad_port_refs");
  check Alcotest.bool "the forged channel was Reset" true (peek w "chan_reset_packets" >= 1);
  check Alcotest.(list string) "the break dropped the forged channel's queued call"
    [ "x"; "y"; "x" ] (List.rev !executed);
  check Alcotest.bool "the good stream's replies echo its ports" true
    (List.rev !replies
    = List.map (fun p -> W.W_normal (Xdr.Str p)) [ "x"; "y"; "x" ])

(* A third node's opening packet that reuses the a->b call channel's
   idx (0: the stream's call channel is hub a's first) opens the third
   node's own end, with its own port table: its ref 0 runs the port it
   defined, and a's refs to entry 0 still run a's port. *)
let test_reused_idx_keeps_port_tables_apart () =
  let w = make_world () in
  let executed = ref [] in
  ignore
    (T.create w.hub_b ~gid:"echo" (fun conn ~seq:_ ~port ~kind:_ ~args:_ ~reply ->
         executed := (T.conn_src conn, port) :: !executed;
         reply (W.W_normal (Xdr.Str port)))
      : T.t);
  let mallory = Net.add_node w.net ~name:"mallory" in
  (* a hub accepting nothing: the group's reply channel is Reset *)
  ignore (CH.create_hub ~net:(w.net, mallory) () : CH.hub);
  let forged =
    CH.Data
      {
        idx = 0;
        first_seq = 0;
        opening = Some { CH.open_label = "echo"; open_meta = "~r/m/echo/1/0" };
        acks = [];
        items =
          List.map
            (fun port -> W.call_item ~trace:None ~port ~kind:W.Call ~args:Xdr.Unit ())
            [ W.Define "evil"; W.Ref 0 ];
      }
  in
  let se = SE.create w.hub_a ~agent:"t" ~dst:(Net.address w.node_b) ~gid:"echo" () in
  let replies = ref [] in
  let call port =
    match
      SE.call se ~port ~kind:W.Call ~args:Xdr.Unit ~on_reply:(fun o -> replies := o :: !replies)
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "call failed: %s" e
  in
  ignore
    (S.spawn w.sched (fun () ->
         call "x";
         match SE.synch se with Ok () -> () | Error _ -> Alcotest.fail "stream broke"));
  S.after w.sched 0.1 (fun () -> inject w ~src:mallory ~dst:w.node_b forged);
  S.after w.sched 0.2 (fun () ->
      ignore
        (S.spawn w.sched (fun () ->
             List.iter call [ "x"; "y"; "x" ];
             match SE.synch se with Ok () -> () | Error _ -> Alcotest.fail "stream broke")));
  run_ok w;
  let ran node = List.filter_map (fun (s, p) -> if s = Net.address node then Some p else None) in
  check Alcotest.(list string) "a's calls ran a's ports" [ "x"; "x"; "y"; "x" ]
    (List.rev (ran w.node_a !executed));
  check Alcotest.(list string) "mallory's ref 0 ran its own define" [ "evil"; "evil" ]
    (List.rev (ran mallory !executed));
  check Alcotest.bool "a's replies echo its ports" true
    (List.rev !replies = List.map (fun p -> W.W_normal (Xdr.Str p)) [ "x"; "x"; "y"; "x" ]);
  check Alcotest.int "no retransmits" 0 (peek w "chan_retransmits");
  check Alcotest.int "nothing spoofed" 0 (peek w "chan_spoofed_drops")

let test_equal_value_nan () =
  check Alcotest.bool "NaN = NaN" true (Xdr.equal_value (Xdr.Real nan) (Xdr.Real nan));
  check Alcotest.bool "nested NaN" true
    (Xdr.equal_value
       (Xdr.List [ Xdr.Real nan; Xdr.Int 1 ])
       (Xdr.List [ Xdr.Real nan; Xdr.Int 1 ]));
  check Alcotest.bool "NaN <> 1." false (Xdr.equal_value (Xdr.Real nan) (Xdr.Real 1.0));
  check Alcotest.bool "0. = -0." true (Xdr.equal_value (Xdr.Real 0.0) (Xdr.Real (-0.0)));
  check Alcotest.bool "Int <> Real" false (Xdr.equal_value (Xdr.Int 1) (Xdr.Real 1.0))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "wire_codec"
    [
      ( "codec",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_bit_exact;
          Alcotest.test_case "edge values" `Quick test_edge_values;
          Alcotest.test_case "deep nesting roundtrips" `Quick test_deep_nesting_roundtrips;
          Alcotest.test_case "excessive nesting rejected" `Quick test_excessive_nesting_rejected;
          Alcotest.test_case "promise-ref bad field marker rejected" `Quick
            test_pref_bad_field_marker_rejected;
          Alcotest.test_case "string interning compresses" `Quick test_string_interning_compresses;
        ] );
      ( "total decoding",
        [
          Alcotest.test_case "every truncation errors" `Quick test_truncated_returns_error;
          Alcotest.test_case "trailing garbage rejected" `Quick test_trailing_garbage_rejected;
          Alcotest.test_case "wrapped string ref rejected" `Quick test_wrapped_string_ref_rejected;
          QCheck_alcotest.to_alcotest prop_corruption_never_raises;
          QCheck_alcotest.to_alcotest prop_random_bytes_never_raise;
        ] );
      ( "packet frames",
        [
          Alcotest.test_case "packet roundtrips" `Quick test_packet_roundtrips;
          QCheck_alcotest.to_alcotest prop_packet_roundtrip;
          QCheck_alcotest.to_alcotest prop_send_path_is_encode_packet;
          QCheck_alcotest.to_alcotest prop_rewind_forgets;
          Alcotest.test_case "opening fields only at seq 0" `Quick
            test_opening_fields_only_at_seq_zero;
          Alcotest.test_case "garbage frames rejected" `Quick test_packet_garbage_rejected;
          Alcotest.test_case "other versions and tags refused" `Quick
            test_other_versions_and_tags_refused;
          Alcotest.test_case "every kind byte under versions 1-3" `Quick test_kind_byte_exhaustive;
          Alcotest.test_case "ack counts below 2 and overflowing uptos refused" `Quick
            test_ack_count_and_overflow_refused;
          Alcotest.test_case "hub frames decode alone" `Quick test_hub_frames_decode_alone;
          Alcotest.test_case "loadbench frames pinned" `Quick test_loadbench_frames_pinned;
          Alcotest.test_case "every hub frame starts with the version" `Quick
            test_hub_frames_start_with_version;
        ] );
      ( "adaptive wire",
        [
          Alcotest.test_case "piggybacking halves standalone acks" `Quick
            test_piggybacking_halves_standalone_acks;
          Alcotest.test_case "nagle: idle flush is immediate" `Quick
            test_nagle_first_item_flushes_immediately;
          Alcotest.test_case "nagle: coalesces under load" `Quick test_nagle_coalesces_under_load;
          Alcotest.test_case "nagle: idle flush ignores ack_delay" `Quick
            test_idle_flush_ignores_ack_delay;
          Alcotest.test_case "window bounds inflight bytes" `Quick
            test_window_backpressures_and_bounds_inflight;
          Alcotest.test_case "window waiters released on break" `Quick
            test_window_waiters_released_on_break;
          Alcotest.test_case "window preserves call order" `Quick
            test_stream_call_window_preserves_order;
          Alcotest.test_case "window charges the bytes on the wire" `Quick
            test_window_charges_wire_bytes;
        ] );
      ( "ack hold",
        [
          Alcotest.test_case "rpc reply acks ride the next call" `Quick
            test_rpc_reply_acks_ride_next_call;
          Alcotest.test_case "silent receiver acks in the delivery instant" `Quick
            test_silent_receiver_acks_same_instant;
          Alcotest.test_case "slow handler's call acked at delivery" `Quick
            test_slow_handler_acked_at_delivery;
          Alcotest.test_case "two channels, one ack frame" `Quick test_two_channels_one_ack_frame;
          Alcotest.test_case "peer down drops parked acks" `Quick
            test_peer_down_drops_parked_acks;
        ] );
      ( "compact channel names",
        [
          Alcotest.test_case "compact data for an unknown channel dropped" `Quick
            test_compact_for_unknown_channel_dropped;
          Alcotest.test_case "lost opening recovered by retransmit" `Quick
            test_lost_opening_recovered_by_retransmit;
          Alcotest.test_case "ack for an unknown idx ignored" `Quick
            test_ack_for_unknown_idx_ignored;
          Alcotest.test_case "ack past the last sent seq clamped" `Quick
            test_ack_past_sent_clamped;
          Alcotest.test_case "spoofed data neither delivered nor acked" `Quick
            test_spoofed_data_dropped;
          Alcotest.test_case "spoofed reset at the receiver ignored" `Quick
            (test_spoofed_reset_dropped (fun w -> w.node_b));
          Alcotest.test_case "spoofed reset at the sender ignored" `Quick
            (test_spoofed_reset_dropped (fun w -> w.node_a));
          Alcotest.test_case "third node reusing an idx opens its own end" `Quick
            test_third_node_opening_reusing_idx;
          Alcotest.test_case "idx past max_int lsr 2 refused" `Quick test_idx_past_range_refused;
          Alcotest.test_case "ack pressure 3 cuts an adaptive window" `Quick
            test_pressure_3_cuts_adaptive_window;
          Alcotest.test_case "opening truncated inside meta counted" `Quick
            test_truncated_opening_counted;
          Alcotest.test_case "stale compact data after reset answered" `Quick
            test_stale_compact_after_reset_answered;
          Alcotest.test_case "stateful frame dialect refused, unanswered" `Quick
            test_stateful_dialect_refused;
        ] );
      ( "lazy views",
        [
          QCheck_alcotest.to_alcotest prop_view_materialize_equiv;
          QCheck_alcotest.to_alcotest prop_view_navigation_equiv;
          QCheck_alcotest.to_alcotest prop_has_prefs_matches_tree;
          Alcotest.test_case "projection units" `Quick test_view_projection_units;
        ] );
      ( "packed int lists",
        [
          QCheck_alcotest.to_alcotest prop_packed_roundtrip;
          Alcotest.test_case "pinned bytes" `Quick test_packed_pinned_bytes;
          Alcotest.test_case "hostile counts and varints rejected" `Quick
            test_packed_hostile_rejected;
          Alcotest.test_case "views" `Quick test_packed_views;
        ] );
      ( "packed record lists",
        [
          QCheck_alcotest.to_alcotest prop_record_list_form;
          Alcotest.test_case "pinned bytes" `Quick test_records_pinned_bytes;
          Alcotest.test_case "hostile heads rejected" `Quick test_records_hostile_rejected;
          Alcotest.test_case "views" `Quick test_records_views;
        ] );
      ( "scalar widths",
        [
          Alcotest.test_case "pinned bytes" `Quick test_scalar_widths_pinned;
          Alcotest.test_case "hostile scalars rejected" `Quick test_scalar_hostile_rejected;
          Alcotest.test_case "sheet size and record bytes" `Quick test_sheet_pinned;
        ] );
      ( "differential decoding",
        [
          Alcotest.test_case "every mutation of the tag tour" `Quick test_tag_tour_mutations;
          QCheck_alcotest.to_alcotest prop_decoders_agree;
          Alcotest.test_case "every mutation of the golden frames" `Quick
            test_golden_frame_mutations;
          QCheck_alcotest.to_alcotest prop_frame_decoders_agree;
        ] );
      ( "golden wire",
        [
          Alcotest.test_case "E12 bytes" `Quick test_e12_golden_bytes;
          Alcotest.test_case "codec reference payload sizes" `Quick
            test_reference_payload_sizes;
        ] );
      ( "envelopes",
        [
          QCheck_alcotest.to_alcotest prop_call_envelope_roundtrip;
          Alcotest.test_case "reply round-trips, traced and untraced" `Quick
            test_reply_envelope_roundtrips;
          Alcotest.test_case "hostile envelopes rejected" `Quick test_hostile_envelopes_rejected;
          QCheck_alcotest.to_alcotest prop_reply_envelope_roundtrip;
          Alcotest.test_case "every mutation of the record envelopes" `Quick
            test_envelope_mutations;
          QCheck_alcotest.to_alcotest prop_envelope_parsers_agree;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "parse_call_view reads elements by position" `Quick
            test_call_elements_positional;
          Alcotest.test_case "parse_call_view rejects missing elements" `Quick
            test_call_missing_elements_rejected;
          Alcotest.test_case "equal_value handles NaN" `Quick test_equal_value_nan;
        ] );
      ( "port tables",
        [
          Alcotest.test_case "past the cap a define appends on neither end" `Quick
            test_port_table_cap;
          Alcotest.test_case "a bad port ref breaks only its channel" `Quick
            test_bad_port_ref_breaks_only_its_channel;
          Alcotest.test_case "a reused idx keeps port tables apart" `Quick
            test_reused_idx_keeps_port_tables_apart;
        ] );
    ]

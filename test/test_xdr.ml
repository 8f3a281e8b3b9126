(* Tests for the external data representation: codec round trips,
   combinators, sizing, and failure injection. *)

let check = Alcotest.check

let roundtrip codec v =
  match Xdr.encode codec v with
  | Error e -> Alcotest.failf "encode failed: %s" e
  | Ok enc -> (
      match Xdr.decode codec enc with
      | Error e -> Alcotest.failf "decode failed: %s" e
      | Ok v' -> v')

let test_primitives_roundtrip () =
  check Alcotest.unit "unit" () (roundtrip Xdr.unit ());
  check Alcotest.bool "bool" true (roundtrip Xdr.bool true);
  check Alcotest.int "int" (-42) (roundtrip Xdr.int (-42));
  check (Alcotest.float 0.0) "real" 3.25 (roundtrip Xdr.real 3.25);
  check Alcotest.string "string" "héllo\nworld" (roundtrip Xdr.string "héllo\nworld")

let test_combinators_roundtrip () =
  check Alcotest.(pair int string) "pair" (1, "x") (roundtrip Xdr.(pair int string) (1, "x"));
  check Alcotest.(list int) "list" [ 1; 2; 3 ] (roundtrip Xdr.(list int) [ 1; 2; 3 ]);
  check Alcotest.(list int) "empty list" [] (roundtrip Xdr.(list int) []);
  check Alcotest.(array bool) "array" [| true; false |]
    (roundtrip Xdr.(array bool) [| true; false |]);
  check Alcotest.(option int) "some" (Some 5) (roundtrip Xdr.(option int) (Some 5));
  check Alcotest.(option int) "none" None (roundtrip Xdr.(option int) None);
  check Alcotest.(result int string) "ok" (Ok 1) (roundtrip Xdr.(result int string) (Ok 1));
  check Alcotest.(result int string) "error" (Error "e")
    (roundtrip Xdr.(result int string) (Error "e"))

let test_triple_and_records () =
  let c3 = Xdr.(triple int string bool) in
  check Alcotest.bool "triple" true (roundtrip c3 (1, "a", true) = (1, "a", true));
  let rc3 = Xdr.(record3 "p3" ("a", int) ("b", string) ("c", real)) in
  check Alcotest.bool "record3" true (roundtrip rc3 (1, "b", 2.5) = (1, "b", 2.5))

let test_conv () =
  (* a codec for a custom sum type via conv_partial *)
  let parity =
    Xdr.conv_partial "parity"
      (fun p -> Ok (match p with `Even -> 0 | `Odd -> 1))
      (function 0 -> Ok `Even | 1 -> Ok `Odd | n -> Error (string_of_int n))
      Xdr.int
  in
  check Alcotest.bool "conv roundtrip" true (roundtrip parity `Odd = `Odd);
  match Xdr.decode parity (Xdr.Int 7) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "partial decode should fail on 7"

let test_type_errors_reported () =
  (match Xdr.decode Xdr.int (Xdr.Str "nope") with
  | Error msg -> check Alcotest.bool "mentions expectation" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "wrong shape accepted");
  match Xdr.decode Xdr.(list int) (Xdr.List [ Xdr.Int 1; Xdr.Bool true ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "heterogeneous list accepted"

let test_failing_encode_every () =
  let c = Xdr.failing_encode ~every:3 Xdr.int in
  let results = List.init 6 (fun i -> Result.is_ok (Xdr.encode c i)) in
  check Alcotest.(list bool) "every third fails" [ true; true; false; true; true; false ]
    results

let test_failing_decode_every () =
  let c = Xdr.failing_decode ~every:2 ~reason:"boom" Xdr.int in
  let results = List.init 4 (fun _ -> Result.is_ok (Xdr.decode c (Xdr.Int 1))) in
  check Alcotest.(list bool) "every second fails" [ true; false; true; false ] results

let test_pp_value () =
  let s = Format.asprintf "%a" Xdr.pp_value (Xdr.Record [ ("a", Xdr.Int 1) ]) in
  check Alcotest.bool "prints" true (String.length s > 0)

let prop_int_roundtrip =
  QCheck.Test.make ~name:"int codec roundtrips" ~count:500 QCheck.int (fun i ->
      roundtrip Xdr.int i = i)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"string codec roundtrips" ~count:200
    QCheck.(string_gen_of_size (Gen.int_range 0 64) Gen.printable)
    (fun s -> roundtrip Xdr.string s = s)

let prop_nested_roundtrip =
  QCheck.Test.make ~name:"nested structures roundtrip" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 10)
              (pair small_int (list_of_size (Gen.int_range 0 5) small_string)))
    (fun v ->
      let codec = Xdr.(list (pair int (list string))) in
      roundtrip codec v = v)

(* Typed int lists ride the packed Bin encoding (docs/WIRE.md §1): the
   typed layer must not notice. *)
let bin_roundtrip codec x =
  match Xdr.encode codec x with
  | Error e -> Alcotest.failf "encode failed: %s" e
  | Ok v -> (
      let s = Xdr.Bin.to_string v in
      match Xdr.Bin.of_string s with
      | Error e -> Alcotest.failf "Bin decode failed: %s" e
      | Ok v' -> (
          match Xdr.decode codec v' with
          | Ok x' -> x'
          | Error e -> Alcotest.failf "typed decode failed: %s" e))

let prop_int_lists_over_bin =
  QCheck.Test.make ~name:"typed int lists roundtrip through Bin" ~count:300
    QCheck.(list_of_size (Gen.int_range 0 6) (pair int (list_of_size (Gen.int_range 0 8) int)))
    (fun v ->
      let codec = Xdr.(list (pair int (list int))) in
      bin_roundtrip codec v = v
      && bin_roundtrip Xdr.(list int) (List.concat_map snd v) = List.concat_map snd v
      && bin_roundtrip Xdr.(option (array int)) (Some (Array.of_list (List.map fst v)))
         = Some (Array.of_list (List.map fst v)))

let suite =
  [
    ( "codecs",
      [
        Alcotest.test_case "primitives roundtrip" `Quick test_primitives_roundtrip;
        Alcotest.test_case "combinators roundtrip" `Quick test_combinators_roundtrip;
        Alcotest.test_case "triple and records" `Quick test_triple_and_records;
        Alcotest.test_case "conv / conv_partial" `Quick test_conv;
        Alcotest.test_case "type errors reported" `Quick test_type_errors_reported;
        QCheck_alcotest.to_alcotest prop_int_roundtrip;
        QCheck_alcotest.to_alcotest prop_string_roundtrip;
        QCheck_alcotest.to_alcotest prop_nested_roundtrip;
        QCheck_alcotest.to_alcotest prop_int_lists_over_bin;
      ] );
    ( "failure-injection",
      [
        Alcotest.test_case "failing encode" `Quick test_failing_encode_every;
        Alcotest.test_case "failing decode" `Quick test_failing_decode_every;
        Alcotest.test_case "pp" `Quick test_pp_value;
      ] );
  ]

let () = Alcotest.run "xdr" suite

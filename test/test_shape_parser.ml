(* The shape-notation parser: golden cases and the print/parse round-trip
   property over the full (practical) shape algebra obtained by
   inference. *)

module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
module SP = Fsdata_core.Shape_parser
module Infer = Fsdata_core.Infer
open Generators

let tc = Alcotest.test_case
let check = Alcotest.check

let parses src expected () =
  match SP.parse_result src with
  | Ok s -> check shape_testable src expected s
  | Error e -> Alcotest.fail e

let rejects src () =
  match SP.parse_result src with
  | Error _ -> ()
  | Ok s -> Alcotest.failf "%S parsed to %a" src Shape.pp s

let int_ = Shape.Primitive Shape.Int

let test_golden () =
  List.iter
    (fun (src, expected) ->
      match SP.parse_result src with
      | Ok s -> check shape_testable src expected s
      | Error e -> Alcotest.fail e)
    [
      ("int", int_);
      (" float ", Shape.Primitive Shape.Float);
      ("null", Shape.Null);
      ("bot", Shape.Bottom);
      ("_|_", Shape.Bottom);
      ("\xe2\x8a\xa5", Shape.Bottom);
      ("nullable int", Shape.Nullable int_);
      ("any", Shape.any);
      ("any<int, bool>", Shape.top [ int_; Shape.Primitive Shape.Bool ]);
      ( "any\xe2\x9f\xa8int, bool\xe2\x9f\xa9",
        Shape.top [ int_; Shape.Primitive Shape.Bool ] );
      ("[int]", Shape.collection int_);
      ("[\xe2\x8a\xa5]", Shape.collection Shape.Bottom);
      ("[]", Shape.collection Shape.Bottom);
      ( "[int, 1 | string, *]",
        Shape.hetero
          [ (int_, Mult.Single); (Shape.Primitive Shape.String, Mult.Multiple) ] );
      ( "[int, 1?]",
        Shape.hetero [ (int_, Mult.Optional_single) ] );
      ("p {x: int}", Shape.record "p" [ ("x", int_) ]);
      ("p {}", Shape.record "p" []);
      ( "{name: string}",
        Shape.record Fsdata_data.Data_value.json_record_name
          [ ("name", Shape.Primitive Shape.String) ] );
      ( "\xe2\x80\xa2 {name: string}",
        Shape.record Fsdata_data.Data_value.json_record_name
          [ ("name", Shape.Primitive Shape.String) ] );
      ( "doc {\xe2\x80\xa2: [heading {\xe2\x80\xa2: string}]}",
        Shape.record "doc"
          [
            ( Fsdata_data.Data_value.body_field,
              Shape.collection
                (Shape.record "heading"
                   [ (Fsdata_data.Data_value.body_field, Shape.Primitive Shape.String) ]) );
          ] );
    ]

let test_rejects () =
  List.iter
    (fun src -> rejects src ())
    [
      ""; "intx"; "nullable null"; "nullable [int]"; "[int"; "p {x}";
      "p {x: }"; "any<"; "int ]"; "[int, 2]"; "p {x: int, x: int}";
    ]

let test_nested_example () =
  parses "[\xe2\x80\xa2 {pages: int}, 1 | [\xe2\x80\xa2 {value: nullable float}], 1]"
    (Shape.hetero
       [
         ( Shape.record Fsdata_data.Data_value.json_record_name
             [ ("pages", int_) ],
           Mult.Single );
         ( Shape.collection
             (Shape.record Fsdata_data.Data_value.json_record_name
                [ ("value", Shape.Nullable (Shape.Primitive Shape.Float)) ]),
           Mult.Single );
       ])
    ()

let prop_roundtrip_core =
  QCheck2.Test.make ~name:"parse (to_string s) = s (core shapes)" ~count:400
    ~print:print_shape gen_core_shape (fun s ->
      match SP.parse_result (Shape.to_string s) with
      | Ok s' -> Shape.equal s s'
      | Error _ -> false)

let prop_roundtrip_inferred =
  QCheck2.Test.make
    ~name:"parse (to_string (S d)) = S d (practical shapes)" ~count:400
    ~print:print_data gen_data (fun d ->
      let s = Infer.shape_of_value ~mode:`Practical d in
      match SP.parse_result (Shape.to_string s) with
      | Ok s' -> Shape.equal s s'
      | Error _ -> false)

(* [to_string] is a direct printer; [pp] through Format is its oracle. *)
let prop_to_string_is_pp =
  QCheck2.Test.make ~name:"to_string s = Fmt.str \"%a\" pp s" ~count:2000
    ~print:print_shape gen_layout_shape (fun s ->
      String.equal (Shape.to_string s) (Fmt.str "%a" Shape.pp s))

let suite =
  [
    tc "golden cases" `Quick test_golden;
    tc "rejected inputs" `Quick test_rejects;
    tc "nested worldbank-style shape" `Quick test_nested_example;
    QCheck_alcotest.to_alcotest prop_roundtrip_core;
    QCheck_alcotest.to_alcotest prop_roundtrip_inferred;
    QCheck_alcotest.to_alcotest prop_to_string_is_pp;
  ]

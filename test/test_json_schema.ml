(* JSON Schema export: golden cases plus the acceptance guarantee —
   whenever hasShape(S(d), d) holds, the exported schema accepts the
   (normalized) document. The suite includes a miniature validator for the
   draft-07 subset the exporter emits. *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
module Js = Fsdata_codegen.Json_schema
module Infer = Fsdata_core.Infer
open Generators

let tc = Alcotest.test_case
let check = Alcotest.check

(* ----- a validator for the emitted subset ----- *)

let field name (s : Dv.t) =
  match s with Dv.Record (_, fs) -> List.assoc_opt name fs | _ -> None

let rec validate (schema : Dv.t) (d : Dv.t) : bool =
  match schema with
  | Dv.Bool b -> b (* true/false schemas *)
  | Dv.Record _ -> (
      (match field "enum" schema with
      | Some (Dv.List allowed) -> List.exists (Dv.equal d) allowed
      | _ -> true)
      && (match field "anyOf" schema with
         | Some (Dv.List cases) -> List.exists (fun c -> validate c d) cases
         | _ -> true)
      && (match field "type" schema with
         | Some (Dv.String t) -> check_type t d
         | _ -> true)
      &&
      match (field "properties" schema, d) with
      | Some (Dv.Record (_, props)), Dv.Record (_, fields) ->
          List.for_all
            (fun (name, sub) ->
              match List.assoc_opt name fields with
              | Some v -> validate sub v
              | None -> true)
            props
          &&
          (match field "required" schema with
          | Some (Dv.List req) ->
              List.for_all
                (function
                  | Dv.String name -> List.mem_assoc name fields
                  | _ -> false)
                req
          | _ -> true)
      | Some _, _ -> true (* properties only constrain objects *)
      | None, _ -> (
          match (field "items" schema, d) with
          | Some sub, Dv.List items -> List.for_all (validate sub) items
          | _ -> true))
  | _ -> false

and check_type t (d : Dv.t) =
  match (t, d) with
  | "null", Dv.Null
  | "boolean", Dv.Bool _
  | "integer", Dv.Int _
  | "number", (Dv.Int _ | Dv.Float _)
  | "string", Dv.String _
  | "object", Dv.Record _
  | "array", Dv.List _ ->
      true
  | _ -> false

(* ----- golden cases ----- *)

let test_primitives () =
  let s shape = Fsdata_data.Json.to_string (Js.of_shape shape) in
  check Alcotest.string "int" {|{"$schema":"http://json-schema.org/draft-07/schema#","type":"integer"}|}
    (s (Shape.Primitive Shape.Int));
  check Alcotest.string "date"
    {|{"$schema":"http://json-schema.org/draft-07/schema#","type":"string","format":"date-time"}|}
    (s (Shape.Primitive Shape.Date));
  check Alcotest.string "bottom rejects" "false" (s Shape.Bottom);
  check Alcotest.string "any accepts"
    {|{"$schema":"http://json-schema.org/draft-07/schema#"}|}
    (s Shape.any)

let test_record_required () =
  let shape =
    Shape.record Dv.json_record_name
      [ ("name", Shape.Primitive Shape.String);
        ("age", Shape.Nullable (Shape.Primitive Shape.Float)) ]
  in
  let schema = Js.of_shape shape in
  (match field "required" schema with
  | Some (Dv.List [ Dv.String "name" ]) -> ()
  | _ -> Alcotest.fail "only the non-nullable field is required");
  check Alcotest.bool "accepts the full record" true
    (validate schema
       (Dv.Record (Dv.json_record_name, [ ("name", Dv.String "x"); ("age", Dv.Float 1.) ])));
  check Alcotest.bool "accepts without the optional field" true
    (validate schema (Dv.Record (Dv.json_record_name, [ ("name", Dv.String "x") ])));
  check Alcotest.bool "rejects without the required field" false
    (validate schema (Dv.Record (Dv.json_record_name, [ ("age", Dv.Float 1.) ])));
  check Alcotest.bool "rejects ill-typed field" false
    (validate schema (Dv.Record (Dv.json_record_name, [ ("name", Dv.Int 3) ])))

let test_collections () =
  let homog = Js.of_shape (Shape.collection (Shape.Primitive Shape.Int)) in
  check Alcotest.bool "array of ints ok" true
    (validate homog (Dv.List [ Dv.Int 1; Dv.Int 2 ]));
  check Alcotest.bool "string element rejected" false
    (validate homog (Dv.List [ Dv.String "x" ]));
  let hetero =
    Js.of_shape
      (Shape.hetero
         [ (Shape.Primitive Shape.Int, Mult.Single);
           (Shape.Primitive Shape.String, Mult.Multiple) ])
  in
  check Alcotest.bool "known cases ok" true
    (validate hetero (Dv.List [ Dv.Int 1; Dv.String "x" ]));
  check Alcotest.bool "unknown tags allowed (open world)" true
    (validate hetero (Dv.List [ Dv.Bool true ]))

(* bit ⊔ bool = bool, and data of a bool shape may hold 0/1 (the
   conformance check admits them); a field mixing "0" with false infers
   to bool and normalizes "0" to the int 0 *)
let test_bool_admits_bits () =
  let d =
    Dv.List
      [
        Dv.Record (Dv.json_record_name, [ ("a", Dv.String "0") ]);
        Dv.Record (Dv.json_record_name, [ ("a", Dv.Bool false) ]);
      ]
  in
  let shape = Infer.shape_of_value ~mode:`Practical d in
  let d' = Fsdata_data.Primitive.normalize d in
  check Alcotest.string "the field is a bool" "[\xe2\x80\xa2 {a: bool}]"
    (Shape.to_string shape);
  check Alcotest.bool "conforms" true (Fsdata_core.Shape_check.has_shape shape d');
  check Alcotest.bool "the schema accepts it" true (validate (Js.of_shape shape) d');
  let bool_schema = Js.of_shape (Shape.Primitive Shape.Bool) in
  List.iter
    (fun (name, v, ok) -> check Alcotest.bool name ok (validate bool_schema v))
    [
      ("true", Dv.Bool true, true);
      ("0", Dv.Int 0, true);
      ("1", Dv.Int 1, true);
      ("2", Dv.Int 2, false);
      ("a string", Dv.String "0", false);
    ];
  let nullable = Js.of_shape (Shape.Nullable (Shape.Primitive Shape.Bool)) in
  List.iter
    (fun (name, v, ok) ->
      check Alcotest.bool ("nullable: " ^ name) ok (validate nullable v))
    [ ("null", Dv.Null, true); ("0", Dv.Int 0, true); ("2", Dv.Int 2, false) ]

(* ----- the acceptance guarantee ----- *)

let prop_schema_accepts =
  QCheck2.Test.make
    ~name:"schema of S(d) accepts the (normalized) document" ~count:300
    ~print:print_data gen_data (fun d ->
      let shape = Infer.shape_of_value ~mode:`Practical d in
      let d' = Fsdata_data.Primitive.normalize d in
      (* sanity: the shape accepts its own document *)
      (not (Fsdata_core.Shape_check.has_shape shape d'))
      || validate (Js.of_shape shape) d')

let prop_schema_paper_mode =
  QCheck2.Test.make ~name:"schema acceptance, paper-mode shapes" ~count:300
    ~print:print_data gen_plain_data (fun d ->
      let shape = Infer.shape_of_value ~mode:`Paper d in
      validate (Js.of_shape shape) d)

let suite =
  [
    tc "primitive schemas" `Quick test_primitives;
    tc "record required/optional fields" `Quick test_record_required;
    tc "collection schemas" `Quick test_collections;
    tc "bool admits 0 and 1" `Quick test_bool_admits_bits;
    QCheck_alcotest.to_alcotest prop_schema_accepts;
    QCheck_alcotest.to_alcotest prop_schema_paper_mode;
  ]

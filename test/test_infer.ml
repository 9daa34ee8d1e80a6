(* Shape inference from samples (Figure 3) and the format entry points.

   Covers every equation of S(·), the worked examples of Sections 1, 2.1,
   2.2, 2.3 and 6.2, multi-sample folding, and inference properties
   (specificity, permutation stability, csh consistency). *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
module Infer = Fsdata_core.Infer
module Csh = Fsdata_core.Csh
module P = Fsdata_core.Preference
open Generators

let tc = Alcotest.test_case
let check = Alcotest.check

let int_ = Shape.Primitive Shape.Int
let float_ = Shape.Primitive Shape.Float
let bool_ = Shape.Primitive Shape.Bool
let string_ = Shape.Primitive Shape.String
let s_paper = Infer.shape_of_value ~mode:`Paper
let s_prac = Infer.shape_of_value ~mode:`Practical
let eq name expected actual = check shape_testable name expected actual

(* Figure 3, primitive equations. *)
let test_s_primitives () =
  eq "S(i) = int" int_ (s_paper (Dv.Int 42));
  eq "S(f) = float" float_ (s_paper (Dv.Float 1.5));
  eq "S(true) = bool" bool_ (s_paper (Dv.Bool true));
  eq "S(false) = bool" bool_ (s_paper (Dv.Bool false));
  eq "S(s) = string" string_ (s_paper (Dv.String "2012"));
  eq "S(null) = null" Shape.Null (s_paper Dv.Null)

let test_s_practical_strings () =
  eq "practical: \"2012\" is int" int_ (s_prac (Dv.String "2012"));
  eq "practical: \"35.14\" is float" float_ (s_prac (Dv.String "35.14"));
  eq "practical: \"true\" is bool" bool_ (s_prac (Dv.String "true"));
  eq "practical: \"0\" is bit0" (Shape.Primitive Shape.Bit0) (s_prac (Dv.String "0"));
  eq "practical: \"1\" is bit1" (Shape.Primitive Shape.Bit1) (s_prac (Dv.String "1"));
  eq "practical: date string" (Shape.Primitive Shape.Date)
    (s_prac (Dv.String "2012-05-01"));
  eq "practical: missing marker is null" Shape.Null (s_prac (Dv.String "#N/A"));
  eq "practical: text is string" string_ (s_prac (Dv.String "hello"));
  eq "practical: ints stay int" int_ (s_prac (Dv.Int 1))

let test_s_records () =
  eq "record fields inferred"
    (Shape.record "p" [ ("x", int_); ("y", Shape.Null) ])
    (s_paper (Dv.Record ("p", [ ("x", Dv.Int 1); ("y", Dv.Null) ])))

let test_s_collections_paper () =
  eq "S([]) = [⊥]" (Shape.collection Shape.Bottom) (s_paper (Dv.List []));
  eq "S([1;2]) = [int]" (Shape.collection int_)
    (s_paper (Dv.List [ Dv.Int 1; Dv.Int 2 ]));
  eq "S([1;2.5]) = [float]" (Shape.collection float_)
    (s_paper (Dv.List [ Dv.Int 1; Dv.Float 2.5 ]));
  eq "S([1;null]) = [nullable int]"
    (Shape.collection (Shape.Nullable int_))
    (s_paper (Dv.List [ Dv.Int 1; Dv.Null ]));
  eq "S([1;true]) = [any⟨int,bool⟩]"
    (Shape.collection (Shape.top [ int_; bool_ ]))
    (s_paper (Dv.List [ Dv.Int 1; Dv.Bool true ]))

let test_s_collections_hetero () =
  eq "hetero: counts give multiplicities"
    (Shape.hetero [ (int_, Mult.Multiple); (string_, Mult.Single) ])
    (s_prac (Dv.List [ Dv.Int 1; Dv.String "xyz z"; Dv.Int 2 ]));
  eq "hetero: null elements get their own entry"
    (Shape.hetero [ (Shape.Null, Mult.Single); (int_, Mult.Single) ])
    (s_prac (Dv.List [ Dv.Int 1; Dv.Null ]));
  eq "hetero: same-tag shapes join"
    (Shape.collection float_)
    (s_prac (Dv.List [ Dv.Int 1; Dv.Float 2.5 ]))

let test_multi_sample () =
  let d1 = Dv.Record ("p", [ ("x", Dv.Int 1) ]) in
  let d2 = Dv.Record ("p", [ ("x", Dv.Float 2.5); ("y", Dv.Bool true) ]) in
  eq "S(d1,d2) folds csh"
    (Shape.record "p" [ ("x", float_); ("y", Shape.nullable bool_) ])
    (Infer.shape_of_samples ~mode:`Paper [ d1; d2 ]);
  eq "empty sample list is bottom" Shape.Bottom (Infer.shape_of_samples []);
  eq "single sample" (s_paper d1) (Infer.shape_of_samples ~mode:`Paper [ d1 ])

(* ----- the paper's worked examples ----- *)

let ok = function Ok s -> s | Error e -> Alcotest.fail e

let test_people_json () =
  let people =
    {|[ { "name":"Jan", "age":25 },
        { "name":"Tomas" },
        { "name":"Alexander", "age":3.5 } ]|}
  in
  eq "Section 2.1: name string, age optional float"
    (Shape.collection
       (Shape.record Dv.json_record_name
          [ ("name", string_); ("age", Shape.Nullable float_) ]))
    (ok (Infer.of_json people))

let test_worldbank_json () =
  let wb =
    {|[ { "pages": 5 },
        [ { "indicator": "GC.DOD.TOTL.GD.ZS", "date": "2012", "value": null },
          { "indicator": "GC.DOD.TOTL.GD.ZS", "date": "2010", "value": "35.14229" } ] ]|}
  in
  eq "Section 2.3: heterogeneous collection with multiplicities"
    (Shape.hetero
       [
         (Shape.record Dv.json_record_name [ ("pages", int_) ], Mult.Single);
         ( Shape.collection
             (Shape.record Dv.json_record_name
                [
                  ("indicator", string_);
                  ("date", int_);
                  ("value", Shape.Nullable float_);
                ]),
           Mult.Single );
       ])
    (ok (Infer.of_json wb))

let test_xml_doc () =
  let xml =
    {|<doc>
        <heading>Intro</heading>
        <p>Text</p>
        <heading>More</heading>
        <image source="xml.png"/>
      </doc>|}
  in
  let heading = Shape.record "heading" [ (Dv.body_field, string_) ] in
  let p = Shape.record "p" [ (Dv.body_field, string_) ] in
  let image = Shape.record "image" [ ("source", string_) ] in
  eq "Section 2.2: body is a collection of the labelled top"
    (Shape.record "doc"
       [
         ( Dv.body_field,
           Shape.hetero [ (Shape.top [ heading; image; p ], Mult.Multiple) ] );
       ])
    (ok (infer_strict Xml (String xml)))

let test_xml_global_attr () =
  eq "Section 6.2: root {id ↦ 1, • ↦ [item]}"
    (Shape.record "root"
       [
         ("id", Shape.Primitive Shape.Bit1);
         ( Dv.body_field,
           Shape.hetero
             [ (Shape.record "item" [ (Dv.body_field, string_) ], Mult.Single) ]
         );
       ])
    (ok (infer_strict Xml (String {|<root id="1"><item>Hello!</item></root>|})))

let test_csv_ozone () =
  let csv =
    "Ozone, Temp, Date, Autofilled\n\
     41, 67, 2012-05-01, 0\n\
     36.3, 72, 2012-05-02, 1\n\
     12.1, 74, 3 kveten, 0\n\
     17.5, #N/A, 2012-05-04, 0\n"
  in
  eq "Section 6.2: ozone CSV"
    (Shape.collection
       (Shape.record Dv.csv_record_name
          [
            ("Ozone", float_);
            ("Temp", Shape.Nullable int_);
            ("Date", string_);
            ("Autofilled", Shape.Primitive Shape.Bit);
          ]))
    (ok (infer_strict Csv (String csv)))

(* The inference mode is a JSON setting: XML always folds in [`Xml]
   mode and a CSV table in [`Practical]. *)
let test_mode_applies_to_json_only () =
  let result = Alcotest.(result shape_testable string) in
  List.iter
    (fun (format, text) ->
      let expect = infer_strict format (Infer.String text) in
      List.iter
        (fun mode ->
          Alcotest.check result "the caller's mode is ignored" expect
            (infer_strict ~mode format (String text)))
        [ `Paper; `Practical; `Xml ])
    [
      (Infer.Csv, "a,b\n1,x\n2,2012-05-01\n");
      (Xml, {|<root id="1"><item>2</item><item>x</item></root>|});
    ]

let test_format_errors () =
  (match Infer.of_json "{ bad" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad json accepted");
  (match infer_strict Xml (String "<a><b></a>") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad xml accepted");
  match Infer.of_json "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty json accepted"

(* ----- properties ----- *)

let prop_sample_preferred =
  QCheck2.Test.make
    ~name:"S(di) \xe2\x8a\x91 S(d1..dn) (samples conform to the merged shape)"
    ~count:300
    ~print:(fun ds -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 4) gen_plain_data)
    (fun ds ->
      let merged = Infer.shape_of_samples ~mode:`Paper ds in
      List.for_all
        (fun d -> P.is_preferred (Infer.shape_of_value ~mode:`Paper d) merged)
        ds)

let prop_permutation_stable =
  QCheck2.Test.make ~name:"inference is order-independent" ~count:300
    ~print:(fun ds -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 4) gen_plain_data)
    (fun ds ->
      let s1 = Infer.shape_of_samples ~mode:`Paper ds in
      let s2 = Infer.shape_of_samples ~mode:`Paper (List.rev ds) in
      P.is_preferred s1 s2 && P.is_preferred s2 s1)

let prop_matches_fold =
  QCheck2.Test.make ~name:"shape_of_samples = csh fold" ~count:300
    ~print:(fun ds -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 4) gen_plain_data)
    (fun ds ->
      Shape.equal
        (Infer.shape_of_samples ~mode:`Paper ds)
        (Csh.csh_all ~mode:`Core
           (List.map (Infer.shape_of_value ~mode:`Paper) ds)))

let prop_has_shape_self =
  QCheck2.Test.make ~name:"d has shape S(d)" ~count:300 ~print:print_data
    gen_plain_data (fun d ->
      Fsdata_core.Shape_check.has_shape (Infer.shape_of_value ~mode:`Paper d) d)

let prop_practical_preferred_paper =
  QCheck2.Test.make
    ~name:"paper-mode shape bounds practical-mode shape on plain data"
    ~count:300 ~print:print_data gen_plain_data (fun d ->
      (* On data whose strings are plain text, the practical shape only
         refines collections; both agree on conformance of d itself. *)
      Fsdata_core.Shape_check.has_shape (Infer.shape_of_value ~mode:`Practical d) d)

(* ----- the absorbing fold ----- *)

let modes : Infer.mode list = [ `Paper; `Practical; `Xml ]

let string_of_mode = function
  | `Paper -> "paper"
  | `Practical -> "practical"
  | `Xml -> "xml"

let gen_leaf =
  QCheck2.Gen.(
    oneof
      [
        return Dv.Null;
        (bool >|= fun b -> Dv.Bool b);
        (int_range (-1000) 1000 >|= fun i -> Dv.Int i);
        (float_range (-1e6) 1e6 >|= fun f -> Dv.Float f);
        (gen_string_literal >|= fun s -> Dv.String s);
      ])

(* A document related to [d]: mostly [d] itself, with a leaf replaced
   by another literal here, a record field dropped or a collection
   element repeated or dropped there. Folding a few variants of one
   document and asking about another absorbs about half the time. *)
let rec gen_variant (d : Dv.t) : Dv.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  match d with
  | Record (name, fields) ->
      let+ fields =
        flatten_l
          (List.map
             (fun (n, v) ->
               frequency
                 [ (8, map (fun v -> Some (n, v)) (gen_variant v)); (1, return None) ])
             fields)
      in
      Dv.Record (name, List.filter_map Fun.id fields)
  | List ds ->
      let* ds = flatten_l (List.map gen_variant ds) in
      frequency
        [
          (3, return (Dv.List ds));
          (1, return (Dv.List (ds @ List.filteri (fun i _ -> i = 0) ds)));
          (1, return (Dv.List (List.filteri (fun i _ -> i > 0) ds)));
        ]
  | Null | Bool _ | Int _ | Float _ | String _ ->
      frequency [ (12, return d); (1, gen_leaf) ]

(* a base document, the variants folded into σ, and the one asked about *)
let gen_fold_case =
  let open QCheck2.Gen in
  let* base = gen_data in
  let* folded = list_size (int_range 0 3) (gen_variant base) in
  let+ d = gen_variant base in
  (base :: folded, d)

let print_fold_case (ds, d) =
  String.concat " ; " (List.map print_data ds) ^ " / " ^ print_data d

(* [absorbs_value] against its definition: the join leaves σ as it is,
   representation included; whenever it holds, so does [Csh.absorbs],
   which compares with [Shape.equal] *)
let absorbs_value_exact ~mode ds d =
  let sigma = Infer.shape_of_samples ~mode ds in
  let delta = Infer.shape_of_value ~mode d in
  let expected =
    String.equal
      (Shape.to_string (Csh.csh ~mode:(Infer.csh_mode mode) sigma delta))
      (Shape.to_string sigma)
  in
  let absorbed = Infer.absorbs_value ~mode (Csh.index sigma) d in
  ( absorbed = expected
    && ((not absorbed) || Csh.absorbs ~mode:(Infer.csh_mode mode) sigma delta),
    expected )

let prop_absorbs_value =
  QCheck2.Test.make
    ~name:"absorbs_value idx d iff csh sigma S(d) is sigma, all modes"
    ~count:1000 ~print:print_fold_case gen_fold_case (fun (ds, d) ->
      List.for_all (fun mode -> fst (absorbs_value_exact ~mode ds d)) modes)

(* csh keeps its left operand's field order, so a join equal to σ is σ
   itself: two nullable records meet below a core-mode collection here,
   and σ's field order survives the join, both walks and the fold. *)
let test_absorbs_value_field_order () =
  let json = Fsdata_data.Json.parse in
  let d1 = json {|[null, {"x": 1, "y": 2, "z": 3}, {"x": 1, "z": 3}]|} in
  let d2 = json {|[null, {"x": 1, "z": 3}]|} in
  let sigma = Infer.shape_of_samples ~mode:`Paper [ d1 ] in
  let delta = Infer.shape_of_value ~mode:`Paper d2 in
  check Alcotest.bool "Csh.absorbs" true (Csh.absorbs ~mode:`Core sigma delta);
  check Alcotest.string "the join is σ, field order included"
    (Shape.to_string sigma)
    (Shape.to_string (Csh.csh ~mode:`Core sigma delta));
  check Alcotest.bool "absorbs_value accepts it" true
    (Infer.absorbs_value ~mode:`Paper (Csh.index sigma) d2);
  check Alcotest.bool "the token walk: a second element against a nullable record" true
    (Infer.absorbs_json ~mode:`Paper (Csh.index sigma) (Fsdata_data.Json.to_string d2));
  check Alcotest.string "the fold keeps σ's field order"
    "[nullable \xe2\x80\xa2 {x: int, y: nullable int, z: int}]"
    (Shape.to_string (Infer.shape_of_samples ~mode:`Paper [ d1; d2 ]));
  check Alcotest.string "as the S(d)-then-csh fold does"
    (Shape.to_string (Infer_oracle.shape_of_samples ~mode:`Paper [ d1; d2 ]))
    (Shape.to_string (Infer.shape_of_samples ~mode:`Paper [ d1; d2 ]))

(* the generator keeps both answers common, so the property above
   tests each direction *)
let test_fold_cases_balanced () =
  let rand = Random.State.make [| 17 |] in
  let cases = QCheck2.Gen.generate ~rand ~n:600 gen_fold_case in
  List.iter
    (fun mode ->
      let absorbed =
        List.length
          (List.filter (fun (ds, d) -> snd (absorbs_value_exact ~mode ds d)) cases)
      in
      let share = float_of_int absorbed /. 600. in
      if share < 0.25 || share > 0.75 then
        Alcotest.failf "%s: %.0f%% of the cases absorb" (string_of_mode mode)
          (100. *. share))
    modes

let test_absorbs_value_examples () =
  let sigma =
    Shape.record "row"
      [
        ("a", int_);
        ("s", string_);
        ("o", Shape.Nullable (Shape.record "in" [ ("x", bool_) ]));
      ]
  in
  let idx = Csh.index sigma in
  let row fields = Dv.Record ("row", fields) in
  let yes name d = check Alcotest.bool name true (Infer.absorbs_value idx d) in
  let no name d = check Alcotest.bool name false (Infer.absorbs_value idx d) in
  yes "bit under int, date under string, optional record absent"
    (row [ ("a", Dv.String "1"); ("s", Dv.String "2012-05-01") ]);
  yes "nested record through its own table"
    (row [ ("s", Dv.String "x"); ("a", Dv.Int 3); ("o", Dv.Record ("in", [ ("x", Dv.Bool true) ])) ]);
  no "a number under string" (row [ ("a", Dv.Int 1); ("s", Dv.String "12") ]);
  no "a missing marker under string" (row [ ("a", Dv.Int 1); ("s", Dv.String "#N/A") ]);
  no "required field absent" (row [ ("s", Dv.String "x") ]);
  no "nested field grows"
    (row [ ("a", Dv.Int 3); ("s", Dv.String "x"); ("o", Dv.Record ("in", [ ("y", Dv.Int 1) ])) ]);
  (* a repeated name makes S raise; the walk must not absorb it *)
  let dup = row [ ("a", Dv.Int 1); ("a", Dv.Int 2); ("s", Dv.String "x") ] in
  no "a repeated field name" dup;
  match Infer.shape_of_value dup with
  | _ -> Alcotest.fail "S accepted a repeated field name"
  | exception Invalid_argument _ -> ()

let print_samples ds = String.concat " ; " (List.map print_data ds)

(* the new fold against the old one kept in Infer_oracle, byte for byte *)
let same_bytes ~mode ds =
  String.equal
    (Shape.to_string (Infer.shape_of_samples ~mode ds))
    (Shape.to_string (Infer_oracle.shape_of_samples ~mode ds))

let prop_fold_matches_oracle =
  QCheck2.Test.make
    ~name:"shape_of_samples renders as the S(d)-then-csh fold, all modes"
    ~count:600 ~print:print_samples
    QCheck2.Gen.(
      oneof
        [
          map (fun (ds, d) -> ds @ [ d ]) gen_fold_case;
          (* collections of related documents: per-tag groups absorb *)
          map
            (fun (ds, d) -> [ Dv.List (ds @ [ d ]); Dv.List (d :: ds) ])
            gen_fold_case;
          list_size (int_range 1 5) gen_data;
        ])
    (fun ds -> List.for_all (fun mode -> same_bytes ~mode ds) modes)

let prop_fold_matches_oracle_xml =
  QCheck2.Test.make ~name:"XML bodies: the fold renders as the old one"
    ~count:300
    ~print:(fun ts -> String.concat " ; " (List.map print_xml ts))
    QCheck2.Gen.(list_size (int_range 1 4) gen_xml_tree)
    (fun ts ->
      let ds =
        List.map (Fsdata_data.Xml.to_data ~convert_primitives:false) ts
      in
      List.for_all (fun mode -> same_bytes ~mode ds) modes)

(* With metrics on, the merges a corpus costs: documents that grow σ,
   plus the merge that leaves σ as it is and builds the index; every
   other document is absorbed without one. *)
let test_fold_merge_count () =
  let doc ?(extra = false) i =
    Fsdata_data.Json.parse
      (Printf.sprintf
         {|{"id": %d, "name": "user%d", "score": %d.5, "meta": {"ok": true, "tag": "t%d"}%s}|}
         i i i i
         (if extra then {|, "extra": "x"|} else ""))
  in
  let count f = snd (Test_csh.counting_merges f) in
  let homogeneous = List.init 1000 (fun i -> doc i) in
  let shape, n =
    Test_csh.counting_merges (fun () -> Infer.shape_of_samples homogeneous)
  in
  check Alcotest.int "1000 homogeneous documents: the first and the indexing merge"
    2 n;
  check Alcotest.string "same shape as the S(d)-then-csh fold"
    (Shape.to_string (Infer_oracle.shape_of_samples homogeneous))
    (Shape.to_string shape);
  (* document 500 grows σ; 501 merges without growing the new σ and
     rebuilds the index *)
  let grows = List.init 1000 (fun i -> doc ~extra:(i = 500) i) in
  let sigma = Infer.shape_of_samples (List.filteri (fun i _ -> i < 500) grows) in
  let grown = Csh.csh sigma (Infer.shape_of_value (doc ~extra:true 500)) in
  let expected =
    2
    + count (fun () -> Csh.csh sigma (Infer.shape_of_value (doc ~extra:true 500)))
    + count (fun () -> Csh.csh grown (Infer.shape_of_value (doc 501)))
  in
  check Alcotest.int "one growing document: its merge and a reindexing one"
    expected
    (count (fun () -> Infer.shape_of_samples grows))

(* A sample list runs the stream's fold, so its absorbed samples cost no
   merge either. An XML text is one document: a list of XML samples
   costs what the fold over their documents costs. *)
let test_samples_merge_count () =
  let count f = snd (Test_csh.counting_merges f) in
  let run format source =
    count (fun () ->
        Result.get_ok (Infer.run Fsdata_data.Diagnostic.Strict format source))
  in
  let json =
    List.init 1000 (fun i ->
        Printf.sprintf {|{"id": %d, "name": "user%d", "score": %d.5}|} i i i)
  in
  check Alcotest.int "1000 JSON samples cost what their stream costs"
    (run Json (String (String.concat "\n" json)))
    (run Json (Samples json));
  check Alcotest.int "two merges: the first document and the indexing one" 2
    (run Json (Samples json));
  let xml =
    List.init 200 (fun i ->
        Printf.sprintf {|<row id="%d"><name>user%d</name></row>|} i i)
  in
  check Alcotest.int "one XML sample costs what its text costs"
    (run Xml (String (List.hd xml)))
    (run Xml (Samples [ List.hd xml ]));
  let docs =
    List.map
      (fun t ->
        Fsdata_data.Xml.to_data ~convert_primitives:false
          (Fsdata_data.Xml.parse t))
      xml
  in
  check Alcotest.int "XML samples cost what the fold over their documents costs"
    (count (fun () -> Infer.shape_of_samples ~mode:`Xml docs))
    (run Xml (Samples xml))

(* ----- The sequential JSON fold on the lexer stream ----- *)

module Json = Fsdata_data.Json
module Diagnostic = Fsdata_data.Diagnostic

(* The record met first, depth first, edited by [f]. *)
let rec edit_first_record f (d : Dv.t) : Dv.t option =
  match d with
  | Record (name, fields) -> Some (Dv.Record (name, f fields))
  | List ds ->
      let rec go before = function
        | [] -> None
        | x :: rest -> (
            match edit_first_record f x with
            | Some x -> Some (Dv.List (List.rev_append before (x :: rest)))
            | None -> go (x :: before) rest)
      in
      go [] ds
  | _ -> None

(* The first literal replaced by [v]. *)
let rec replace_first_leaf v (d : Dv.t) : Dv.t option =
  let rec first = function
    | [] -> None
    | x :: rest -> (
        match replace_first_leaf v x with
        | Some x -> Some (x :: rest)
        | None -> Option.map (fun rest -> x :: rest) (first rest))
  in
  match d with
  | Record (name, fields) ->
      let names, values = List.split fields in
      Option.map (fun vs -> Dv.Record (name, List.combine names vs)) (first values)
  | List ds -> Option.map (fun ds -> Dv.List ds) (first ds)
  | _ -> Some v

(* The first character of the [n]th non-empty string literal of a JSON
   text written as a \u escape, which decodes to the same text. *)
let escape_nth_string n text =
  let starts = ref [] and in_str = ref false and esc = ref false in
  String.iteri
    (fun i c ->
      if !in_str then begin
        if !esc then esc := false
        else if c = '\\' then esc := true
        else if c = '"' then in_str := false
      end
      else if c = '"' then begin
        in_str := true;
        if i + 1 < String.length text then
          match text.[i + 1] with
          | '"' | '\\' -> ()
          | c when Char.code c >= 0x80 -> ()
          | _ -> starts := (i + 1) :: !starts
      end)
    text;
  match List.rev !starts with
  | [] -> text
  | starts ->
      let i = List.nth starts (n mod List.length starts) in
      String.sub text 0 i
      ^ Printf.sprintf "\\u%04x" (Char.code text.[i])
      ^ String.sub text (i + 1) (String.length text - i - 1)

(* integers past 18 digits, around the native bound, and past it *)
let big_numbers =
  [ "123456789012345678"; "4611686018427387903"; "-4611686018427387904";
    "4611686018427387904"; "123456789012345678901234"; "-0.5e400" ]

(* Documents related to σ, and one-edit near misses of them: a repeated
   or an extra key, an escaped key or string, a number past 18 digits,
   a truncated text; [gen_variant] already drops fields and retypes
   literals. σ is the fold of the related documents, read through JSON
   so that every record is an object. *)
let gen_walk_case =
  let open QCheck2.Gen in
  let* ds, d = gen_fold_case in
  let through_json d = Json.parse (Json.to_string d) in
  let ds = List.map through_json ds in
  let plain = Json.to_string d in
  let* n = int_bound 1000 in
  let+ text =
    frequency
      [
        (4, return plain);
        (2, return (escape_nth_string n plain));
        ( 1,
          return
            (match
               edit_first_record
                 (function f :: rest -> (f :: rest) @ [ f ] | [] -> [])
                 d
             with
            | Some d -> Json.to_string d
            | None -> plain) );
        ( 1,
          return
            (match
               edit_first_record (fun fields -> fields @ [ ("zz", Dv.Int 1) ]) d
             with
            | Some d -> Json.to_string d
            | None -> plain) );
        ( 1,
          let+ big = oneofl big_numbers in
          match replace_first_leaf (Dv.String "@BIG@") d with
          | Some d ->
              let t = Json.to_string d in
              let i = Option.get (Astring.String.find_sub ~sub:{|"@BIG@"|} t) in
              String.sub t 0 i ^ big ^ String.sub t (i + 7) (String.length t - i - 7)
          | None -> plain );
        (1, return (String.sub plain 0 (n mod String.length plain)));
      ]
  in
  (ds, text)

(* Documents whose lists the element walk counts: empty, one-element
   and longer lists, lists mixing tags (a top, or per-tag entries),
   lists of lists, and lists under a record that is sometimes null or
   absent, and under list elements whose own record field is sometimes
   null (an entry holding a nullable record). [gen_variant] drops and
   repeats elements and retypes literals, so the folded variants and
   the one asked about differ in tags and in counts. *)
let gen_list_doc =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Dv.Int i) (int_range 0 2);
        map (fun s -> Dv.String s) (oneofl [ "a"; "2012-05-01"; "1"; "NA" ]);
        return Dv.Null;
        map (fun b -> Dv.Bool b) bool;
      ]
  in
  let record inner =
    let* a = leaf in
    let+ r = oneof [ return Dv.Null; map (fun v -> Dv.Record ("•", [ ("x", v) ])) leaf; inner ] in
    Dv.Record ("•", [ ("a", a); ("r", r) ])
  in
  let list elem = map (fun xs -> Dv.List xs) (list_size (oneofl [ 0; 1; 1; 2; 3 ]) elem) in
  let elem =
    frequency
      [ (3, leaf); (2, record (return Dv.Null)); (1, list leaf); (1, list (record (return Dv.Null))) ]
  in
  let* l = list elem in
  let* m = list (oneof [ leaf; list leaf ]) in
  let+ o = oneof [ return Dv.Null; map (fun l -> Dv.Record ("•", [ ("l", l) ])) (list elem) ] in
  Dv.Record ("•", [ ("l", l); ("m", m); ("o", o) ])

(* Each document also gets a field [t] of its own, a list in some and a
   literal in others, so that σ holds a top whose collection label the
   element walk reads *)
let gen_list_fold_case =
  let open QCheck2.Gen in
  let with_t (d : Dv.t) =
    let+ t =
      oneof
        [
          map (fun xs -> Dv.List xs) (list_size (int_range 0 3) (map (fun i -> Dv.Int i) (int_range 0 2)));
          map (fun i -> Dv.Int i) (int_range 0 2);
          return (Dv.String "x");
        ]
    in
    match d with Dv.Record (n, fields) -> Dv.Record (n, fields @ [ ("t", t) ]) | d -> d
  in
  let* base = gen_list_doc in
  let* folded = list_size (int_range 0 3) (gen_variant base) in
  let* d = gen_variant base in
  let* ds = flatten_l (List.map with_t (base :: folded)) in
  let+ d = with_t d in
  (ds, d)

(* A document and the ones folded into σ, written as JSON text *)
let gen_list_walk_case =
  QCheck2.Gen.map
    (fun (ds, d) ->
      let through_json d = Json.parse (Json.to_string d) in
      (List.map through_json ds, Json.to_string d))
    gen_list_fold_case

let print_walk_case (ds, text) = print_samples ds ^ " / " ^ text

let json_modes : Infer.mode list = [ `Paper; `Practical ]

(* The walk's answer, and [absorbs_value]'s on the parsed text ([None]
   when the text does not parse). *)
let walk_answers ~mode (ds, text) =
  let idx = Csh.index (Infer.shape_of_samples ~mode ds) in
  let walked = Infer.absorbs_json ~mode idx text in
  let parsed =
    match Json.parse text with
    | v -> Some (Infer.absorbs_value ~mode (Csh.index (Csh.indexed idx)) v)
    | exception Json.Parse_error _ -> None
  in
  (walked, parsed)

(* The walk accepts a case only where [absorbs_value] accepts its
   parsed text, in every mode *)
let walk_sound case =
  List.for_all
    (fun mode ->
      match walk_answers ~mode case with
      | true, Some true | false, _ -> true
      | true, (Some false | None) -> false)
    modes

let prop_walk_sound =
  QCheck2.Test.make
    ~name:"the token walk accepts only what absorbs_value accepts, JSON modes"
    ~count:1000 ~print:print_walk_case gen_walk_case walk_sound

let prop_list_walk_sound =
  QCheck2.Test.make
    ~name:"the token walk accepts only what absorbs_value accepts, lists"
    ~count:1000 ~print:print_walk_case gen_list_walk_case walk_sound

(* Keys the walk finds, reads past or declines, by hand: σ is inferred
   from [samples], and each document is asked of the walk and, parsed,
   of [absorbs_value], in both JSON modes. The two answers agree but
   for a repeated key, which the walk declines and the parser resolves
   to its last binding. *)
let walk_key_cases =
  let fields names value =
    "{" ^ String.concat "," (List.map (fun n -> Printf.sprintf {|"%s":%s|} n value) names) ^ "}"
  in
  let twenty = List.init 20 (Printf.sprintf "f%02d") in
  let wide = [ fields twenty "1" ] in
  let sparse = [ fields twenty "1"; fields [ "f00"; "f19" ] "1" ] in
  let person = [ {|{"name":"a","age":1,"city":"b"}|} ] in
  let opt = [ {|{"name":"a","age":1,"city":"b"}|}; {|{"name":"c","age":2}|} ] in
  let near = [ {|{"a":1,"ab":2,"abc":3,"":4}|} ] in
  [
    ("20 fields in σ order", wide, fields twenty "2", true, true);
    ("20 fields in reverse σ order", wide, fields (List.rev twenty) "2", true, true);
    ("a key 12 places after the one met last", sparse, fields [ "f00"; "f13"; "f19" ] "3", true, true);
    ("a key 18 places after the one met last", sparse, fields [ "f00"; "f19" ] "3", true, true);
    ("back 19 places", sparse, fields [ "f19"; "f00" ] "3", true, true);
    ("an escaped key for a σ name", person, {|{"n\u0061me":"x","age":3,"city":"y"}|}, true, true);
    ("an escaped key last", person, {|{"name":"x","age":3,"cit\u0079":"y"}|}, true, true);
    ("an escaped key for no σ name", person, {|{"name":"x","age":3,"city":"y","\u0078":1}|}, false, false);
    ("an unknown key first", person, {|{"zip":1,"name":"x","age":3,"city":"y"}|}, false, false);
    ("an unknown key in the middle", person, {|{"name":"x","zip":1,"age":3,"city":"y"}|}, false, false);
    ("an unknown key last", person, {|{"name":"x","age":3,"city":"y","zip":1}|}, false, false);
    ("a repeated key", person, {|{"name":"x","age":3,"age":4,"city":"y"}|}, false, true);
    ("a repeated escaped key", person, {|{"name":"x","age":3,"\u0061ge":4,"city":"y"}|}, false, true);
    ("a missing optional field", opt, {|{"name":"x","age":3}|}, true, true);
    ("a present optional field", opt, {|{"city":"y","name":"x","age":3}|}, true, true);
    ("a missing required field", opt, {|{"name":"x","city":"y"}|}, false, false);
    ("a prefix of a σ name", person, {|{"nam":"x","age":3,"city":"y"}|}, false, false);
    ("an extension of a σ name", person, {|{"names":"x","age":3,"city":"y"}|}, false, false);
    ("names that extend each other, reversed", near, {|{"":1,"abc":2,"ab":3,"a":4}|}, true, true);
    ("a prefix among extensions", near, {|{"a":1,"ab":2,"abcd":3,"":4}|}, false, false);
    ("the empty name missing", near, {|{"a":1,"ab":2,"abc":3}|}, false, false);
  ]

let test_walk_key_cases () =
  List.iter
    (fun (name, samples, text, walk, parsed) ->
      List.iter
        (fun mode ->
          let label = Printf.sprintf "%s (%s)" name (string_of_mode mode) in
          let walked, reparsed = walk_answers ~mode (List.map Json.parse samples, text) in
          check Alcotest.bool (label ^ ": the walk") walk walked;
          check Alcotest.(option bool) (label ^ ": the parsed text") (Some parsed) reparsed)
        json_modes)
    walk_key_cases

(* the generator keeps both answers of the walk common *)
let test_walk_cases_balanced () =
  let rand = Random.State.make [| 23 |] in
  let cases = QCheck2.Gen.generate ~rand ~n:600 gen_walk_case in
  List.iter
    (fun mode ->
      let accepted =
        List.length (List.filter (fun c -> fst (walk_answers ~mode c)) cases)
      in
      let share = float_of_int accepted /. 600. in
      if share < 0.25 || share > 0.75 then
        Alcotest.failf "%s: the walk accepts %.0f%% of the cases"
          (string_of_mode mode) (100. *. share))
    json_modes

(* The element walk reads lists and does not decline them wholesale:
   on the list cases it accepts a fair share in every mode *)
let test_walk_lists_accepted () =
  let rand = Random.State.make [| 29 |] in
  let cases = QCheck2.Gen.generate ~rand ~n:600 gen_list_walk_case in
  List.iter
    (fun mode ->
      let accepted =
        List.length (List.filter (fun c -> fst (walk_answers ~mode c)) cases)
      in
      if accepted < 60 then
        Alcotest.failf "%s: the walk accepts %d of 600 list cases"
          (string_of_mode mode) accepted)
    modes

(* The parser's nesting bound holds on the walk: σ, given parsed, nests
   records as deep as the bound and its innermost field is a top, and
   the walk declines a document past the bound that σ absorbs. *)
let test_walk_depth () =
  let rec nest n = if n = 0 then Dv.Int 1 else Dv.Record ("•", [ ("a", nest (n - 1)) ]) in
  let idx = Csh.index (Infer.shape_of_samples [ nest 10_000; nest 10_001 ]) in
  let text n = String.concat "" (List.init n (fun _ -> {|{"a":|})) ^ "1" ^ String.make n '}' in
  check Alcotest.bool "at the bound" true (Infer.absorbs_json idx (text 10_000));
  check Alcotest.bool "past the bound" false (Infer.absorbs_json idx (text 10_001))

(* Faulty streams of related documents *)
let gen_stream =
  let open QCheck2.Gen in
  let* ds, d = gen_fold_case in
  let* docs =
    flatten_l
      (List.map
         (fun d ->
           let text = Json.to_string d in
           frequency
             [
               (5, return text);
               ( 1,
                 let+ fault = oneofl Fault_inject.all_faults in
                 Fault_inject.corrupt fault text );
             ])
         (ds @ [ d ]))
  in
  let+ sep = oneofl [ "\n"; " "; "" ] in
  String.concat sep docs

(* The engine's sequential JSON run, against the stream's fold as it
   stood before the walk (Infer_oracle.run_json), at several batch
   sizes: shape text, total, quarantine and error lines alike. *)
let same_run ~mode ?chunk_size budget text =
  match
    ( Infer.run ~mode ?chunk_size budget Json (String text),
      Infer_oracle.run_json ~mode budget text )
  with
  | Error a, Error b -> String.equal a b
  | Ok r, Ok (shape, total, qs) ->
      String.equal (Shape.to_string r.shape) (Shape.to_string shape)
      && r.total = total
      && List.map
           (fun (q : Infer.quarantined) -> (q.q_index, q.q_diagnostic, q.q_text))
           r.quarantined
         = List.map (fun (i, d, skipped) -> (i, d, Some skipped)) qs
  | _ -> false

let prop_run_matches_oracle =
  QCheck2.Test.make
    ~name:"sequential JSON run = fold_many oracle, strict and percent"
    ~count:400 ~print:Fun.id gen_stream (fun text ->
      List.for_all
        (fun mode ->
          List.for_all
            (fun budget ->
              List.for_all
                (fun chunk_size -> same_run ~mode ?chunk_size budget text)
                [ None; Some 1; Some 2 ])
            [ Diagnostic.Strict; Percent 40. ])
        json_modes)

(* Within a batch each document is walked against σ as the previous one
   left it: a corpus of one batch allocates far less than its parse. *)
let test_walk_within_batch () =
  let text =
    String.concat "\n"
      (List.init 1000 (fun i ->
           Printf.sprintf {|{"id": %d, "name": "user%d", "score": %d.5, "ok": true}|}
             i i i))
  in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let parse = words (fun () -> Json.fold_many (fun n ds -> n + List.length ds) 0 text) in
  let fold = words (fun () -> Infer.run (Diagnostic.Percent 1.) Json (String text)) in
  if fold > parse /. 2. then
    Alcotest.failf "the fold allocated %.0f words, the parse %.0f" fold parse

(* The batches, spans and counters of a run that walks documents are
   the reader's: a fault between batches starts the next one, and a
   walked document is read, counted and folded like a parsed one. *)
let test_walk_batches () =
  let module Trace = Fsdata_obs.Trace in
  let module Metrics = Fsdata_obs.Metrics in
  let docs = [ {|{"a": 1}|}; {|{"a": 2}|}; {|{"a" 3}|}; {|{"a": 4}|}; {|{"a": 5}|}; {|{"a": 6}|} ] in
  let text = String.concat "\n" docs in
  Trace.reset ();
  Metrics.reset ();
  Trace.set_enabled true;
  Metrics.set_enabled true;
  let r = Infer.run ~chunk_size:2 (Diagnostic.Count 1) Json (String text) in
  Trace.set_enabled false;
  Metrics.set_enabled false;
  let spans =
    List.filter_map
      (fun (s : Trace.span) ->
        if s.name <> "infer.chunk" then None
        else
          let arg k = int_of_string (List.assoc k s.args) in
          Some (arg "offset", arg "size"))
      (Trace.spans ())
  in
  let metric name = List.assoc name (Metrics.export ()) in
  check Alcotest.(list (pair int int)) "spans" [ (0, 2); (2, 2); (5, 1) ] spans;
  check Alcotest.(list int) "quarantine" [ 2 ]
    (List.map (fun q -> q.Infer.q_index) (Result.get_ok r).quarantined);
  List.iter
    (fun (name, v) -> check Alcotest.bool name true (metric name = `Int v))
    [
      ("par.chunks", 3);
      ("parse.json.documents", 5);
      ( "parse.json.bytes",
        List.fold_left ( + ) 0
          (List.map String.length (List.filteri (fun i _ -> i <> 2) docs)) );
      ("infer.samples", 5);
      ("ingest.samples_total", 6);
      ("ingest.samples_quarantined", 1);
    ];
  Trace.reset ();
  Metrics.reset ()

let suite =
  [
    tc "S: primitives (Figure 3)" `Quick test_s_primitives;
    tc "S: practical string classification (Section 6.2)" `Quick
      test_s_practical_strings;
    tc "S: records" `Quick test_s_records;
    tc "S: collections, paper mode" `Quick test_s_collections_paper;
    tc "S: collections, heterogeneous" `Quick test_s_collections_hetero;
    tc "multi-sample folding" `Quick test_multi_sample;
    tc "Section 2.1: people.json" `Quick test_people_json;
    tc "Section 2.3: World Bank" `Quick test_worldbank_json;
    tc "Section 2.2: XML document" `Quick test_xml_doc;
    tc "Section 6.2: XML root/id/item" `Quick test_xml_global_attr;
    tc "Section 6.2: ozone CSV" `Quick test_csv_ozone;
    tc "malformed inputs are errors" `Quick test_format_errors;
    QCheck_alcotest.to_alcotest prop_sample_preferred;
    QCheck_alcotest.to_alcotest prop_permutation_stable;
    QCheck_alcotest.to_alcotest prop_matches_fold;
    QCheck_alcotest.to_alcotest prop_has_shape_self;
    QCheck_alcotest.to_alcotest prop_practical_preferred_paper;
    tc "absorbs_value: examples" `Quick test_absorbs_value_examples;
    QCheck_alcotest.to_alcotest prop_absorbs_value;
    tc "absorbs_value: field order counts" `Quick test_absorbs_value_field_order;
    tc "sample lists skip absorbed documents" `Quick test_samples_merge_count;
    tc "absorbs_value: both answers are common" `Quick test_fold_cases_balanced;
    QCheck_alcotest.to_alcotest prop_fold_matches_oracle;
    QCheck_alcotest.to_alcotest prop_fold_matches_oracle_xml;
    tc "the fold merges only what grows" `Quick test_fold_merge_count;
    tc "mode applies to JSON only" `Quick test_mode_applies_to_json_only;
    QCheck_alcotest.to_alcotest prop_walk_sound;
    QCheck_alcotest.to_alcotest prop_list_walk_sound;
    tc "absorbs_json: lists are walked" `Quick test_walk_lists_accepted;
    tc "the walk: both answers are common" `Quick test_walk_cases_balanced;
    tc "the walk: nesting bound" `Quick test_walk_depth;
    tc "the walk: keys by hand" `Quick test_walk_key_cases;
    QCheck_alcotest.to_alcotest prop_run_matches_oracle;
    tc "the walk: within the first batch" `Quick test_walk_within_batch;
    tc "the walk: batches and counters are the reader's" `Quick test_walk_batches;
  ]

(* XML parser and Section 6.2 data-mapping tests. *)

module Dv = Fsdata_data.Data_value
module Xml = Fsdata_data.Xml
open Generators

let check = Alcotest.check
let tc = Alcotest.test_case

let test_basic () =
  let t = Xml.parse {|<a x="1" y="two"><b/><c>text</c></a>|} in
  check Alcotest.string "name" "a" t.Xml.name;
  check
    Alcotest.(list (pair string string))
    "attributes"
    [ ("x", "1"); ("y", "two") ]
    t.Xml.attributes;
  check Alcotest.int "children" 2 (List.length t.Xml.children)

let test_entities () =
  let t = Xml.parse {|<a>&lt;b&gt; &amp; &quot;c&quot; &apos; &#65; &#x42;</a>|} in
  check Alcotest.string "decoded" {|<b> & "c" ' A B|} (Xml.text_content t)

let test_cdata () =
  let t = Xml.parse {|<a><![CDATA[raw <not> markup & stuff]]></a>|} in
  check Alcotest.string "cdata" "raw <not> markup & stuff" (Xml.text_content t)

let test_comments_pi_doctype () =
  let t =
    Xml.parse
      {|<?xml version="1.0"?>
<!DOCTYPE doc [ <!ELEMENT doc ANY> ]>
<!-- a comment -->
<doc><!-- inner --><a/>text<?pi data?></doc>
<!-- trailing -->|}
  in
  check Alcotest.string "root" "doc" t.Xml.name;
  check Alcotest.int "children: element + text" 2 (List.length t.Xml.children)

let test_attribute_entities () =
  let t = Xml.parse {|<a title="x &amp; y"/>|} in
  check Alcotest.(list (pair string string)) "attr" [ ("title", "x & y") ]
    t.Xml.attributes

let expect_error ?(contains = "") src () =
  match Xml.parse_result src with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg ->
      if contains <> "" && not (Astring.String.is_infix ~affix:contains msg)
      then Alcotest.failf "error %S does not mention %S" msg contains

(* ----- Section 6.2 mapping ----- *)

let test_to_data_paper_example () =
  (* <root id="1"><item>Hello!</item></root>
     becomes root {id ↦ 1, • ↦ [item {• ↦ "Hello!"}]} *)
  let t = Xml.parse {|<root id="1"><item>Hello!</item></root>|} in
  let expected =
    Dv.Record
      ( "root",
        [
          ("id", Dv.Int 1);
          ( Dv.body_field,
            Dv.List [ Dv.Record ("item", [ (Dv.body_field, Dv.String "Hello!") ]) ]
          );
        ] )
  in
  check data_testable "paper example" expected (Xml.to_data t)

let test_to_data_raw () =
  let t = Xml.parse {|<root id="1"/>|} in
  check data_testable "unconverted attributes stay strings"
    (Dv.Record ("root", [ ("id", Dv.String "1") ]))
    (Xml.to_data ~convert_primitives:false t)

let test_to_data_empty_body () =
  let t = Xml.parse {|<image source="xml.png" />|} in
  check data_testable "no body field for empty elements"
    (Dv.Record ("image", [ ("source", Dv.String "xml.png") ]))
    (Xml.to_data t)

let test_to_data_mixed_content () =
  (* Mixed-content text is not exposed through the data mapping
     (Section 6.3 keeps it behind the raw-XElement escape hatch). *)
  let t = Xml.parse {|<p>before <b>bold</b> after</p>|} in
  check data_testable "text next to elements is dropped"
    (Dv.Record
       ("p", [ (Dv.body_field, Dv.List [ Dv.Record ("b", [ (Dv.body_field, Dv.String "bold") ]) ]) ]))
    (Xml.to_data t);
  check Alcotest.string "but text_content still sees it" "before bold after"
    (Xml.text_content t)

let test_serialize_roundtrip () =
  let src = {|<doc a="1&amp;2"><x>hi &lt;there&gt;</x><y/><z>5</z></doc>|} in
  let t = Xml.parse src in
  let t2 = Xml.parse (Xml.to_string t) in
  check data_testable "parse . print . parse stable" (Xml.to_data t)
    (Xml.to_data t2)

let test_namespace_prefixes_kept () =
  let t = Xml.parse {|<ns:a xmlns:ns="urn:x" ns:attr="v"><ns:b/></ns:a>|} in
  check Alcotest.string "prefixed name kept" "ns:a" t.Xml.name

(* An element with [n] attributes a0..a(n-1), eight per line, whose
   attribute [dup_at] repeats the name of attribute [dup_of]. *)
let wide_element n ~dup_at ~dup_of tail =
  let b = Buffer.create 256 in
  Buffer.add_string b "<row";
  for i = 0 to n - 1 do
    Buffer.add_string b (if i mod 8 = 0 then "\n  " else " ");
    if i = dup_at then Buffer.add_string b (Printf.sprintf "a%d='dup'" dup_of)
    else Buffer.add_string b (Printf.sprintf "a%d=\"%d\"" i i)
  done;
  Buffer.add_string b tail;
  Buffer.contents b

(* A duplicate attribute fails as soon as its value is read, at the
   position just past that value — before any later fault in the same
   tag — whether the tag is narrow (pairwise check) or wide (hashed). *)
let test_duplicate_attribute_position () =
  List.iter
    (fun (doc, expected) ->
      match Xml.parse_diag doc with
      | Ok _ -> Alcotest.failf "expected a duplicate-attribute error in %S" doc
      | Error d ->
          Alcotest.(check (triple int int string))
            doc expected
            (d.Fsdata_data.Diagnostic.line, d.column, d.message))
    [
      ({|<a x="1" x="2"/>|}, (1, 15, "duplicate attribute x"));
      ({|<a x="1" x="2" y/>|}, (1, 15, "duplicate attribute x"));
      ("<a\n  x='1'\n  y='2' x = \"3\">t</a>", (3, 16, "duplicate attribute x"));
      (wide_element 40 ~dup_at:37 ~dup_of:3 "/>", (6, 56, "duplicate attribute a3"));
      (wide_element 40 ~dup_at:37 ~dup_of:3 " bad/>", (6, 56, "duplicate attribute a3"));
      (wide_element 40 ~dup_at:5 ~dup_of:3 "/>", (2, 46, "duplicate attribute a3"));
      (wide_element 40 ~dup_at:39 ~dup_of:38 "/>", (6, 75, "duplicate attribute a38"));
      (wide_element 33 ~dup_at:32 ~dup_of:0 "/>", (6, 11, "duplicate attribute a0"));
      (wide_element 300 ~dup_at:290 ~dup_of:250 "/>", (38, 35, "duplicate attribute a250"));
    ];
  match Xml.parse (wide_element 300 ~dup_at:(-1) ~dup_of:0 "/>") with
  | t -> Alcotest.(check int) "300 distinct attributes" 300 (List.length t.Xml.attributes)

let suite =
  [
    tc "elements and attributes" `Quick test_basic;
    tc "entities" `Quick test_entities;
    tc "CDATA" `Quick test_cdata;
    tc "comments, PIs, DOCTYPE" `Quick test_comments_pi_doctype;
    tc "entities in attributes" `Quick test_attribute_entities;
    tc "error: mismatched tags" `Quick
      (expect_error "<a><b></a></b>" ~contains:"mismatched");
    tc "error: unterminated element" `Quick (expect_error "<a><b></b>");
    tc "error: duplicate attribute" `Quick
      (expect_error {|<a x="1" x="2"/>|} ~contains:"duplicate");
    tc "error: duplicate attribute position" `Quick
      test_duplicate_attribute_position;
    tc "error: trailing content" `Quick (expect_error "<a/><b/>" ~contains:"trailing");
    tc "error: unknown entity" `Quick (expect_error "<a>&nope;</a>" ~contains:"entity");
    tc "error: '<' in attribute" `Quick (expect_error {|<a x="<"/>|});
    tc "error: no root" `Quick (expect_error "   ");
    tc "to_data: paper example (root/id/item)" `Quick test_to_data_paper_example;
    tc "to_data: unconverted mode" `Quick test_to_data_raw;
    tc "to_data: empty body omitted" `Quick test_to_data_empty_body;
    tc "to_data: mixed content dropped" `Quick test_to_data_mixed_content;
    tc "serialize round-trip" `Quick test_serialize_roundtrip;
    tc "namespace prefixes kept" `Quick test_namespace_prefixes_kept;
  ]

let test_depth_guard () =
  let buf = Buffer.create (20_002 * 3) in
  for _ = 1 to 10_001 do Buffer.add_string buf "<a>" done;
  for _ = 1 to 10_001 do Buffer.add_string buf "</a>" done;
  (match Xml.parse_result (Buffer.contents buf) with
  | Error msg ->
      check Alcotest.bool "mentions nesting" true
        (Astring.String.is_infix ~affix:"nested" msg)
  | Ok _ -> Alcotest.fail "expected depth error");
  let buf = Buffer.create (10_000 * 3) in
  for _ = 1 to 5_000 do Buffer.add_string buf "<a>" done;
  for _ = 1 to 5_000 do Buffer.add_string buf "</a>" done;
  match Xml.parse_result (Buffer.contents buf) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "5000 levels should parse: %s" e

let suite = suite @ [ tc "nesting depth guard" `Quick test_depth_guard ]

(* An element is a record of its attributes and its body, so an
   attribute named like the body field is refused at its name. *)
let test_body_field_attribute () =
  match Xml.parse_diag "<root>\n  <a  \xe2\x80\xa2=\"1\"/></root>" with
  | Ok _ -> Alcotest.fail "an attribute named like the body field parsed"
  | Error d ->
      Alcotest.(check (triple int int string))
        "position and message"
        (2, 7, "attribute \xe2\x80\xa2 is reserved for the element body")
        (d.Fsdata_data.Diagnostic.line, d.column, d.message)

let suite =
  suite @ [ tc "error: attribute named like the body" `Quick test_body_field_attribute ]

(* CSV parser and Section 6.2 row-record mapping tests. *)

module Dv = Fsdata_data.Data_value
module Csv = Fsdata_data.Csv
open Generators

let check = Alcotest.check
let tc = Alcotest.test_case

let rows_t = Alcotest.(list (list string))

let test_basic () =
  let t = Csv.parse "a,b,c\n1,2,3\n4,5,6\n" in
  check (Alcotest.list Alcotest.string) "headers" [ "a"; "b"; "c" ] t.Csv.headers;
  check rows_t "rows" [ [ "1"; "2"; "3" ]; [ "4"; "5"; "6" ] ] t.Csv.rows

let test_quoting () =
  let t = Csv.parse "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n\"multi\nline\",z\n" in
  check rows_t "quoted cells"
    [ [ "x,y"; {|say "hi"|} ]; [ "multi\nline"; "z" ] ]
    t.Csv.rows

let test_crlf () =
  let t = Csv.parse "a,b\r\n1,2\r\n" in
  check rows_t "CRLF endings" [ [ "1"; "2" ] ] t.Csv.rows

let test_separator () =
  let t = Csv.parse ~separator:';' "a;b\n1;2\n" in
  check rows_t "semicolon" [ [ "1"; "2" ] ] t.Csv.rows

let test_no_headers () =
  let t = Csv.parse ~has_headers:false "1,2\n3,4\n" in
  check
    (Alcotest.list Alcotest.string)
    "synthetic headers" [ "Column1"; "Column2" ] t.Csv.headers;
  check rows_t "all rows are data" [ [ "1"; "2" ]; [ "3"; "4" ] ] t.Csv.rows

let test_short_rows_padded () =
  let t = Csv.parse "a,b,c\n1\n" in
  check rows_t "padded" [ [ "1"; ""; "" ] ] t.Csv.rows

let test_empty_lines_skipped () =
  let t = Csv.parse "a,b\n\n1,2\n\n" in
  check rows_t "blank lines skipped" [ [ "1"; "2" ] ] t.Csv.rows

let test_empty_input () =
  let t = Csv.parse "" in
  check (Alcotest.list Alcotest.string) "no headers" [] t.Csv.headers;
  check rows_t "no rows" [] t.Csv.rows

let test_missing_final_newline () =
  let t = Csv.parse "a,b\n1,2" in
  check rows_t "last row kept" [ [ "1"; "2" ] ] t.Csv.rows

let test_errors () =
  (match Csv.parse_result "a,b\n1,2,3\n" with
  | Error msg ->
      check Alcotest.bool "row too long" true
        (Astring.String.is_infix ~affix:"3 cells" msg)
  | Ok _ -> Alcotest.fail "expected error");
  match Csv.parse_result "a\n\"unterminated\n" with
  | Error msg ->
      check Alcotest.bool "unterminated quote" true
        (Astring.String.is_infix ~affix:"unterminated" msg)
  | Ok _ -> Alcotest.fail "expected error"

let test_to_data () =
  let t = Csv.parse "x,y\n1,#N/A\n2.5,hi\n" in
  let row fields = Dv.Record (Dv.csv_record_name, fields) in
  check data_testable "typed rows"
    (Dv.List
       [
         row [ ("x", Dv.Int 1); ("y", Dv.Null) ];
         row [ ("x", Dv.Float 2.5); ("y", Dv.String "hi") ];
       ])
    (Csv.to_data t);
  check data_testable "raw rows"
    (Dv.List
       [
         row [ ("x", Dv.String "1"); ("y", Dv.String "#N/A") ];
         row [ ("x", Dv.String "2.5"); ("y", Dv.String "hi") ];
       ])
    (Csv.to_data ~convert_primitives:false t)

let test_roundtrip () =
  let t = Csv.parse "a,b\n\"x,y\",2\nplain,\"q\"\"q\"\n" in
  let t2 = Csv.parse (Csv.to_string t) in
  check rows_t "print-parse stable" t.Csv.rows t2.Csv.rows;
  check (Alcotest.list Alcotest.string) "headers stable" t.Csv.headers t2.Csv.headers

let suite =
  [
    tc "basic table" `Quick test_basic;
    tc "RFC 4180 quoting" `Quick test_quoting;
    tc "CRLF line endings" `Quick test_crlf;
    tc "custom separator" `Quick test_separator;
    tc "no headers" `Quick test_no_headers;
    tc "short rows padded" `Quick test_short_rows_padded;
    tc "empty lines skipped" `Quick test_empty_lines_skipped;
    tc "empty input" `Quick test_empty_input;
    tc "missing final newline" `Quick test_missing_final_newline;
    tc "errors" `Quick test_errors;
    tc "to_data (Section 6.2)" `Quick test_to_data;
    tc "serialize round-trip" `Quick test_roundtrip;
  ]

(* A row is a record whose fields the headers name, so a repeated
   header refuses the table once, at its second occurrence, whatever
   the error budget. *)
let test_duplicate_header () =
  let module Diagnostic = Fsdata_data.Diagnostic in
  let module Infer = Fsdata_core.Infer in
  List.iter
    (fun (text, expected) ->
      match Csv.parse_diag text with
      | Ok _ -> Alcotest.failf "expected a duplicate-header error in %S" text
      | Error d ->
          check
            Alcotest.(triple int int string)
            text expected
            (d.Diagnostic.line, d.column, d.message);
          List.iter
            (fun budget ->
              check
                Alcotest.(result unit string)
                (Diagnostic.budget_to_string budget)
                (Error (Diagnostic.message_of d))
                (Result.map ignore (Infer.run budget Csv (String text))))
            [ Diagnostic.Strict; Count 99; Percent 50. ])
    [
      ("a,a\n1,2\n", (1, 3, {|duplicate header "a"|}));
      ("x, b ,\"q\",b\n1,2,3,4\n5,6,7,8,9\n", (1, 11, {|duplicate header "b"|}));
      (* an empty header takes its default name *)
      (",Column1\n1,2\n", (1, 2, {|duplicate header "Column1"|}));
    ]

let suite = suite @ [ tc "duplicate header refused" `Quick test_duplicate_header ]

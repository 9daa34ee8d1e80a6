(* JSON parser and printer tests. *)

module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
open Generators

let check = Alcotest.check
let tc = Alcotest.test_case
let parse = Json.parse

let obj fields = Dv.Record (Dv.json_record_name, fields)

let test_literals () =
  check data_testable "true" (Dv.Bool true) (parse "true");
  check data_testable "false" (Dv.Bool false) (parse "false");
  check data_testable "null" Dv.Null (parse "null");
  check data_testable "string" (Dv.String "hi") (parse {|"hi"|});
  check data_testable "empty object" (obj []) (parse "{}");
  check data_testable "empty array" (Dv.List []) (parse "[]")

let test_numbers () =
  check data_testable "int" (Dv.Int 42) (parse "42");
  check data_testable "negative int" (Dv.Int (-7)) (parse "-7");
  check data_testable "zero" (Dv.Int 0) (parse "0");
  check data_testable "float" (Dv.Float 3.5) (parse "3.5");
  check data_testable "exponent is float" (Dv.Float 100.) (parse "1e2");
  check data_testable "negative exponent" (Dv.Float 0.01) (parse "1e-2");
  check data_testable "capital exponent" (Dv.Float 120.) (parse "1.2E2");
  check data_testable "frac + exp" (Dv.Float 150.) (parse "1.5e2");
  (* int too large for a native int falls back to float *)
  check data_testable "huge int becomes float"
    (Dv.Float 1e100)
    (parse ("1" ^ String.make 100 '0'))

let test_strings () =
  check data_testable "escapes"
    (Dv.String "a\"b\\c/d\be\012f\ng\rh\ti")
    (parse {|"a\"b\\c\/d\be\ff\ng\rh\ti"|});
  check data_testable "unicode escape" (Dv.String "\xc3\xa9")
    (parse {|"\u00e9"|});
  check data_testable "ascii unicode escape" (Dv.String "A")
    (parse {|"\u0041"|});
  check data_testable "surrogate pair"
    (Dv.String "\xf0\x9d\x84\x9e")
    (parse {|"\ud834\udd1e"|});
  check data_testable "utf-8 passthrough" (Dv.String "caf\xc3\xa9")
    (parse "\"caf\xc3\xa9\"")

let test_nesting () =
  check data_testable "nested"
    (obj
       [
         ("a", Dv.List [ Dv.Int 1; obj [ ("b", Dv.Null) ] ]);
         ("c", Dv.String "x");
       ])
    (parse {|{ "a": [1, {"b": null}], "c": "x" }|})

let test_duplicate_keys_last_wins () =
  check data_testable "last binding wins" (obj [ ("a", Dv.Int 2) ])
    (parse {|{"a": 1, "a": 2}|})

let expect_error ?(contains = "") src () =
  match Json.parse_result src with
  | Ok d -> Alcotest.failf "expected a parse error, got %a" Dv.pp d
  | Error msg ->
      if contains <> "" && not (Astring.String.is_infix ~affix:contains msg)
      then Alcotest.failf "error %S does not mention %S" msg contains

let test_error_positions () =
  match Json.parse_result "{\n  \"a\": tru\n}" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error msg ->
      check Alcotest.bool "mentions line 2" true
        (Astring.String.is_infix ~affix:"line 2" msg)

let test_parse_many () =
  check (Alcotest.list data_testable) "three documents"
    [ Dv.Int 1; obj []; Dv.List [] ]
    (Json.parse_many "1 {} []");
  check (Alcotest.list data_testable) "empty input" [] (Json.parse_many "  ")

let test_fold_many () =
  (* chunks arrive in order, each at most chunk_size long, and
     concatenate to parse_many *)
  let src = "1 2 3 4 5 6 7" in
  let chunks =
    List.rev (Json.fold_many ~chunk_size:3 (fun acc c -> c :: acc) [] src)
  in
  Alcotest.(check (list int))
    "chunk sizes" [ 3; 3; 1 ]
    (List.map List.length chunks);
  check (Alcotest.list data_testable) "concatenation is parse_many"
    (Json.parse_many src) (List.concat chunks);
  Alcotest.check_raises "chunk_size 0 rejected"
    (Invalid_argument "Json.fold_many: chunk_size must be positive") (fun () ->
      ignore (Json.fold_many ~chunk_size:0 (fun () _ -> ()) () "1"))

(* Positions in Parse_error must be relative to the whole stream, not to
   the chunk being parsed — lock the exact line and column down. *)
let test_fold_many_error_offsets () =
  let src = "{\"a\": 1}\n{\"b\": 2}\n{\"c\": tru}" in
  match Json.fold_many ~chunk_size:1 (fun () _ -> ()) () src with
  | () -> Alcotest.fail "expected Parse_error"
  | exception Json.Parse_error { line; column; _ } ->
      Alcotest.(check (pair int int))
        "stream-global line and column" (3, 10) (line, column)

let test_cursor_basics () =
  let c = Json.Reader.incremental () in
  check (Alcotest.list data_testable) "first fragment"
    [ Dv.Int 1; obj [] ]
    (feed_docs c "1 {} [tru");
  check (Alcotest.list data_testable) "split document completes"
    [ Dv.List [ Dv.Bool true ] ]
    (feed_docs c "e]");
  (* a number ending flush with the buffer could still grow: it must be
     retained, not emitted early *)
  check (Alcotest.list data_testable) "number held at fragment boundary" []
    (feed_docs c "12");
  check (Alcotest.list data_testable) "…and continued by the next fragment"
    [ Dv.Int 1234 ]
    (feed_docs c "34 ");
  check (Alcotest.list data_testable) "finish flushes a complete tail"
    [ Dv.Int 5 ]
    (let _ = feed_docs c "5" in
     finish_docs c)

let test_cursor_error_offsets () =
  (* error inside a later fragment: positions count from the start of the
     whole stream fed so far *)
  let c = Json.Reader.incremental () in
  let feed s = ignore (feed_docs c s) in
  feed "{\"a\":\n 1}\n{\"b\":";
  feed " 2}\n";
  (match feed_docs c "{\"x\": tru}" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Json.Parse_error { line; column; _ } ->
      Alcotest.(check (pair int int))
        "error position spans fragments" (4, 10) (line, column));
  (* retained-prefix case: the error lands in a document whose text
     began in an earlier fragment *)
  let c = Json.Reader.incremental () in
  ignore (feed_docs c "12 {\"a\"");
  (match feed_docs c ": x}" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Json.Parse_error { line; column; _ } ->
      Alcotest.(check (pair int int))
        "position inside retained text" (1, 10) (line, column));
  (* finish on an incomplete tail reports where the tail began *)
  let c = Json.Reader.incremental () in
  ignore (feed_docs c "1\n2\n[3,");
  match finish_docs c with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Json.Parse_error { line; _ } ->
      Alcotest.(check int) "truncated tail line" 3 line

let test_print_compact () =
  check Alcotest.string "compact" {|{"a":[1,2.5,null,true,"x"]}|}
    (Json.to_string
       (obj [ ("a", Dv.List [ Dv.Int 1; Dv.Float 2.5; Dv.Null; Dv.Bool true; Dv.String "x" ]) ]))

let test_print_pretty () =
  check Alcotest.string "indented"
    "{\n  \"a\": [\n    1\n  ]\n}"
    (Json.to_string ~indent:2 (obj [ ("a", Dv.List [ Dv.Int 1 ]) ]))

let test_print_escapes () =
  check Alcotest.string "escaped" {|"a\"b\\c\nd\u0001"|}
    (Json.to_string (Dv.String "a\"b\\c\nd\001"))

(* Round-trip: print then parse gives back the value (XML-derived record
   names are not preserved by JSON printing, so rename records first). *)
let rec jsonify (d : Dv.t) : Dv.t =
  match d with
  | Dv.Record (_, fields) ->
      Dv.Record
        (Dv.json_record_name, List.map (fun (k, v) -> (k, jsonify v)) fields)
  | Dv.List ds -> Dv.List (List.map jsonify ds)
  | other -> other

let prop_roundtrip =
  QCheck2.Test.make ~name:"parse (to_string d) = d" ~count:300
    ~print:print_data gen_data (fun d ->
      let d = jsonify d in
      Dv.equal d (parse (Json.to_string d)))

let prop_roundtrip_pretty =
  QCheck2.Test.make ~name:"parse (to_string ~indent d) = d" ~count:200
    ~print:print_data gen_data (fun d ->
      let d = jsonify d in
      Dv.equal d (parse (Json.to_string ~indent:2 d)))

(* ----- Differential: objects against the remove_assoc oracle ----- *)

module Oracle = Json_oracle

(* The member order a repeated key produces: the survivor is the last
   binding, at the position of the last occurrence. *)
let test_duplicate_key_position () =
  match parse {|{"a":1,"b":2,"a":3}|} with
  | Dv.Record (_, fields) ->
      Alcotest.(check (list (pair string data_testable)))
        "b, then a = 3"
        [ ("b", Dv.Int 2); ("a", Dv.Int 3) ]
        fields
  | d -> Alcotest.failf "expected an object, got %a" Dv.pp d

(* Object text whose keys come from a pool smaller than, equal to or
   larger than the width, so repeated keys land at random positions;
   widths reach past 200 fields. Whitespace between tokens varies, and
   some keys are escaped so they decode through the slow string path. *)
let gen_object_text =
  let open QCheck2.Gen in
  let ws = oneofl [ ""; ""; " "; "\n"; "\t "; "\r\n  " ] in
  let scalar =
    oneof
      [
        map string_of_int (int_range (-1000) 1000);
        map (fun f -> Json.to_string (Dv.Float f)) (float_range (-1e6) 1e6);
        oneofl [ "true"; "false"; "null"; {|"x"|}; {|"2012-05-01"|}; {|"a\"b"|}; "[]"; "{}" ];
      ]
  in
  let key pool =
    map2
      (fun i escaped ->
        if escaped then Printf.sprintf {|"k\u00%x%d"|} (Char.code 'k') i
        else Printf.sprintf {|"k%d"|} i)
      (int_bound (max 0 (pool - 1)))
      (frequency [ (9, return false); (1, return true) ])
  in
  let obj value width =
    width >>= fun w ->
    oneofl [ 1; 3; max 1 (w / 2); max 1 w; (2 * w) + 1 ] >>= fun pool ->
    list_size (return w)
      (map3
         (fun (k, v) w1 w2 -> w1 ^ k ^ w2 ^ ":" ^ w1 ^ v ^ w2)
         (pair (key pool) value) ws ws)
    >|= fun members -> "{" ^ String.concat "," members ^ "}"
  in
  let inner = obj scalar (int_range 0 6) in
  let value =
    frequency
      [
        (6, scalar);
        (1, inner);
        (1, map (fun xs -> "[" ^ String.concat ", " xs ^ "]") (list_size (int_range 0 4) scalar));
      ]
  in
  obj value
    (frequency
       [ (6, int_range 0 12); (3, int_range 13 64); (2, int_range 190 260) ])

(* A malformed variant: truncated, or one byte deleted, inserted or
   replaced (which may still parse, or parse differently). *)
let gen_mutated text =
  let open QCheck2.Gen in
  let n = String.length text in
  int_bound (max 0 (n - 1)) >>= fun i ->
  oneofl [ ','; ':'; '{'; '}'; '['; ']'; '"'; '\\'; 'a'; '1'; ' '; '\n'; '\000' ]
  >>= fun c ->
  oneofl
    [
      String.sub text 0 i;
      String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1);
      String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i);
      String.mapi (fun j x -> if j = i then c else x) text;
    ]

let gen_document =
  let open QCheck2.Gen in
  gen_object_text >>= fun t ->
  frequency [ (3, return t); (2, gen_mutated t) ]

let same_parse t =
  match (Json.parse_diag t, Oracle.parse_diag t) with
  | Ok v, Ok v' -> v = v'
  | Error d, Error d' -> Fault_inject.diag_equal d d'
  | _ -> false

let prop_parse_matches_oracle =
  QCheck2.Test.make ~count:600
    ~name:"parse: same values and diagnostics as the remove_assoc oracle"
    ~print:(Printf.sprintf "%S") gen_document same_parse

(* A recovering fold over a stream of (possibly malformed) objects:
   chunks, diagnostics and skipped texts must all match. *)
let prop_fold_many_matches_oracle =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 4)
        (map (String.concat "\n") (list_size (int_range 1 6) gen_document)))
  in
  (* [fold on_error] folds one parser over the stream, collecting chunks *)
  let run fold =
    let errors = ref [] in
    let on_error d ~skipped = errors := (d, skipped) :: !errors in
    match fold on_error with
    | chunks -> Ok (List.rev chunks, List.rev !errors)
    | exception e -> Error (Printexc.to_string e)
  in
  let cons acc c = c :: acc in
  QCheck2.Test.make ~count:300
    ~name:"fold_many ~on_error: same chunks, diagnostics and skipped texts"
    ~print:QCheck2.Print.(pair int (Printf.sprintf "%S"))
    gen
    (fun (chunk_size, text) ->
      match
        ( run (fun on_error -> Json.fold_many ~chunk_size ~on_error cons [] text),
          run (fun on_error ->
              Oracle.fold_many ~chunk_size ~on_error cons [] text) )
      with
      | Ok (c, e), Ok (c', e') ->
          c = c'
          && List.equal
               (fun (d, s) (d', s') ->
                 Fault_inject.diag_equal d d' && String.equal s s')
               e e'
      | Error x, Error y -> String.equal x y
      | _ -> false)

(* ----- Differential: string escaping against the per-character oracle ----- *)

(* Strings built from segments that each stress one branch of the
   escaper: control bytes, the quote and the backslash, multi-byte UTF-8
   and raw high bytes, DEL, and clean runs long enough to be copied
   whole. *)
let gen_escapable =
  let open QCheck2.Gen in
  let segment =
    frequency
      [
        (3, map (String.make 1) (map Char.chr (int_range 0x00 0x1F)));
        (2, oneofl [ "\""; "\\"; "\\\""; "\"\"" ]);
        (2, oneofl [ "\xc3\xa9"; "\xe2\x82\xac"; "\xf0\x9d\x84\x9e"; "\x7f"; "\xff" ]);
        (2, string_size ~gen:printable (int_range 1 8));
        (1, map (fun n -> String.make n 'x') (int_range 64 4096));
        (1, return "");
      ]
  in
  frequency
    [
      (1, return "");
      (8, map (String.concat "") (list_size (int_range 1 12) segment));
    ]

let oracle_escape s =
  let b = Buffer.create (String.length s + 2) in
  Oracle.escape_string b s;
  Buffer.contents b

let prop_escape_matches_oracle =
  QCheck2.Test.make ~count:600
    ~name:"to_string: strings and keys escape as the per-character oracle"
    ~print:(Printf.sprintf "%S") gen_escapable (fun s ->
      String.equal (Json.to_string (Dv.String s)) (oracle_escape s)
      && String.equal
           (Json.to_string (Dv.Record (Dv.json_record_name, [ (s, Dv.String s) ])))
           ("{" ^ oracle_escape s ^ ":" ^ oracle_escape s ^ "}"))

(* Floats print as they did through [Printf] alone: [%.1f] for an
   integer below 1e16 in magnitude, [%.0f] for a larger one, else the
   shorter of [%.12g] and [%.17g] that reads back. *)
let printf_float f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.17g" f in
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else s

let gen_printed_float =
  let open QCheck2.Gen in
  let digits n = map (fun m -> float_of_string (Printf.sprintf "%.*g" n m)) float in
  oneof
    [
      map float_of_int int;
      oneofl [ 0.; -0.; 1e16; -1e16; Float.pred 1e16; Float.succ 1e16; -.Float.pred 1e16;
               -.Float.succ 1e16; 9007199254740993.; Float.max_float; -.Float.max_float ];
      map (fun m -> Float.ldexp (float_of_int (m land 0xFFFFFFFFFFFFF)) (-1074)) int;
      oneofl [ Float.min_float; Float.pred Float.min_float; 5e-324; -5e-324 ];
      (let* n = int_range 12 17 in digits n);
      float;
    ]

let prop_float_is_printf =
  QCheck2.Test.make ~count:2000 ~name:"floats print what Printf printed"
    ~print:(Printf.sprintf "%h") gen_printed_float (fun f ->
      Float.is_nan f || String.equal (Json.to_string (Fsdata_data.Data_value.Float f)) (printf_float f))

let suite =
  [
    tc "literals" `Quick test_literals;
    tc "numbers" `Quick test_numbers;
    tc "string escapes" `Quick test_strings;
    tc "nesting" `Quick test_nesting;
    tc "duplicate keys: last wins" `Quick test_duplicate_keys_last_wins;
    tc "error: truncated literal" `Quick (expect_error "tru");
    tc "error: trailing content" `Quick (expect_error "1 2" ~contains:"trailing");
    tc "error: lone minus" `Quick (expect_error "-");
    tc "error: leading zero digits ok but 01 is trailing" `Quick
      (expect_error "01" ~contains:"trailing");
    tc "error: unterminated string" `Quick (expect_error {|"abc|});
    tc "error: unterminated array" `Quick (expect_error "[1, 2");
    tc "error: unterminated object" `Quick (expect_error {|{"a": 1|});
    tc "error: bad escape" `Quick (expect_error {|"\q"|});
    tc "error: lone surrogate" `Quick (expect_error {|"\ud834"|});
    tc "error: control char in string" `Quick (expect_error "\"a\x01b\"");
    tc "error: missing colon" `Quick (expect_error {|{"a" 1}|});
    tc "error: empty input" `Quick (expect_error "");
    tc "error positions" `Quick test_error_positions;
    tc "parse_many" `Quick test_parse_many;
    tc "fold_many" `Quick test_fold_many;
    tc "fold_many error offsets" `Quick test_fold_many_error_offsets;
    tc "cursor: incremental documents" `Quick test_cursor_basics;
    tc "cursor: stream-global error offsets" `Quick test_cursor_error_offsets;
    tc "print: compact" `Quick test_print_compact;
    tc "print: pretty" `Quick test_print_pretty;
    tc "print: escapes" `Quick test_print_escapes;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_pretty;
    tc "duplicate keys: survivor at the last position" `Quick
      test_duplicate_key_position;
    QCheck_alcotest.to_alcotest prop_parse_matches_oracle;
    QCheck_alcotest.to_alcotest prop_fold_many_matches_oracle;
    QCheck_alcotest.to_alcotest prop_escape_matches_oracle;
    QCheck_alcotest.to_alcotest prop_float_is_printf;
  ]

(* ----- Differential: the validating skip against the parser ----- *)

(* Nesting at and past the parser's bound, in arrays or objects, closed
   or cut short *)
let gen_deep_text =
  let open QCheck2.Gen in
  let* n = int_range 9_998 10_002 in
  let* objects = bool in
  let* closed = frequency [ (3, return true); (1, return false) ] in
  let close = if closed then n else n / 2 in
  return
    (if objects then String.concat "" (List.init n (fun _ -> {|{"a":|})) ^ "1" ^ String.make close '}'
     else String.make n '[' ^ String.make close ']')

(* Read documents until the end or the first fault: the offset after
   each, and the fault's line and column *)
let read_all step text =
  let st = Json.Raw.make text in
  let rec go stops =
    Json.Raw.skip_ws st;
    if Json.Raw.at_eof st then Ok (List.rev stops)
    else
      match step st with
      | () -> go (Json.Raw.offset st :: stops)
      | exception Fsdata_data.Diagnostic.Parse_error d ->
          Error (List.rev stops, d.line, d.column)
  in
  go []

let prop_skip_matches_parse =
  QCheck2.Test.make ~count:400
    ~name:"Raw.skip_value stops and faults where Raw.parse_value does"
    ~print:(fun t -> Printf.sprintf "%S" (if String.length t > 200 then String.sub t 0 200 ^ "..." else t))
    QCheck2.Gen.(frequency [ (6, gen_faulty_text); (1, gen_deep_text) ])
    (fun text ->
      read_all (fun st -> ignore (Json.Raw.parse_value st)) text
      = read_all Json.Raw.skip_value text)

(* ----- The key table ----- *)

(* Short strings over a few bytes, so that names share prefixes *)
let gen_key = QCheck2.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '0'; '\xc3' ]) (int_range 0 5))

(* Distinct names in random order; at times with the empty name, ten
   that differ only in the last byte, or 200 of one length *)
let gen_names =
  let open QCheck2.Gen in
  let* base = list_size (int_range 0 30) gen_key in
  let* extra =
    oneof
      [
        return [];
        return [ "" ];
        map (fun stem -> List.init 10 (fun i -> stem ^ String.make 1 (Char.chr (48 + i)))) gen_key;
        return (List.init 200 (Printf.sprintf "k%03d"));
      ]
  in
  let* names = shuffle_l (base @ extra) in
  let seen = Hashtbl.create 16 in
  return
    (List.filter
       (fun n -> (not (Hashtbl.mem seen n)) && (Hashtbl.add seen n (); true))
       names)

(* Strings next to a name: cut short, extended, its last byte changed *)
let near n =
  let l = String.length n in
  [ n ^ "a"; n ^ "\000" ]
  @
  if l = 0 then []
  else
    [
      String.sub n 0 (l - 1);
      String.mapi (fun i c -> if i = l - 1 then Char.chr ((Char.code c + 1) land 255) else c) n;
    ]

(* [find] answers each name's index and -1 for any other string, and
   [wanted], scanning a key in the source and hashing it there, agrees
   with it *)
let prop_find_keys =
  QCheck2.Test.make ~count:300
    ~name:"Raw.find answers a name's index, and -1 for any other string"
    ~print:QCheck2.Print.(pair (list string) (list string))
    QCheck2.Gen.(pair gen_names (list_size (int_range 0 20) gen_key))
    (fun (names, others) ->
      let k = Json.Raw.keys ~skip:false (Array.of_list names) in
      let upto = List.length names in
      let wanted key =
        Json.Raw.wanted (Json.Raw.make ("\"" ^ key ^ "\":1}")) k ~from:upto
      in
      List.for_all
        (fun (i, n) -> Json.Raw.find k n = i && wanted n = (i lsl 8) lor Char.code '1')
        (List.mapi (fun i n -> (i, n)) names)
      && List.for_all
           (fun s -> List.mem s names || (Json.Raw.find k s = -1 && wanted s = -1))
           (others @ List.concat_map near names))

let test_depth_guard () =
  (* 10_001 nested arrays must raise a parse error, not overflow *)
  let deep = String.make 10_001 '[' ^ String.make 10_001 ']' in
  (match Json.parse_result deep with
  | Error msg ->
      check Alcotest.bool "mentions nesting" true
        (Astring.String.is_infix ~affix:"nesting" msg)
  | Ok _ -> Alcotest.fail "expected depth error");
  (* but deep-but-reasonable nesting parses fine *)
  let ok = String.make 5_000 '[' ^ "1" ^ String.make 5_000 ']' in
  match Json.parse_result ok with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "5000 levels should parse: %s" e

let suite =
  suite
  @ [
      tc "nesting depth guard" `Quick test_depth_guard;
      QCheck_alcotest.to_alcotest prop_skip_matches_parse;
      QCheck_alcotest.to_alcotest prop_find_keys;
    ]

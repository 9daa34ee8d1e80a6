(* Primitive-value inference tests (Section 6.2). *)

module Dv = Fsdata_data.Data_value
module P = Fsdata_data.Primitive
open Generators

let check = Alcotest.check
let tc = Alcotest.test_case

let hint_name = function
  | P.Hint_bit0 -> "bit0"
  | P.Hint_bit1 -> "bit1"
  | P.Hint_bool -> "bool"
  | P.Hint_int -> "int"
  | P.Hint_float -> "float"
  | P.Hint_date -> "date"
  | P.Hint_string -> "string"
  | P.Hint_null -> "null"

let hint_t = Alcotest.testable (Fmt.of_to_string hint_name) ( = )

let classifies s expected () = check hint_t s expected (P.classify s)

let test_to_value () =
  let cases =
    [
      ("0", Dv.Int 0);
      ("1", Dv.Int 1);
      ("42", Dv.Int 42);
      ("-7", Dv.Int (-7));
      ("36.3", Dv.Float 36.3);
      ("1e3", Dv.Float 1000.);
      ("true", Dv.Bool true);
      ("NO", Dv.Bool false);
      ("#N/A", Dv.Null);
      ("", Dv.Null);
      ("2012-05-01", Dv.String "2012-05-01");
      ("hello", Dv.String "hello");
    ]
  in
  List.iter
    (fun (s, expected) ->
      check data_testable s expected (fst (P.to_value s)))
    cases

let test_parse_int_strict () =
  check Alcotest.(option int) "plain" (Some 42) (P.parse_int "42");
  check Alcotest.(option int) "sign" (Some 7) (P.parse_int "+7");
  check Alcotest.(option int) "whitespace" (Some 1) (P.parse_int " 1 ");
  check Alcotest.(option int) "trailing junk" None (P.parse_int "42x");
  check Alcotest.(option int) "hex rejected" None (P.parse_int "0x10");
  check Alcotest.(option int) "float rejected" None (P.parse_int "1.5");
  check Alcotest.(option int) "empty" None (P.parse_int "");
  check Alcotest.(option int) "lone sign" None (P.parse_int "-")

let test_parse_float_strict () =
  let t = Alcotest.(option (float 1e-9)) in
  check t "plain" (Some 1.5) (P.parse_float "1.5");
  check t "int syntax ok" (Some 42.) (P.parse_float "42");
  check t "leading dot" (Some 0.5) (P.parse_float ".5");
  check t "trailing dot" (Some 5.) (P.parse_float "5.");
  check t "exponent" (Some 1500.) (P.parse_float "1.5e3");
  check t "negative exponent" (Some 0.0015) (P.parse_float "1.5E-3");
  check t "nan spelled out rejected" None (P.parse_float "nan");
  check t "inf rejected" None (P.parse_float "inf");
  check t "junk" None (P.parse_float "1.5.2");
  check t "lone dot" None (P.parse_float ".");
  check t "lone exponent" None (P.parse_float "e3")

let test_normalize () =
  let d =
    Dv.Record
      ( Dv.json_record_name,
        [
          ("a", Dv.String "35.14229");
          ("b", Dv.String "2012");
          ("c", Dv.String "#N/A");
          ("d", Dv.String "2012-05-01");
          ("e", Dv.List [ Dv.String "1"; Dv.Int 2 ]);
        ] )
  in
  check data_testable "normalize converts string leaves"
    (Dv.Record
       ( Dv.json_record_name,
         [
           ("a", Dv.Float 35.14229);
           ("b", Dv.Int 2012);
           ("c", Dv.Null);
           ("d", Dv.String "2012-05-01");
           ("e", Dv.List [ Dv.Int 1; Dv.Int 2 ]);
         ] ))
    (P.normalize d)

let prop_normalize_idempotent =
  QCheck2.Test.make ~name:"normalize idempotent" ~count:200 ~print:print_data
    gen_data (fun d -> Dv.equal (P.normalize d) (P.normalize (P.normalize d)))

(* ----- Differential: classification against the pre-prefilter oracle ----- *)

module Oracle = Primitive_oracle

(* Literals from every branch of the cascade, and from just beside each:
   dates that fail calendar validation, words that look like month names,
   identifiers that start with a digit, numbers with stray characters. *)
let gen_literal =
  let open QCheck2.Gen in
  let pick l = oneofl l in
  let case_mix w =
    map
      (fun flips ->
        String.mapi
          (fun i c ->
            if List.nth flips (i mod List.length flips) then
              Char.uppercase_ascii c
            else c)
          w)
      (list_size (return 4) bool)
  in
  let iso =
    map3
      (fun y m d -> Printf.sprintf "%04d-%02d-%02d" y m d)
      (int_range 0 10_000) (int_range 0 13) (int_range 0 32)
  in
  let time =
    pick
      [ ""; "T13:45"; "T13:45:30Z"; " 08:05:59"; "T23:59:60"; "T12:00:00.250+02:00";
        "t01:02:03z"; " 25:00"; "T12:00:00-05:30"; "T12" ]
  in
  let month =
    pick
      [ "January"; "jan"; "FEB"; "february"; "Mar"; "april"; "May"; "june";
        "Jul"; "august"; "Sep"; "Sept"; "september"; "Oct"; "november";
        "dec"; "Mays"; "kveten"; "Ma"; "Septembers" ]
  in
  let month_date =
    map3
      (fun m d tail -> m ^ " " ^ string_of_int d ^ tail)
      (month >>= case_mix) (int_range 0 32)
      (pick [ ""; ", 2012"; " 2015"; ", 2016"; " 12:30"; ", 2012 10:00"; "," ])
  in
  let day_month =
    map3
      (fun d m y -> string_of_int d ^ " " ^ m ^ y)
      (int_range 0 32) (month >>= case_mix) (pick [ ""; " 2012"; " 2015"; ", 2016" ])
  in
  let slashed =
    oneof
      [
        map3 (fun a b y -> Printf.sprintf "%02d/%02d/%04d" a b y)
          (int_range 0 32) (int_range 0 32) (int_range 1 9999);
        map3 (fun y m d -> Printf.sprintf "%04d/%02d/%02d" y m d)
          (int_range 1 9999) (int_range 0 13) (int_range 0 32);
      ]
  in
  let feb29 =
    map2 (fun y f -> f y) (pick [ 1900; 2000; 2012; 2015; 2016; 2100 ])
      (pick
         [ Printf.sprintf "%04d-02-29"; Printf.sprintf "Feb 29, %d";
           Printf.sprintf "29 February %d"; Printf.sprintf "02/29/%d" ])
  in
  let marker =
    map3 (fun l m r -> l ^ m ^ r)
      (pick [ ""; " "; "\t"; "  " ])
      (pick [ ""; "#N/A"; "NA"; "N/A"; ":"; "-"; "na"; "n/a"; "#n/a"; "--" ])
      (pick [ ""; " "; "\n"; " \r" ])
  in
  let number =
    oneof
      [
        pick [ "0"; "1"; " 0 "; "1 "; "00"; "01"; "+1"; "-0"; "10"; "1.0" ];
        map (fun i -> Printf.sprintf "%+d" i) int;
        map (fun i -> string_of_int i) int;
        map (fun f -> Printf.sprintf "%g" f) float;
        map (fun f -> Printf.sprintf "%.3e" f) (float_range (-1e9) 1e9);
        pick [ "1e5"; "1.5E-3"; ".5"; "5."; "-.e"; "1e"; "+"; "--1"; "1e+"; "-.5e-7";
               "12345678901234567890123"; "0x1F"; "1_000"; "nan"; "inf"; "1.2.3" ];
      ]
  in
  let boolean =
    pick [ "true"; "false"; "yes"; "no"; "tru"; "yess"; "y"; "n"; "nope" ]
    >>= case_mix
  in
  let hex_id =
    string_size ~gen:(pick (String.to_seq "0123456789abcdef" |> List.of_seq)) (return 15)
  in
  let words =
    pick
      [ "user12"; "kind3"; "May 3"; "Sept 3"; "May3"; "3May"; "mayday 3";
        "September 31"; "scattered clouds"; "3 kveten"; "03d"; "A1"; "x";
        "2012"; "5-1"; "12:30"; "Z"; "T"; "a b c 1"; "" ]
  in
  let fuzz =
    string_size ~gen:(pick (String.to_seq "0123456789-/:,.+ TZtMayJnSepe" |> List.of_seq))
      (int_range 0 24)
  in
  (* every production of the date grammar, with spaces between tokens,
     2- and 1-digit fields, digit runs of five and more, times with and
     without seconds, fractions and zones, and month words in any case *)
  let grammar =
    let sp = pick [ ""; ""; ""; " "; "  " ] in
    let field = oneof [ map (Printf.sprintf "%02d") (int_range 0 99); map string_of_int (int_range 0 99) ] in
    let run = oneof [ field; map string_of_int (int_range 100 99_999); pick [ "000"; "00000"; "123456" ] ] in
    let year = oneof [ map (Printf.sprintf "%04d") (int_range 0 9999); pick [ "2016"; "2000"; "1900"; "12345"; "12" ] ] in
    let clock =
      let* h = run in
      let* s1 = sp in
      let* m = field in
      let* sec = oneof [ return ""; map (fun s -> ":" ^ s) field; pick [ ":"; ":5" ] ] in
      let* frac =
        if sec = "" then return ""
        else oneof [ return ""; map (fun d -> "." ^ d) run; return "." ]
      in
      let+ zone = pick [ ""; ""; "Z"; "z"; " Z"; "+02:00"; "-05:30"; "+2:0"; "+0200"; "Zz"; "-"; "+01:00:00" ] in
      h ^ s1 ^ ":" ^ m ^ sec ^ frac ^ zone
    in
    let time seps = oneof [ return ""; (let* sep = pick seps in let+ c = clock in sep ^ c) ] in
    let year_first =
      let* y = year in
      let* sep = pick [ "-"; "-"; "/"; "." ] in
      let* s1 = sp and* s2 = sp in
      let* m = run and* d = run in
      let+ t = time [ "T"; "t"; " "; ""; "TT" ] in
      y ^ s1 ^ sep ^ s2 ^ m ^ sep ^ d ^ t
    in
    let month_first_slash =
      let* a = run and* b = run in
      let* y = year in
      let+ t = time [ " "; "" ] in
      a ^ "/" ^ b ^ "/" ^ y ^ t
    in
    let named =
      let* w = month >>= case_mix in
      let* d = run in
      let* s1 = sp in
      let* y = oneof [ return ""; map (fun y -> ", " ^ y) year; map (fun y -> " " ^ y) year; return "," ] in
      let* t = time [ " " ] in
      let+ day_first = bool in
      if day_first then d ^ s1 ^ " " ^ w ^ y ^ t else w ^ s1 ^ " " ^ d ^ y ^ t
    in
    oneof [ year_first; month_first_slash; named ]
  in
  (* integers about the native bounds, signed and zero-padded, and
     exponents *)
  let big =
    let* sign = pick [ ""; "-"; "+" ] in
    let* pad = pick [ ""; "0"; "000000" ] in
    let+ digits =
      pick
        [ "4611686018427387903"; "4611686018427387904"; "4611686018427387905";
          "9223372036854775807"; "99999999999999999999"; "1e400"; "1E+5"; "2e-3";
          "12.5e"; "1e+"; "0.0000001"; "123456789012345678" ]
    in
    sign ^ pad ^ digits
  in
  let literal =
    frequency
      [
        (3, map2 ( ^ ) iso time); (2, slashed); (2, month_date); (2, day_month);
        (1, feb29); (2, marker); (3, number); (2, boolean); (2, hex_id);
        (2, words); (3, fuzz); (4, grammar); (2, big);
      ]
  in
  map3 (fun l s r -> l ^ s ^ r)
    (pick [ ""; ""; " "; "\t"; "\r\n "; "\012" ])
    literal
    (pick [ ""; ""; " "; "\n"; "\t"; " \012" ])

let prop_classify_matches_oracle =
  QCheck2.Test.make ~count:3000
    ~name:"classify, to_value and Date.of_string agree with the old cascade"
    ~print:(Printf.sprintf "%S") gen_literal (fun s ->
      P.classify s = Oracle.classify s
      && Fsdata_data.Date.of_string s = Oracle.Date.of_string s
      && P.parse_bool s = Oracle.parse_bool s
      && P.parse_float s = Oracle.parse_float s
      && P.is_missing s 0 (String.length s) = Oracle.is_missing s)

(* The readings of a literal wherever it lies and however it reaches a
   reader: as a slice of a larger buffer (bytes that would read
   otherwise on either side), as a JSON string with and without an
   escaped byte, and through the compiled decoder of every primitive
   shape and of its nullable form, which decodes it iff the old cascade
   gives it that shape and then to the value that cascade converts it
   to. *)
module Shape = Fsdata_core.Shape
module Compile = Fsdata_core.Shape_compile

let oracle_value s : Dv.t =
  match Oracle.classify s with
  | Oracle.Hint_null -> Dv.Null
  | Oracle.Hint_bit0 -> Dv.Int 0
  | Oracle.Hint_bit1 -> Dv.Int 1
  | Oracle.Hint_int -> Dv.Int (Option.get (Oracle.parse_int s))
  | Oracle.Hint_float -> Dv.Float (Option.get (Oracle.parse_float s))
  | Oracle.Hint_bool -> Dv.Bool (Option.get (Oracle.parse_bool s))
  | Oracle.Hint_date | Oracle.Hint_string -> Dv.String s

let compiled =
  List.concat_map
    (fun p ->
      let s = Shape.Primitive p in
      [ (s, Compile.compile s); (Shape.nullable s, Compile.compile (Shape.nullable s)) ])
    Shape.[ Bit0; Bit1; Bit; Bool; Int; Float; Date; String ]

let gen_placed_literal =
  QCheck2.Gen.(
    let padding = string_size ~gen:(oneofl (String.to_seq "0123456789-:/ .eTZMay\t" |> List.of_seq)) (int_range 0 4) in
    let* s = gen_literal in
    let* pre = padding and* post = padding in
    let+ k = int_bound 1000 in
    (s, pre, post, k))

(* [s] as a JSON string, and with its [k]th byte (if any, and ASCII)
   written as a \u escape *)
let json_literals s k =
  let part t =
    let j = Fsdata_data.Json.to_string (Dv.String t) in
    String.sub j 1 (String.length j - 2)
  in
  let n = String.length s in
  let i = if n = 0 then 0 else k mod n in
  ("\"" ^ part s ^ "\"")
  ::
  (if n = 0 || Char.code s.[i] >= 0x80 then []
   else
     [ "\"" ^ part (String.sub s 0 i) ^ Printf.sprintf "\\u%04x" (Char.code s.[i])
       ^ part (String.sub s (i + 1) (n - i - 1)) ^ "\"" ])

let prop_placed_literals_match_oracle =
  QCheck2.Test.make ~count:3000
    ~name:"slices, JSON literals and compiled string decoders agree with the old cascade"
    ~print:(fun (s, pre, post, k) -> Printf.sprintf "%S in %S ... %S (%d)" s pre post k)
    gen_placed_literal (fun (s, pre, post, k) ->
      let buf = pre ^ s ^ post and off = String.length pre and len = String.length s in
      let expected = Oracle.classify s in
      let text = match expected with Oracle.Hint_date -> Oracle.Hint_string | h -> h in
      P.classify_sub ~dates:true buf off len = expected
      && P.classify_sub ~dates:false buf off len = text
      && Fsdata_data.Date.is_date_sub buf off len = Oracle.Date.is_date s
      && List.for_all
           (fun json ->
             let literal classify dates =
               Fsdata_data.Json.Raw.literal (Fsdata_data.Json.Raw.make json) ~classify ~dates
             in
             literal true true = expected
             && literal true false = text
             && literal false true = Oracle.Hint_string
             && List.for_all
                  (fun (shape, c) ->
                    let direct =
                      match Compile.convert shape (oracle_value s) with
                      | v -> Some v
                      | exception Compile.Mismatch -> None
                    in
                    match (Compile.parse c json, direct) with
                    | Compile.Direct v, Some w -> Compile.equal_tvalue v w
                    | Compile.Fallback _, None -> true
                    | _ -> false)
                  compiled)
           (json_literals s k))

(* the shortcut the inference fold takes against a string shape *)
let prop_is_text_matches_classify =
  QCheck2.Test.make ~count:3000
    ~name:"is_text s iff classify s is date or string"
    ~print:(Printf.sprintf "%S") gen_literal (fun s ->
      P.is_text s 0 (String.length s)
      = match P.classify s with
        | P.Hint_date | P.Hint_string -> true
        | P.Hint_null | P.Hint_bit0 | P.Hint_bit1 | P.Hint_int | P.Hint_float
        | P.Hint_bool ->
            false)

let suite =
  [
    tc "classify 0" `Quick (classifies "0" P.Hint_bit0);
    tc "classify 1" `Quick (classifies "1" P.Hint_bit1);
    tc "classify 2" `Quick (classifies "2" P.Hint_int);
    tc "classify -1" `Quick (classifies "-1" P.Hint_int);
    tc "classify 36.3" `Quick (classifies "36.3" P.Hint_float);
    tc "classify true" `Quick (classifies "true" P.Hint_bool);
    tc "classify Yes" `Quick (classifies "Yes" P.Hint_bool);
    tc "classify date" `Quick (classifies "2012-05-01" P.Hint_date);
    tc "classify May 3" `Quick (classifies "May 3" P.Hint_date);
    tc "classify 3 kveten" `Quick (classifies "3 kveten" P.Hint_string);
    tc "classify #N/A" `Quick (classifies "#N/A" P.Hint_null);
    tc "classify empty" `Quick (classifies "" P.Hint_null);
    tc "classify NA" `Quick (classifies "NA" P.Hint_null);
    tc "classify text" `Quick (classifies "scattered clouds" P.Hint_string);
    tc "classify 03d stays string" `Quick (classifies "03d" P.Hint_string);
    tc "to_value" `Quick test_to_value;
    tc "parse_int strictness" `Quick test_parse_int_strict;
    tc "parse_float strictness" `Quick test_parse_float_strict;
    tc "normalize (World Bank strings)" `Quick test_normalize;
    QCheck_alcotest.to_alcotest prop_normalize_idempotent;
    QCheck_alcotest.to_alcotest prop_classify_matches_oracle;
    QCheck_alcotest.to_alcotest prop_is_text_matches_classify;
    QCheck_alcotest.to_alcotest prop_placed_literals_match_oracle;
  ]

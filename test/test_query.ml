(* Tests for the typed query layer (lib/query).

   Three contracts:

   - the concrete syntax round-trips: [Parser.parse (Syntax.to_string q)]
     is [q] for arbitrary queries (associativity, quoting, literal
     printing);
   - the checker implements the documented typing rules
     (docs/QUERY.md §Typing): pinned accept/reject cases with their
     diagnostics, plus the property that a query over a field σ does
     not have is rejected — before any corpus is involved, since
     [Check.check] never sees one;
   - the two engines agree: for ≥1000 shape-generated (σ, query,
     corpus) cases where the query is well-typed by construction,
     [Eval.eval] and [Eval_fast.eval] produce byte-identical rendered
     rows and identical stats, on corpora mixing conforming documents,
     arbitrary (mostly non-conforming) documents and a malformed one —
     and neither engine ever raises. *)

module Q = Fsdata_query
module Syntax = Q.Syntax
module Parser = Q.Parser
module Check = Q.Check
module Value = Q.Value
module Eval = Q.Eval
module Eval_fast = Q.Eval_fast
module Shape = Fsdata_core.Shape
module Shape_gen = Fsdata_core.Shape_gen
module Infer = Fsdata_core.Infer
module Json = Fsdata_data.Json
open Generators

let check = Alcotest.check
let tc = Alcotest.test_case

let parse_exn q =
  match Parser.parse_result q with
  | Ok q -> q
  | Error m -> Alcotest.fail m

let infer_exn src =
  match Infer.of_json src with
  | Ok s -> Shape.hcons s
  | Error m -> Alcotest.fail m

let render_rows (r : Value.result) =
  String.concat "\n" (List.map Value.render r.Value.rows)

(* ----- parser: pinned syntax ----- *)

let test_parser_pins () =
  let open Syntax in
  let p q = parse_exn q in
  check Alcotest.bool "count" true (p "count" = [ Count ]);
  check Alcotest.bool "take" true (p "take 10" = [ Take 10 ]);
  check Alcotest.bool "map root" true (p "map ." = [ Map [] ]);
  check Alcotest.bool "select two" true
    (p "select .name, .age" = [ Select [ [ "name" ]; [ "age" ] ] ]);
  check Alcotest.bool "quoted segment" true
    (p {|select ."odd name".x|} = [ Select [ [ "odd name"; "x" ] ] ]);
  check Alcotest.bool "precedence: and binds tighter than or" true
    (p "where .a == 1 and .b == 2 or not .c == 3"
    = [
        Where
          (Or
             ( And (Compare ([ "a" ], Eq, Lint 1), Compare ([ "b" ], Eq, Lint 2)),
               Not (Compare ([ "c" ], Eq, Lint 3)) ));
      ]);
  check Alcotest.bool "parens override" true
    (p "where .a == 1 and (.b == 2 or .c == 3)"
    = [
        Where
          (And
             ( Compare ([ "a" ], Eq, Lint 1),
               Or (Compare ([ "b" ], Eq, Lint 2), Compare ([ "c" ], Eq, Lint 3))
             ));
      ]);
  check Alcotest.bool "literals" true
    (p "where .a == null or .b != true or .c < 1.5 or .d >= \"x\""
    = [
        Where
          (Or
             ( Compare ([ "a" ], Eq, Lnull),
               Or
                 ( Compare ([ "b" ], Ne, Lbool true),
                   Or
                     ( Compare ([ "c" ], Lt, Lfloat 1.5),
                       Compare ([ "d" ], Ge, Lstring "x") ) ) ));
      ]);
  check Alcotest.bool "pipeline" true
    (p "where exists .a | select .a | take 3"
    = [ Where (Exists [ "a" ]); Select [ [ "a" ] ]; Take 3 ])

let test_parser_errors () =
  let rejects q =
    match Parser.parse_result q with
    | Ok _ -> Alcotest.failf "parsed: %s" q
    | Error m ->
        check Alcotest.bool "error mentions the offset" true
          (Astring.String.is_infix ~affix:"offset" m)
  in
  List.iter rejects
    [
      "";
      "where";
      "take";
      "take x";
      "where .a == ";
      "where .a <> 1";
      "select";
      "select .a,";
      "frobnicate .a";
      "where (.a == 1";
      "count extra";
      "where .a == 1 |";
      "where . == where";
    ]

(* ----- parser: printing round-trips ----- *)

let gen_path : Syntax.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let seg = oneofl [ "a"; "b"; "name"; "age"; "value"; "odd name"; "x-y" ] in
  list_size (int_range 0 3) seg

let gen_literal : Syntax.literal QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Syntax in
  oneof
    [
      return Lnull;
      map (fun b -> Lbool b) bool;
      map (fun n -> Lint n) (int_range (-1000) 1000);
      map (fun f -> Lfloat f) (float_range (-4.) 4.);
      map (fun s -> Lstring s) (oneofl [ ""; "x"; "two words"; "\"q\"" ]);
    ]

let gen_pred : Syntax.pred QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Syntax in
  sized @@ fix (fun self n ->
      let atom =
        oneof
          [
            map (fun p -> Exists p) gen_path;
            map3
              (fun p c l -> Compare (p, c, l))
              gen_path
              (oneofl [ Eq; Ne; Lt; Le; Gt; Ge ])
              gen_literal;
          ]
      in
      if n <= 0 then atom
      else
        oneof
          [
            atom;
            map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
            map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
            map (fun a -> Not a) (self (n - 1));
          ])

let gen_query : Syntax.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Syntax in
  let stage =
    oneof
      [
        map (fun p -> Where p) gen_pred;
        map (fun ps -> Select ps) (list_size (int_range 1 3) gen_path);
        map (fun p -> Map p) gen_path;
        map (fun n -> Take n) (int_range 0 100);
      ]
  in
  let* stages = list_size (int_range 0 3) stage in
  let* final = oneofl [ []; [ Count ] ] in
  match stages @ final with [] -> return [ Count ] | q -> return q

let prop_print_parse_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"print ∘ parse is the identity"
    ~print:Syntax.to_string gen_query (fun q ->
      match Parser.parse_result (Syntax.to_string q) with
      | Ok q' -> q' = q
      | Error m ->
          QCheck2.Test.fail_reportf "printed query does not reparse: %s" m)

(* ----- checker: pinned accept/reject ----- *)

let people =
  "{\"name\": \"ada\", \"age\": 36, \"d\": \"2020-01-02\"}\n\
   {\"name\": \"grace\", \"d\": \"2021-03-04\"}\n"

let people_sigma = lazy (infer_exn people)

let accepts sigma q =
  match Check.check sigma (parse_exn q) with
  | Ok c -> c
  | Error e -> Alcotest.failf "rejected %s: %s" q (Fmt.str "%a" Check.pp_error e)

let rejects sigma q ~at ~expected =
  match Check.check sigma (parse_exn q) with
  | Ok _ -> Alcotest.failf "accepted: %s" q
  | Error e ->
      check Alcotest.string (q ^ ": at") at e.Check.at;
      check Alcotest.bool
        (q ^ ": expected mentions " ^ expected)
        true
        (Astring.String.is_infix ~affix:expected e.Check.expected)

let test_check_accepts () =
  let sigma = Lazy.force people_sigma in
  ignore (accepts sigma "where .name == \"ada\"");
  ignore (accepts sigma "where .age >= 30 | select .name, .age");
  (* age is nullable int: null comparisons and exists are well-typed *)
  ignore (accepts sigma "where .age == null");
  ignore (accepts sigma "where exists .age | count");
  ignore (accepts sigma "where .d >= \"2020-06-01\"");
  ignore (accepts sigma "map .name | take 1");
  (* output shapes *)
  let c = accepts sigma "count" in
  check shape_testable "count output is int" (Shape.Primitive Shape.Int)
    c.Check.output;
  let c = accepts sigma "select .age" in
  (match Shape.strip_nullable c.Check.output with
  | Shape.Record { fields = [ ("age", a) ]; _ } ->
      check shape_testable "selected nullable field stays nullable"
        (Shape.nullable (Shape.Primitive Shape.Int))
        a
  | s -> Alcotest.failf "unexpected select output %s" (Shape.to_string s));
  (* pruning: only touched fields survive *)
  let c = accepts sigma "where .age >= 30 | select .name" in
  match Shape.strip_nullable c.Check.pruned with
  | Shape.Record { fields; _ } ->
      check
        (Alcotest.list Alcotest.string)
        "pruned σ keeps exactly the touched fields" [ "name"; "age" ]
        (List.map fst fields)
  | s -> Alcotest.failf "unexpected pruned shape %s" (Shape.to_string s)

let test_check_rejects () =
  let sigma = Lazy.force people_sigma in
  rejects sigma "where .zip == 1" ~at:".zip" ~expected:"field 'zip'";
  rejects sigma "select .name.first" ~at:".name.first" ~expected:"field 'first'";
  rejects sigma "where .name < 3" ~at:".name" ~expected:"numeric";
  rejects sigma "where .name == null" ~at:".name" ~expected:"nullable";
  rejects sigma "where .age < null" ~at:".age" ~expected:"equality";
  rejects sigma "where .age == true" ~at:".age" ~expected:"boolean";
  rejects sigma "where .d == \"not-a-date\"" ~at:".d" ~expected:"date";
  rejects sigma "count | select .name" ~at:"." ~expected:"final";
  rejects sigma "select .name, .age.name" ~at:".age.name" ~expected:"repeats";
  (* the checker never touches a corpus: σ alone decides *)
  rejects (Shape.Primitive Shape.Int) "where .a == 1" ~at:".a"
    ~expected:"field 'a'"

(* ----- well-typed queries generated from σ ----- *)

(* Every path reachable through records (nullable positions are
   transparent, as in [Check.resolve]). *)
let rec leaf_paths ?(prefix = []) (s : Shape.t) :
    (Syntax.path * Shape.t) list =
  match s with
  | Shape.Nullable s' -> leaf_paths ~prefix s'
  | Shape.Record { fields; _ } ->
      List.concat_map
        (fun (f, sf) ->
          let p = prefix @ [ f ] in
          (p, sf) :: leaf_paths ~prefix:p sf)
        fields
  | _ -> []

(* A literal the checker accepts for the (stripped) shape at a path,
   with the cmp generator to draw from. *)
let literal_for (s : Shape.t) :
    (Syntax.cmp list * Syntax.literal) option =
  let open Syntax in
  let any = [ Eq; Ne; Lt; Le; Gt; Ge ] in
  match Shape.strip_nullable s with
  | Shape.Primitive (Shape.Int | Shape.Bit0 | Shape.Bit1) ->
      Some (any, Lint 1)
  | Shape.Primitive Shape.Float -> Some (any, Lfloat 0.5)
  | Shape.Primitive (Shape.Bool | Shape.Bit) -> Some ([ Eq; Ne ], Lbool true)
  | Shape.Primitive Shape.String -> Some (any, Lstring "sample")
  | Shape.Primitive Shape.Date -> Some (any, Lstring "2001-02-03")
  | _ -> None

let dedup_by_last paths =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun p ->
      match List.rev p with
      | [] -> false
      | name :: _ ->
          if Hashtbl.mem seen name then false
          else (
            Hashtbl.add seen name ();
            true))
    paths

(* Build a query that is well-typed against [sigma] by construction:
   an optional [where] over compatible atoms, an optional projection,
   an optional terminal. *)
let gen_wellformed_query sigma : Syntax.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Syntax in
  let paths = leaf_paths sigma in
  let atoms =
    List.filter_map
      (fun (p, s) ->
        match literal_for s with
        | Some (cmps, lit) -> Some (p, cmps, lit)
        | None -> None)
      paths
  in
  let gen_atom =
    match (atoms, paths) with
    | [], [] -> None
    | [], _ -> Some (map (fun (p, _) -> Exists p) (oneofl paths))
    | _ ->
        Some
          (oneof
             [
               map (fun (p, _) -> Exists p) (oneofl paths);
               (let* p, cmps, lit = oneofl atoms in
                let* c = oneofl cmps in
                return (Compare (p, c, lit)));
             ])
  in
  let gen_where =
    match gen_atom with
    | None -> return []
    | Some atom ->
        let* n = int_range 0 2 in
        if n = 0 then return []
        else
          let* a = atom in
          let* p =
            if n = 1 then return a
            else
              let* b = atom in
              oneofl [ And (a, b); Or (a, b); Not a ]
          in
          return [ Where p ]
  in
  let gen_project =
    match paths with
    | [] -> return []
    | _ ->
        let* k = int_range 0 2 in
        if k = 0 then return []
        else if k = 1 then
          let* p, _ = oneofl paths in
          return [ Map p ]
        else
          let* ps = list_size (int_range 1 3) (oneofl paths) in
          let ps = dedup_by_last (List.map fst ps) in
          if ps = [] then return [] else return [ Select ps ]
  in
  let gen_final =
    let* k = int_range 0 2 in
    if k = 0 then return []
    else if k = 1 then
      let* n = int_range 0 4 in
      return [ Take n ]
    else return [ Count ]
  in
  let* w = gen_where in
  let* p = gen_project in
  let* f = gen_final in
  match w @ p @ f with [] -> return [ Count ] | q -> return q

let gen_case =
  let open QCheck2.Gen in
  let* s = gen_core_shape in
  let sigma = Shape.hcons s in
  let* q = gen_wellformed_query sigma in
  let* noise = list_size (int_range 0 2) gen_data in
  return (sigma, q, noise)

let print_case (sigma, q, _) =
  Printf.sprintf "σ = %s\nquery = %s" (print_shape sigma)
    (Syntax.to_string q)

(* The differential contract: identical rendered rows and stats, on a
   corpus of conforming samples + arbitrary documents + one malformed
   line. Neither engine may raise. *)
let prop_engines_agree =
  QCheck2.Test.make ~count:1200
    ~name:"eval ≡ eval_fast on shape-generated corpora (byte-for-byte)"
    ~print:print_case gen_case (fun (sigma, q, noise) ->
      match Shape_gen.samples ~count:4 sigma with
      | exception Invalid_argument _ -> true (* ⊥-shaped: no witness *)
      | docs ->
          let conforming = List.map Json.to_string docs in
          let arbitrary = List.map Json.to_string noise in
          let corpus =
            String.concat "\n"
              (conforming @ [ "{\"unclosed\": " ] @ arbitrary)
          in
          match Check.check sigma q with
          | Error e ->
              QCheck2.Test.fail_reportf
                "generated query is ill-typed: %s"
                (Fmt.str "%a" Check.pp_error e)
          | Ok checked -> (
              let r1 = Eval.eval checked corpus in
              let r2 = Eval_fast.eval (Eval_fast.compile checked) corpus in
              let rows1 = render_rows r1 and rows2 = render_rows r2 in
              if rows1 <> rows2 then
                QCheck2.Test.fail_reportf "rows differ:\n%s\n--- vs ---\n%s"
                  rows1 rows2
              else
                match (r1.Value.stats, r2.Value.stats) with
                | s1, s2 when s1 = s2 -> true
                | s1, s2 ->
                    QCheck2.Test.fail_reportf
                      "stats differ: {scanned=%d;matched=%d;skipped=%d;\
                       malformed=%d} vs {scanned=%d;matched=%d;skipped=%d;\
                       malformed=%d}"
                      s1.Value.scanned s1.Value.matched s1.Value.skipped
                      s1.Value.malformed s2.Value.scanned s2.Value.matched
                      s2.Value.skipped s2.Value.malformed))

(* Ill-typed by construction: a path σ cannot resolve is always
   rejected — and [Check.check]'s signature makes the pre-execution
   claim structural, no corpus is in scope at all. *)
let prop_unknown_field_rejected =
  QCheck2.Test.make ~count:500 ~name:"unknown field is always rejected"
    ~print:print_shape gen_core_shape (fun s ->
      let sigma = Shape.hcons s in
      match
        Check.check sigma (parse_exn "where .zz_no_such_field == 1")
      with
      | Error _ -> true
      | Ok _ ->
          QCheck2.Test.fail_reportf "accepted a field σ does not have")

(* ----- evaluation semantics pins ----- *)

let test_eval_pins () =
  let corpus =
    "{\"name\": \"ada\", \"age\": 36}\n{\"name\": \"bob\", \"age\": 25}\n\
     {\"name\": \"grace\"}\n"
  in
  let sigma = infer_exn corpus in
  let run q =
    match Check.check sigma (parse_exn q) with
    | Error e -> Alcotest.failf "rejected: %s" (Fmt.str "%a" Check.pp_error e)
    | Ok c -> Eval.eval c corpus
  in
  let r = run "where .age >= 30 | select .name" in
  check Alcotest.string "filter+project" "{\"name\":\"ada\"}" (render_rows r);
  (* a missing nullable field projects as an explicit null *)
  let r = run "select .name, .age" in
  check Alcotest.string "missing nullable field renders as null"
    "{\"name\":\"ada\",\"age\":36}\n{\"name\":\"bob\",\"age\":25}\n\
     {\"name\":\"grace\",\"age\":null}"
    (render_rows r);
  let r = run "where .age == null | count" in
  check Alcotest.string "null filter + count" "1" (render_rows r);
  let r = run "map .name | take 2" in
  check Alcotest.string "map + take" "\"ada\"\n\"bob\"" (render_rows r);
  check Alcotest.int "take stops the scan early" 2 r.Value.stats.Value.scanned;
  (* malformed and non-conforming accounting *)
  let r = run "count" in
  check Alcotest.int "all scanned" 3 r.Value.stats.Value.scanned;
  check Alcotest.int "none skipped" 0 r.Value.stats.Value.skipped

(* ----- eval ≡ eval_fast where the compiled engine skips ----- *)

(* Documents whose untouched members the compiled engine reads on their
   tokens (Raw.skip_value) and whose keys it matches in place: each is
   put between two clean documents, and both engines must give the same
   rows and stats. [malformed] is what both must count; [row] is a row
   the first query must give, when the document conforms. *)
let skip_cases =
  let deep n = String.make n '[' ^ String.make n ']' in
  [
    ("malformed array in an untouched member", {|{"kind":"a","id":3,"payload":[1,,2]}|}, 1, None);
    ("unterminated string in an untouched member", {|{"kind":"a","id":3,"payload":"abc}|}, 1, None);
    ("raw control character in an untouched member", "{\"kind\":\"a\",\"id\":3,\"payload\":\"a\001b\"}", 1, None);
    ("nesting past the bound in an untouched member", {|{"kind":"a","id":3,"payload":|} ^ deep 10_000 ^ "}", 1, None);
    ("nesting at the bound in an untouched member", {|{"kind":"a","id":3,"payload":|} ^ deep 9_999 ^ "}", 0, Some {|{"id":3}|});
    ("escaped spelling of a pruned key", {|{"\u006bind":"a","id":3}|}, 0, Some {|{"id":3}|});
    ("escaped key that decodes to an unknown name", {|{"kind":"a","\u0078yz":[1,{"q":2}],"id":3}|}, 0, Some {|{"id":3}|});
    ("pruned key repeated around untouched members",
      {|{"kind":"b","payload":{"x":[]},"at":"1999-01-01","kind":"a","payload":7,"id":2,"id":3}|}, 0, Some {|{"id":3}|});
    ("untouched members only", {|{"payload":{"x":[1]},"at":"2020-01-01"}|}, 0, None);
  ]

let test_skip_cases () =
  let clean =
    {|{"kind":"a","id":1,"payload":{"x":[1,2]},"at":"2015-01-02"}
{"kind":"b","id":2,"payload":{"x":[]},"at":"2016-03-04T05:06:07"}|}
  in
  let sigma = infer_exn clean in
  let queries =
    [ {|where .kind == "a" | select .id|}; "select .kind, .id"; {|where .at > "2015-06-01" | select .id, .at|}; "count" ]
  in
  List.iter
    (fun (name, doc, malformed, row) ->
      let corpus = clean ^ "\n" ^ doc ^ "\n" ^ clean ^ "\n" in
      List.iteri
        (fun i q ->
          match Check.check sigma (parse_exn q) with
          | Error e -> Alcotest.failf "%s: rejected: %s" q (Fmt.str "%a" Check.pp_error e)
          | Ok checked ->
              let r1 = Eval.eval checked corpus in
              let r2 = Eval_fast.eval (Eval_fast.compile checked) corpus in
              let label what = Printf.sprintf "%s, %s: %s" name q what in
              check Alcotest.string (label "rows") (render_rows r1) (render_rows r2);
              check Alcotest.bool (label "stats") true (r1.Value.stats = r2.Value.stats);
              check Alcotest.int (label "malformed") malformed r2.Value.stats.Value.malformed;
              if i = 0 then
                Option.iter
                  (fun row ->
                    check Alcotest.bool (label ("row " ^ row)) true
                      (List.mem row (List.map Value.render r2.Value.rows)))
                  row)
        queries)
    skip_cases

(* Both engines on [corpus] under each query: the same rows and stats;
   the compiled engine's are returned *)
let engines_agree ~label sigma corpus q =
  match Check.check sigma (parse_exn q) with
  | Error e -> Alcotest.failf "%s: rejected: %s" q (Fmt.str "%a" Check.pp_error e)
  | Ok checked ->
      let r1 = Eval.eval checked corpus in
      let r2 = Eval_fast.eval (Eval_fast.compile checked) corpus in
      let label what = Printf.sprintf "%s, %s: %s" label q what in
      check Alcotest.string (label "rows") (render_rows r1) (render_rows r2);
      check Alcotest.bool (label "stats") true (r1.Value.stats = r2.Value.stats);
      r2

(* ----- eval ≡ eval_fast on wide records: the key table ----- *)

(* 200 keys of one length, so that length tells no key from another:
   slots first, in the middle and last. Each document is put between two
   clean ones. *)
let wide_key i = Printf.sprintf "k%03d" i

let wide_doc ?(value = fun i -> string_of_int i) ?(extra = []) ?(skip = -1) () =
  "{"
  ^ String.concat ","
      (List.filter_map
         (fun i -> if i = skip then None else Some (Printf.sprintf "%S:%s" (wide_key i) (value i)))
         (List.init 200 Fun.id)
      @ extra)
  ^ "}"

let test_wide_keys () =
  let clean = wide_doc () ^ "\n" ^ wide_doc ~value:(fun i -> string_of_int (i + 1)) () in
  let sigma = infer_exn clean in
  let queries =
    [ "where .k000 >= 0 | select .k100, .k199"; "where .k199 > 199 | select .k000";
      "select .k000, .k100, .k199"; "where .k100 == 100 | count" ]
  in
  let cases =
    [
      ("clean", wide_doc ());
      ("a slot name written with an escape",
        wide_doc ~skip:100 ~extra:[ {|"k100":7|} ] ());
      ("an untouched name written with an escape", wide_doc ~extra:[ {|"k200":7|} ] ());
      ("a slot key repeated after 150 untouched members",
        wide_doc ~extra:(List.init 150 (fun i -> Printf.sprintf {|"u%03d":%d|} i i) @ [ {|"k100":-5|} ]) ());
      ("a repeated slot key that does not conform",
        wide_doc ~extra:(List.init 150 (fun i -> Printf.sprintf {|"u%03d":%d|} i i) @ [ {|"k199":"x"|} ]) ());
      ("keys that are prefixes of slot names",
        wide_doc ~extra:[ {|"k":1|}; {|"k1":2|}; {|"k10":3|}; {|"k19":"x"|}; {|"k00":null|} ] ());
      ("keys that extend slot names", wide_doc ~extra:[ {|"k1000":"x"|}; {|"k0000":[1]|} ] ());
      ("a slot missing", wide_doc ~skip:199 ());
    ]
  in
  List.iter
    (fun (name, doc) ->
      let corpus = clean ^ "\n" ^ doc ^ "\n" ^ clean ^ "\n" in
      List.iter (fun q -> ignore (engines_agree ~label:name sigma corpus q)) queries)
    cases;
  let corpus = clean ^ "\n" ^ snd (List.nth cases 3) ^ "\n" in
  let r = engines_agree ~label:"repeated" sigma corpus "select .k100" in
  check Alcotest.string "the last binding of a repeated slot key wins"
    "{\"k100\":100}\n{\"k100\":101}\n{\"k100\":-5}" (render_rows r)

(* ----- eval ≡ eval_fast on deferred slots ----- *)

(* A slot that no [where] reads is checked where it lies and built only
   for a kept row. A dropped row whose slot fails its check is still
   skipped; a kept row's built value is the conversion's, not the
   source text. *)
let test_deferred_slots () =
  let clean =
    {|{"kind":"a","id":1,"at":"2015-01-02","x":1.5,"b":true}
{"kind":"b","id":2,"at":"2016-03-04T05:06:07","x":2,"b":false}|}
  in
  let sigma = infer_exn clean in
  let q = {|where .kind == "a" | select .id, .at, .x, .b|} in
  let cases =
    [
      ("a select-only slot failing its check in a dropped row",
        {|{"kind":"b","id":3,"at":"not a date","x":1.0,"b":true}|}, 1, []);
      ("a select-only number slot failing its check in a dropped row",
        {|{"kind":"b","id":"three","at":"2015-01-02","x":1.0,"b":true}|}, 1, []);
      ("a select-only slot failing its check in a kept row",
        {|{"kind":"a","id":3,"at":"2015-01-02","x":"abc","b":true}|}, 1, []);
      ("built forms that differ from the source",
        {|{"kind":"a","id":3,"at":"2015-03-01T00:00:00","x":"12.3400","b":"1"}|}, 0,
        [ {|{"id":3,"at":"2015-03-01","x":12.34,"b":true}|} ]);
      ("numeric strings in number slots, a repeated deferred key",
        {|{"kind":"a","id":" 7 ","at":"2015-01-02","x":"-3","at":"May 3, 2012","b":"0","x":" 1e2 "}|}, 0,
        [ {|{"id":7,"at":"2012-05-03","x":100.0,"b":false}|} ]);
      ("a missing marker in a number slot", {|{"kind":"a","id":3,"at":"2015-01-02","x":"NA","b":true}|}, 1, []);
      ("escaped deferred literals",
        {|{"kind":"a","id":"4","at":"2015-01-02","x":"1.5","b":"true"}|}, 0,
        [ {|{"id":4,"at":"2015-01-02","x":1.5,"b":true}|} ]);
    ]
  in
  List.iter
    (fun (name, doc, skipped, rows) ->
      let corpus = clean ^ "\n" ^ doc ^ "\n" ^ clean ^ "\n" in
      List.iter
        (fun q' ->
          let r = engines_agree ~label:name sigma corpus q' in
          if q' == q then begin
            check Alcotest.int (name ^ ": skipped") skipped r.Value.stats.Value.skipped;
            List.iter
              (fun row ->
                check Alcotest.bool (name ^ ": row " ^ row) true
                  (List.mem row (List.map Value.render r.Value.rows)))
              rows
          end)
        [ q; {|where .kind == "b" | count|}; {|where .kind != "x" | map .at|};
          {|where .id > 0 | select .x|} ])
    cases

(* A deferred slot's check against its decoder, on one literal: both
   succeed and stop at the same offset, or both fail alike. *)
let gen_slot_shape =
  let open QCheck2.Gen in
  let* p =
    oneofl Shape.[ Int; Float; Bool; Bit; Bit0; Bit1; Date; String ]
  in
  oneofl [ Shape.Primitive p; Shape.Nullable (Shape.Primitive p) ]

let gen_slot_literal =
  let open QCheck2.Gen in
  let contents =
    [ ""; " "; "0"; "1"; "00"; "-0"; "+1"; "12"; " 12 "; "-7"; "1.5"; "12.3400"; "1e5"; ".5"; "1.";
      "99999999999999999999"; "yes"; "no"; "TRUE"; "False"; "NA"; "N/A"; "#N/A"; "-"; ":";
      "2015-03-01"; "2015-03-01T00:00:00"; "2015/13/01"; "May 3"; "3 kveten"; "abc"; "1a";
      {|1|}; {|12|}; {|true|}; {|2015-01-02|}; {|a\"b|} ]
  in
  let tokens =
    [ "0"; "1"; "-0"; "2"; "-12"; "1.5"; "1e3"; "0.0"; "99999999999999999999"; "true"; "false";
      "null"; "{}"; "[1]"; "tru"; "nul"; "-"; "01"; "1."; "\"abc"; "\"a\\qb\""; "\"\001\""; "x"; "" ]
  in
  let* lit =
    oneof [ map (fun c -> "\"" ^ c ^ "\"") (oneofl contents); oneofl tokens;
            map (fun i -> string_of_int i) int; map (fun f -> Printf.sprintf "%.17g" f) float ]
  in
  let* ws = oneofl [ ""; " "; "\n " ] in
  let* rest = oneofl [ ""; ","; "}"; " ]" ] in
  return (ws ^ lit ^ rest)

let prop_check_matches_decoder =
  QCheck2.Test.make ~count:800
    ~name:"a deferred slot's check succeeds iff its decoder does, at the same offset"
    ~print:(fun (s, lit) -> Printf.sprintf "%s on %S" (print_shape s) lit)
    QCheck2.Gen.(pair gen_slot_shape gen_slot_literal)
    (fun (s, lit) ->
      let module Sc = Fsdata_core.Shape_compile in
      let outcome read =
        let st = Json.Raw.make lit in
        match read st with
        | () -> `Stop (Json.Raw.offset st)
        | exception Sc.Mismatch -> `Mismatch
        | exception Fsdata_data.Diagnostic.Parse_error d -> `Fault d
      in
      match Sc.checker s with
      | None -> QCheck2.Test.fail_reportf "no check for a primitive slot"
      | Some check ->
          let decode st = ignore (Sc.decoder (Sc.compile s) st) in
          outcome check = outcome decode)

let suite =
  [
    tc "parser: pinned syntax" `Quick test_parser_pins;
    tc "parser: pinned errors" `Quick test_parser_errors;
    tc "check: accepts and output shapes" `Quick test_check_accepts;
    tc "check: pinned rejections" `Quick test_check_rejects;
    tc "eval: pinned semantics" `Quick test_eval_pins;
    QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
    QCheck_alcotest.to_alcotest prop_engines_agree;
    QCheck_alcotest.to_alcotest prop_unknown_field_rejected;
    tc "eval ≡ eval_fast: untouched members and in-place keys" `Quick test_skip_cases;
    tc "eval ≡ eval_fast: wide records and the key table" `Quick test_wide_keys;
    tc "eval ≡ eval_fast: deferred slots" `Quick test_deferred_slots;
    QCheck_alcotest.to_alcotest prop_check_matches_decoder;
  ]

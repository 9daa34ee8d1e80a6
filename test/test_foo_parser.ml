(* The Foo concrete-syntax parser: golden cases and print/parse
   round-trips over provider-generated classes and random user programs.

   The printed form does not carry the type annotations of None/nil, so
   round-trips are compared up to those annotations (the same equivalence
   the evaluator's value equality uses). *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
open Fsdata_foo.Syntax
module P = Fsdata_foo.Parser
module Provide = Fsdata_provider.Provide

let tc = Alcotest.test_case
let check = Alcotest.check
let string_ s = EData (Dv.String s)

(* equality up to None/nil annotations *)
let rec eq_expr a b =
  match (a, b) with
  | EData d1, EData d2 -> Dv.equal d1 d2
  | EDate d1, EDate d2 -> Fsdata_data.Date.equal d1 d2
  | EVar x, EVar y -> x = y
  | ELam (x1, t1, e1), ELam (x2, t2, e2) -> x1 = x2 && ty_equal t1 t2 && eq_expr e1 e2
  | EApp (a1, a2), EApp (b1, b2)
  | EEq (a1, a2), EEq (b1, b2)
  | ECons (a1, a2), ECons (b1, b2) ->
      eq_expr a1 b1 && eq_expr a2 b2
  | EMember (e1, n1), EMember (e2, n2) -> n1 = n2 && eq_expr e1 e2
  | ENew (c1, a1), ENew (c2, a2) ->
      c1 = c2 && List.length a1 = List.length a2 && List.for_all2 eq_expr a1 a2
  | ENone _, ENone _ | ENil _, ENil _ | EExn, EExn -> true
  | ESome e1, ESome e2 -> eq_expr e1 e2
  | EMatchOption (s1, x1, a1, b1), EMatchOption (s2, x2, a2, b2) ->
      x1 = x2 && eq_expr s1 s2 && eq_expr a1 a2 && eq_expr b1 b2
  | EIf (c1, t1, f1), EIf (c2, t2, f2) ->
      eq_expr c1 c2 && eq_expr t1 t2 && eq_expr f1 f2
  | EMatchList (s1, h1, t1, a1, b1), EMatchList (s2, h2, t2, a2, b2) ->
      h1 = h2 && t1 = t2 && eq_expr s1 s2 && eq_expr a1 a2 && eq_expr b1 b2
  | EOp o1, EOp o2 -> eq_op o1 o2
  | _ -> false

and eq_op o1 o2 =
  match (o1, o2) with
  | ConvFloat (s1, e1), ConvFloat (s2, e2)
  | ConvPrim (s1, e1), ConvPrim (s2, e2)
  | HasShape (s1, e1), HasShape (s2, e2) ->
      Shape.equal s1 s2 && eq_expr e1 e2
  | ConvField (a1, b1, e1, f1), ConvField (a2, b2, e2, f2) ->
      a1 = a2 && b1 = b2 && eq_expr e1 e2 && eq_expr f1 f2
  | ConvNull (e1, f1), ConvNull (e2, f2)
  | ConvElements (e1, f1), ConvElements (e2, f2) ->
      eq_expr e1 e2 && eq_expr f1 f2
  | ConvBool e1, ConvBool e2 | ConvDate e1, ConvDate e2
  | IntOfFloat e1, IntOfFloat e2 ->
      eq_expr e1 e2
  | ConvSelect (s1, m1, e1, f1), ConvSelect (s2, m2, e2, f2) ->
      Shape.equal s1 s2 && m1 = m2 && eq_expr e1 e2 && eq_expr f1 f2
  | _ -> false

let roundtrip_expr e =
  match P.parse_expr_result (expr_to_string e) with
  | Ok e' -> eq_expr e e'
  | Error _ -> false

let golden_exprs =
  [
    ("42", int_ 42);
    ("-3.5", float_ (-3.5));
    ({|"hello"|}, string_ "hello");
    ("null", EData Dv.Null);
    ("true", bool_ true);
    ("x", EVar "x");
    ("exn", EExn);
    ("None", ENone TData);
    ("nil", ENil TData);
    ("Some(1)", ESome (int_ 1));
    ("1 :: 2 :: nil", ECons (int_ 1, ECons (int_ 2, ENil TData)));
    ("x = y", EEq (EVar "x", EVar "y"));
    ("f x y", EApp (EApp (EVar "f", EVar "x"), EVar "y"));
    ("x.Name", EMember (EVar "x", "Name"));
    ("new C(1, \"a\")", ENew ("C", [ int_ 1; string_ "a" ]));
    ("if b then 1 else 2", EIf (EVar "b", int_ 1, int_ 2));
    ( "(\\x:int. x) 5",
      EApp (ELam ("x", TInt, EVar "x"), int_ 5) );
    ( "match o with | Some(v) -> v | None -> 0",
      EMatchOption (EVar "o", "v", EVar "v", int_ 0) );
    ( "match l with | h :: t -> h | nil -> 0",
      EMatchList (EVar "l", "h", "t", EVar "h", int_ 0) );
    ("int(x)", EOp (IntOfFloat (EVar "x")));
    ("convBool(x)", EOp (ConvBool (EVar "x")));
    ( "convPrim(int, x)",
      EOp (ConvPrim (Shape.Primitive Shape.Int, EVar "x")) );
    ( "hasShape(p {a: int}, x)",
      EOp (HasShape (Shape.record "p" [ ("a", Shape.Primitive Shape.Int) ], EVar "x"))
    );
    ( "convField(p, a, x, \\v:Data. convPrim(string, v))",
      EOp
        (ConvField
           ( "p", "a", EVar "x",
             ELam ("v", TData, EOp (ConvPrim (Shape.Primitive Shape.String, EVar "v")))
           )) );
    ( "convSelect([int], *, x, k)",
      EOp
        (ConvSelect
           (Shape.collection (Shape.Primitive Shape.Int), Mult.Multiple, EVar "x", EVar "k"))
    );
    ( "[1; [true]; p {a \xe2\x86\xa6 null}]",
      EData
        (Dv.List
           [ Dv.Int 1; Dv.List [ Dv.Bool true ]; Dv.Record ("p", [ ("a", Dv.Null) ]) ])
    );
  ]

let test_golden () =
  List.iter
    (fun (src, expected) ->
      match P.parse_expr_result src with
      | Ok e ->
          if not (eq_expr e expected) then
            Alcotest.failf "%S parsed to %a" src pp_expr e
      | Error e -> Alcotest.failf "%S: %s" src e)
    golden_exprs

let test_golden_types () =
  List.iter
    (fun (src, expected) ->
      match P.parse_ty_result src with
      | Ok t -> check (Alcotest.testable pp_ty ty_equal) src expected t
      | Error e -> Alcotest.failf "%S: %s" src e)
    [
      ("int", TInt);
      ("Data", TData);
      ("list int", TList TInt);
      ("option (list string)", TOption (TList TString));
      ("(int -> bool)", TArrow (TInt, TBool));
      ("(Data -> option float)", TArrow (TData, TOption TFloat));
      ("Person", TClass "Person");
    ]

let test_errors () =
  List.iter
    (fun src ->
      match P.parse_expr_result src with
      | Error _ -> ()
      | Ok e -> Alcotest.failf "%S parsed to %a" src pp_expr e)
    [ ""; "("; "new"; "Some("; "if x then y"; "match x with | Some(v) -> v";
      "convPrim(int)"; "1 ::"; "x ." ]

(* provider-generated classes round-trip through print + parse *)
let test_class_roundtrip () =
  let sample =
    {|[ { "pages": 5 },
        [ { "indicator": "GC", "date": "2012", "value": null } ] ]|}
  in
  let p = Result.get_ok (Provide.provide_json sample) in
  let printed =
    String.concat "\n" (List.map (Fmt.str "%a" pp_class) p.Provide.classes)
  in
  match P.parse_classes_result printed with
  | Error e -> Alcotest.failf "classes failed to re-parse: %s" e
  | Ok classes ->
      check Alcotest.int "class count" (List.length p.Provide.classes)
        (List.length classes);
      List.iter2
        (fun (c1 : class_def) (c2 : class_def) ->
          check Alcotest.string "name" c1.class_name c2.class_name;
          List.iter2
            (fun (m1 : member_def) (m2 : member_def) ->
              check Alcotest.string "member" m1.member_name m2.member_name;
              if not (ty_equal m1.member_ty m2.member_ty) then
                Alcotest.failf "member type mismatch for %s" m1.member_name;
              if not (eq_expr m1.member_body m2.member_body) then
                Alcotest.failf "member body mismatch for %s:\n%a\nvs\n%a"
                  m1.member_name pp_expr m1.member_body pp_expr m2.member_body)
            c1.members c2.members)
        p.Provide.classes classes

(* random provider outputs round-trip *)
let prop_provider_roundtrip =
  QCheck2.Test.make ~name:"provider classes round-trip through the parser"
    ~count:150 ~print:Generators.print_data Generators.gen_data (fun d ->
      let shape = Fsdata_core.Infer.shape_of_value ~mode:`Practical d in
      let p = Provide.provide shape in
      List.for_all
        (fun (c : class_def) ->
          match P.parse_classes_result (Fmt.str "%a" pp_class c) with
          | Ok [ c' ] ->
              c.class_name = c'.class_name
              && List.for_all2
                   (fun (m1 : member_def) (m2 : member_def) ->
                     m1.member_name = m2.member_name
                     && ty_equal m1.member_ty m2.member_ty
                     && eq_expr m1.member_body m2.member_body)
                   c.members c'.members
          | _ -> false)
        p.Provide.classes
      && roundtrip_expr p.Provide.conv)

let suite =
  [
    tc "golden expressions" `Quick test_golden;
    tc "golden types" `Quick test_golden_types;
    tc "rejected inputs" `Quick test_errors;
    tc "provided classes round-trip" `Quick test_class_roundtrip;
    QCheck_alcotest.to_alcotest prop_provider_roundtrip;
  ]

(* random user programs (Theorem 3 generator) round-trip through the
   concrete syntax *)
let prop_user_programs_roundtrip =
  let gen =
    let open QCheck2.Gen in
    let* samples =
      list_size (int_range 1 3) Generators.gen_plain_data
    in
    let shape = Fsdata_core.Infer.shape_of_samples ~mode:`Paper samples in
    let p = Provide.provide ~format:`Json shape in
    Test_safety.gen_user_program p.Provide.classes p.Provide.root_ty
  in
  QCheck2.Test.make ~name:"user programs round-trip through the parser"
    ~count:250
    ~print:(fun e -> expr_to_string e)
    gen
    (fun e -> roundtrip_expr e)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_user_programs_roundtrip ]

(* Type checking for the Foo calculus (Figure 7): positive and negative
   cases for every rule, plus class checking. *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
open Fsdata_foo.Syntax
module TC = Fsdata_foo.Typecheck

let tc = Alcotest.test_case
let check = Alcotest.check
let string_ s = EData (Dv.String s)

let int_sh = Shape.Primitive Shape.Int
let float_sh = Shape.Primitive Shape.Float
let bool_sh = Shape.Primitive Shape.Bool
let string_sh = Shape.Primitive Shape.String

let ty_t = Alcotest.testable pp_ty ty_equal

let synth ?(classes = []) ?(gamma = []) e =
  match TC.synth classes gamma e with
  | Ok t -> t
  | Error err -> Alcotest.failf "synth failed: %a" TC.pp_error err

let no_synth ?(classes = []) ?(gamma = []) name e =
  match TC.synth classes gamma e with
  | Ok t -> Alcotest.failf "%s: expected type error, got %a" name pp_ty t
  | Error _ -> ()

let checks ?(classes = []) ?(gamma = []) e t =
  match TC.check classes gamma e t with
  | Ok () -> ()
  | Error err -> Alcotest.failf "check failed: %a" TC.pp_error err

let no_check ?(classes = []) ?(gamma = []) name e t =
  match TC.check classes gamma e t with
  | Ok () -> Alcotest.failf "%s: expected type error" name
  | Error _ -> ()

(* Data values: d : Data always, primitives also at their own type. *)
let test_data_typing () =
  check ty_t "i : int" TInt (synth (int_ 42));
  check ty_t "f : float" TFloat (synth (float_ 1.5));
  check ty_t "b : bool" TBool (synth (bool_ true));
  check ty_t "s : string" TString (synth (string_ "x"));
  check ty_t "null : Data" TData (synth null);
  check ty_t "record : Data" TData (synth (EData (Dv.Record ("p", []))));
  check ty_t "list : Data" TData (synth (EData (Dv.List [])));
  (* check-mode: primitives also have type Data *)
  checks (int_ 42) TData;
  checks (string_ "x") TData;
  no_check "int is not string" (int_ 42) TString;
  no_check "record is not int" (EData (Dv.Record ("p", []))) TInt

let test_functions () =
  check ty_t "lambda" (TArrow (TInt, TInt)) (synth (lam "x" TInt (EVar "x")));
  check ty_t "application" TInt (synth (EApp (lam "x" TInt (EVar "x"), int_ 1)));
  no_synth "wrong argument" (EApp (lam "x" TInt (EVar "x"), string_ "a"));
  no_synth "apply non-function" (EApp (int_ 1, int_ 2));
  no_synth "unbound variable" (EVar "nope")

let test_options_lists () =
  check ty_t "None" (TOption TInt) (synth (ENone TInt));
  check ty_t "Some" (TOption TInt) (synth (ESome (int_ 1)));
  check ty_t "nil" (TList TString) (synth (ENil TString));
  check ty_t "cons" (TList TInt) (synth (ECons (int_ 1, ENil TInt)));
  no_synth "heterogeneous cons" (ECons (int_ 1, ENil TString));
  check ty_t "match option" TInt
    (synth (EMatchOption (ESome (int_ 1), "x", EVar "x", int_ 0)));
  no_synth "branches disagree"
    (EMatchOption (ESome (int_ 1), "x", EVar "x", string_ "s"));
  check ty_t "match list" TInt
    (synth (EMatchList (ENil TInt, "h", "t", EVar "h", int_ 0)));
  no_synth "match non-list" (EMatchList (int_ 1, "h", "t", EVar "h", int_ 0))

let test_eq_if () =
  check ty_t "eq" TBool (synth (EEq (int_ 1, int_ 2)));
  no_synth "eq across types" (EEq (int_ 1, string_ "x"));
  check ty_t "if" TInt (synth (EIf (bool_ true, int_ 1, int_ 2)));
  no_synth "if non-bool" (EIf (int_ 1, int_ 1, int_ 2));
  no_synth "if branches disagree" (EIf (bool_ true, int_ 1, string_ "x"))

(* exn checks at any type (Remark 1) but has no principal type. *)
let test_exn () =
  checks EExn TInt;
  checks EExn (TOption TString);
  checks EExn (TArrow (TInt, TInt));
  no_synth "exn has no principal type" EExn;
  (* a branch may be exn; the other determines the type *)
  check ty_t "exn branch" TInt
    (synth (EMatchOption (ESome (int_ 1), "x", EVar "x", EExn)));
  check ty_t "exn then-branch" TInt (synth (EIf (bool_ true, EExn, int_ 1)))

(* Figure 7 rules for the dynamic data operations. *)
let test_ops () =
  let d = null in
  check ty_t "hasShape : bool" TBool (synth (EOp (HasShape (int_sh, d))));
  check ty_t "convFloat : float" TFloat (synth (EOp (ConvFloat (float_sh, d))));
  check ty_t "convPrim int" TInt (synth (EOp (ConvPrim (int_sh, d))));
  check ty_t "convPrim string" TString (synth (EOp (ConvPrim (string_sh, d))));
  check ty_t "convPrim bool" TBool (synth (EOp (ConvPrim (bool_sh, d))));
  no_synth "convPrim float is not allowed" (EOp (ConvPrim (float_sh, d)));
  let k = lam "x" TData (EOp (ConvPrim (int_sh, EVar "x"))) in
  check ty_t "convNull : option" (TOption TInt) (synth (EOp (ConvNull (d, k))));
  check ty_t "convElements : list" (TList TInt)
    (synth (EOp (ConvElements (d, k))));
  check ty_t "convField : field type" TInt
    (synth (EOp (ConvField ("p", "x", d, k))));
  no_synth "op on non-Data" (EOp (ConvPrim (int_sh, ESome (int_ 1))));
  no_synth "continuation must take Data"
    (EOp (ConvNull (d, lam "x" TInt (EVar "x"))));
  check ty_t "convBool : bool" TBool (synth (EOp (ConvBool d)));
  check ty_t "convDate : date" TDate (synth (EOp (ConvDate d)));
  check ty_t "convSelect single" TInt
    (synth (EOp (ConvSelect (int_sh, Mult.Single, d, k))));
  check ty_t "convSelect optional" (TOption TInt)
    (synth (EOp (ConvSelect (int_sh, Mult.Optional_single, d, k))));
  check ty_t "convSelect multiple" (TList TInt)
    (synth (EOp (ConvSelect (int_sh, Mult.Multiple, d, k))));
  check ty_t "int(float) : int" TInt (synth (EOp (IntOfFloat (float_ 1.5))));
  no_synth "int(string)" (EOp (IntOfFloat (string_ "x")))

let sample_classes =
  [
    {
      class_name = "C";
      ctor_params = [ ("x1", TData) ];
      members =
        [
          {
            member_name = "X";
            member_ty = TInt;
            member_body = EOp (ConvPrim (int_sh, EVar "x1"));
          };
        ];
    };
  ]

let test_classes () =
  check ty_t "new C : C" (TClass "C")
    (synth ~classes:sample_classes (ENew ("C", [ null ])));
  check ty_t "member access" TInt
    (synth ~classes:sample_classes (EMember (ENew ("C", [ null ]), "X")));
  no_synth ~classes:sample_classes "unknown member"
    (EMember (ENew ("C", [ null ]), "Y"));
  no_synth "unknown class" (ENew ("D", []));
  no_synth ~classes:sample_classes "arity" (ENew ("C", []));
  no_synth ~classes:sample_classes "argument type" (ENew ("C", [ ESome (int_ 1) ]));
  (match TC.check_classes sample_classes with
  | Ok () -> ()
  | Error e -> Alcotest.failf "classes should check: %a" TC.pp_error e);
  let bad =
    [
      {
        class_name = "B";
        ctor_params = [ ("x1", TData) ];
        members =
          [
            {
              member_name = "X";
              member_ty = TString;
              member_body = EOp (ConvPrim (int_sh, EVar "x1"));
            };
          ];
      };
    ]
  in
  match TC.check_classes bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "ill-typed member body accepted"

let suite =
  [
    tc "data values (i : int and i : Data)" `Quick test_data_typing;
    tc "functions" `Quick test_functions;
    tc "options and lists" `Quick test_options_lists;
    tc "equality and conditionals" `Quick test_eq_if;
    tc "exn (Remark 1)" `Quick test_exn;
    tc "dynamic data operations (Figure 7)" `Quick test_ops;
    tc "classes (Featherweight-Java-style rules)" `Quick test_classes;
  ]

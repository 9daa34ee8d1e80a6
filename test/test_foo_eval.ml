(* Small-step evaluation of the Foo calculus (Figure 6, Part II) and the
   dynamic data operations (Part I). Includes the paper's stuck-state
   examples: convPrim(bool, 42) is stuck, convFloat(float, 42) converts. *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
open Fsdata_foo.Syntax
module Eval = Fsdata_foo.Eval

let tc = Alcotest.test_case
let check = Alcotest.check
let string_ s = EData (Dv.String s)

let int_sh = Shape.Primitive Shape.Int
let float_sh = Shape.Primitive Shape.Float
let bool_sh = Shape.Primitive Shape.Bool
let string_sh = Shape.Primitive Shape.String

let expr_t =
  Alcotest.testable pp_expr (fun a b -> Eval.eval [] (EEq (a, b)) = Eval.Value (bool_ true))

let eval ?(classes = []) e = Eval.eval classes e

let value ?classes name expected e =
  match eval ?classes e with
  | Eval.Value v -> check expr_t name expected v
  | o -> Alcotest.failf "%s: expected a value, got %a" name Eval.pp_outcome o

let stuck ?classes name e =
  match eval ?classes e with
  | Eval.Stuck _ -> ()
  | o -> Alcotest.failf "%s: expected stuck, got %a" name Eval.pp_outcome o

let exn_ ?classes name e =
  match eval ?classes e with
  | Eval.Exn -> ()
  | o -> Alcotest.failf "%s: expected exn, got %a" name Eval.pp_outcome o

(* ----- ML fragment ----- *)

let test_beta () =
  value "identity" (int_ 5) (EApp (lam "x" TInt (EVar "x"), int_ 5));
  value "const" (string_ "a")
    (EApp (EApp (lam "x" TString (lam "y" TInt (EVar "x")), string_ "a"), int_ 1));
  (* capture-avoiding substitution: (λx.λy.x) y ⇝ λy'.y *)
  (match
     eval (EApp (EApp (lam "x" TInt (lam "y" TInt (EVar "x")), EVar "y"), int_ 0))
   with
  | Eval.Stuck _ -> () (* free variable y is eventually stuck — fine *)
  | Eval.Value v ->
      Alcotest.failf "capture: unexpectedly produced %a" pp_expr v
  | _ -> ());
  let inner = EApp (lam "x" TInt (lam "y" TInt (EApp (EVar "f", EVar "x"))), EVar "y") in
  match Eval.step [] (EApp (lam "f" (TArrow (TInt, TInt)) inner, lam "z" TInt (EVar "z"))) with
  | `Step _ -> ()
  | _ -> Alcotest.fail "expected a step"

let test_subst_capture () =
  (* e[x ← y] under a binder named y must rename the binder *)
  (match subst "x" (EVar "y") (ELam ("y", TInt, EVar "x")) with
  | ELam (y', _, EVar "y") when y' <> "y" -> ()
  | e -> Alcotest.failf "capture-avoidance failed: %a" pp_expr e);
  (* no renaming needed when the binder differs *)
  (match subst "x" (int_ 1) (ELam ("z", TInt, EVar "x")) with
  | ELam ("z", _, EData (Dv.Int 1)) -> ()
  | e -> Alcotest.failf "unexpected: %a" pp_expr e);
  (* binder shadows: no substitution under same-named binder *)
  match subst "x" (int_ 1) (ELam ("x", TInt, EVar "x")) with
  | ELam ("x", _, EVar "x") -> ()
  | e -> Alcotest.failf "shadowing violated: %a" pp_expr e

let test_cond () =
  value "cond1" (int_ 1) (EIf (bool_ true, int_ 1, int_ 2));
  value "cond2" (int_ 2) (EIf (bool_ false, int_ 1, int_ 2));
  stuck "if on non-bool" (EIf (int_ 1, int_ 1, int_ 2))

let test_eq () =
  value "eq1" (bool_ true) (EEq (int_ 1, int_ 1));
  value "eq2" (bool_ false) (EEq (int_ 1, int_ 2));
  value "records compare structurally" (bool_ true)
    (EEq
       ( EData (Dv.Record ("p", [ ("a", Dv.Int 1); ("b", Dv.Int 2) ])),
         EData (Dv.Record ("p", [ ("b", Dv.Int 2); ("a", Dv.Int 1) ])) ));
  value "options" (bool_ true) (EEq (ESome (int_ 1), ESome (int_ 1)));
  value "none/some" (bool_ false) (EEq (ENone TInt, ESome (int_ 1)))

let test_match_option () =
  value "match Some" (int_ 5)
    (EMatchOption (ESome (int_ 5), "x", EVar "x", int_ 0));
  value "match None" (int_ 0)
    (EMatchOption (ENone TInt, "x", EVar "x", int_ 0));
  stuck "match non-option" (EMatchOption (int_ 1, "x", EVar "x", int_ 0))

let test_match_list () =
  value "match cons" (int_ 1)
    (EMatchList (ECons (int_ 1, ENil TInt), "h", "t", EVar "h", int_ 0));
  value "match nil" (int_ 0)
    (EMatchList (ENil TInt, "h", "t", EVar "h", int_ 0));
  value "tail" (bool_ true)
    (EMatchList
       ( ECons (int_ 1, ECons (int_ 2, ENil TInt)),
         "h", "t",
         EEq (EVar "t", ECons (int_ 2, ENil TInt)),
         bool_ false ))

let test_member () =
  let classes =
    [
      {
        class_name = "C";
        ctor_params = [ ("a", TInt); ("b", TString) ];
        members =
          [
            { member_name = "A"; member_ty = TInt; member_body = EVar "a" };
            { member_name = "B"; member_ty = TString; member_body = EVar "b" };
          ];
      };
    ]
  in
  value ~classes "member a" (int_ 7)
    (EMember (ENew ("C", [ int_ 7; string_ "s" ]), "A"));
  value ~classes "member b" (string_ "s")
    (EMember (ENew ("C", [ int_ 7; string_ "s" ]), "B"));
  stuck ~classes "unknown member" (EMember (ENew ("C", [ int_ 7; string_ "s" ]), "Z"));
  stuck "unknown class" (EMember (ENew ("D", []), "A"))

let test_exn_propagates () =
  (* C[exn] ⇝ exn for every evaluation context *)
  exn_ "in app function" (EApp (EExn, int_ 1));
  exn_ "in app argument" (EApp (lam "x" TInt (EVar "x"), EExn));
  exn_ "in if" (EIf (EExn, int_ 1, int_ 2));
  exn_ "in cons" (ECons (int_ 1, EExn));
  exn_ "in Some" (ESome EExn);
  exn_ "in member" (EMember (EExn, "A"));
  exn_ "in op" (EOp (ConvPrim (int_sh, EExn)));
  exn_ "in match" (EMatchOption (EExn, "x", EVar "x", int_ 0));
  exn_ "alone" EExn

(* ----- dynamic data operations (Figure 6, Part I) ----- *)

let test_conv_float () =
  (* the paper: convFloat(float, 42) turns 42 into 42.0 *)
  value "int to float" (float_ 42.) (EOp (ConvFloat (float_sh, int_ 42)));
  value "float unchanged" (float_ 1.5) (EOp (ConvFloat (float_sh, float_ 1.5)));
  stuck "on string" (EOp (ConvFloat (float_sh, string_ "x")));
  stuck "on null" (EOp (ConvFloat (float_sh, null)))

let test_conv_prim () =
  value "int" (int_ 42) (EOp (ConvPrim (int_sh, int_ 42)));
  value "string" (string_ "x") (EOp (ConvPrim (string_sh, string_ "x")));
  value "bool" (bool_ true) (EOp (ConvPrim (bool_sh, bool_ true)));
  (* the paper: convPrim(bool, 42) represents a stuck state *)
  stuck "convPrim(bool, 42)" (EOp (ConvPrim (bool_sh, int_ 42)));
  stuck "convPrim(int, 1.5)" (EOp (ConvPrim (int_sh, float_ 1.5)));
  stuck "convPrim(int, null)" (EOp (ConvPrim (int_sh, null)))

let test_conv_null () =
  let k = lam "x" TData (EOp (ConvPrim (int_sh, EVar "x"))) in
  value "null to None" (ENone TInt) (EOp (ConvNull (null, k)));
  value "value to Some" (ESome (int_ 5)) (EOp (ConvNull (int_ 5, k)));
  stuck "inner conversion can still be stuck" (EOp (ConvNull (string_ "x", k)))

let test_conv_field () =
  let record = EData (Dv.Record ("p", [ ("x", Dv.Int 5) ])) in
  let k = lam "v" TData (EOp (ConvPrim (int_sh, EVar "v"))) in
  value "present field" (int_ 5) (EOp (ConvField ("p", "x", record, k)));
  (* missing field passes null to the continuation *)
  value "missing field gives null"
    (ENone TInt)
    (EOp
       (ConvField
          ( "p", "y", record,
            lam "v" TData (EOp (ConvNull (EVar "v", k))) )));
  stuck "missing field then strict conversion is stuck"
    (EOp (ConvField ("p", "y", record, k)));
  stuck "wrong record name" (EOp (ConvField ("q", "x", record, k)));
  stuck "not a record" (EOp (ConvField ("p", "x", int_ 5, k)))

let test_conv_elements () =
  let k = lam "x" TData (EOp (ConvPrim (int_sh, EVar "x"))) in
  value "maps elements"
    (ECons (int_ 1, ECons (int_ 2, ENil TInt)))
    (EOp (ConvElements (EData (Dv.List [ Dv.Int 1; Dv.Int 2 ]), k)));
  value "null is the empty collection" (ENil TInt) (EOp (ConvElements (null, k)));
  value "empty list" (ENil TInt) (EOp (ConvElements (EData (Dv.List []), k)));
  stuck "element conversion can be stuck"
    (EOp (ConvElements (EData (Dv.List [ Dv.String "x" ]), k)));
  stuck "not a collection" (EOp (ConvElements (int_ 5, k)))

let test_has_shape_op () =
  value "matching" (bool_ true) (EOp (HasShape (int_sh, int_ 5)));
  value "mismatching" (bool_ false) (EOp (HasShape (bool_sh, int_ 5)))

let test_extensions () =
  value "convBool true" (bool_ true) (EOp (ConvBool (int_ 1)));
  value "convBool false" (bool_ false) (EOp (ConvBool (int_ 0)));
  value "convBool passthrough" (bool_ true) (EOp (ConvBool (bool_ true)));
  stuck "convBool 2" (EOp (ConvBool (int_ 2)));
  (match eval (EOp (ConvDate (string_ "2012-05-01"))) with
  | Eval.Value (EDate d) ->
      check Alcotest.string "convDate" "2012-05-01" (Fsdata_data.Date.to_iso8601 d)
  | o -> Alcotest.failf "convDate: %a" Eval.pp_outcome o);
  stuck "convDate non-date" (EOp (ConvDate (string_ "nope")));
  value "int(f)" (int_ 3) (EOp (IntOfFloat (float_ 3.7)));
  value "int(i)" (int_ 3) (EOp (IntOfFloat (int_ 3)));
  stuck "int(string)" (EOp (IntOfFloat (string_ "x")))

let test_conv_select () =
  let k = lam "x" TData (EOp (ConvPrim (int_sh, EVar "x"))) in
  (* ints away from 0/1, which conform to bool through the bit lattice *)
  let data = EData (Dv.List [ Dv.String "s"; Dv.Int 5; Dv.Int 7 ]) in
  value "single takes first match" (int_ 5)
    (EOp (ConvSelect (int_sh, Mult.Single, data, k)));
  value "optional present" (ESome (int_ 5))
    (EOp (ConvSelect (int_sh, Mult.Optional_single, data, k)));
  value "optional absent" (ENone TInt)
    (EOp (ConvSelect (bool_sh, Mult.Optional_single, data,
                      lam "x" TData (EOp (ConvPrim (bool_sh, EVar "x"))))));
  value "multiple collects" (ECons (int_ 5, ECons (int_ 7, ENil TInt)))
    (EOp (ConvSelect (int_sh, Mult.Multiple, data, k)));
  stuck "single with no match"
    (EOp (ConvSelect (bool_sh, Mult.Single, data, k)));
  value "null collection: optional" (ENone TInt)
    (EOp (ConvSelect (int_sh, Mult.Optional_single, null, k)));
  value "null collection: multiple" (ENil TInt)
    (EOp (ConvSelect (int_sh, Mult.Multiple, null, k)));
  stuck "null collection: single" (EOp (ConvSelect (int_sh, Mult.Single, null, k)))

let test_trace_and_fuel () =
  let e = EApp (lam "x" TInt (EVar "x"), EIf (bool_ true, int_ 1, int_ 2)) in
  let steps, outcome = Eval.trace [] e in
  check Alcotest.int "trace length" 3 (List.length steps);
  (match outcome with
  | Eval.Value _ -> ()
  | o -> Alcotest.failf "expected value, got %a" Eval.pp_outcome o);
  (* fuel exhaustion reports Timeout *)
  match Eval.eval ~fuel:1 [] (EApp (lam "x" TInt (EVar "x"), EIf (bool_ true, int_ 1, int_ 2))) with
  | Eval.Timeout -> ()
  | o -> Alcotest.failf "expected timeout, got %a" Eval.pp_outcome o

let test_eval_order_left_to_right () =
  (* constructor arguments evaluate left to right: the first stuck
     argument reports, even if a later one would raise exn *)
  match eval (ENew ("C", [ EOp (ConvPrim (bool_sh, int_ 42)); EExn ])) with
  | Eval.Stuck _ -> ()
  | o -> Alcotest.failf "expected stuck first, got %a" Eval.pp_outcome o

(* one program per construct, each with its outcome stated *)
let outcomes =
  List.iter (fun (name, e, expected) ->
    match expected with
    | `Value v -> value name v e
    | `Exn -> exn_ name e
    | `Stuck -> stuck name e)

let test_outcome_table () =
  outcomes
    [
      ("beta", EApp (lam "x" TInt (EVar "x"), int_ 5), `Value (int_ 5));
      ("if", EIf (bool_ true, int_ 1, int_ 2), `Value (int_ 1));
      ("option equality", EEq (ESome (int_ 1), ESome (int_ 1)), `Value (bool_ true));
      ( "list match",
        EMatchList (ECons (int_ 1, ENil TInt), "h", "t", EVar "h", int_ 0),
        `Value (int_ 1) );
      ("convFloat", EOp (ConvFloat (float_sh, int_ 42)), `Value (float_ 42.));
      ("ill-shaped convPrim", EOp (ConvPrim (bool_sh, int_ 42)), `Stuck);
      ("exn", EExn, `Exn);
      ("convBool 1", EOp (ConvBool (int_ 1)), `Value (bool_ true));
      ("int(3.7)", EOp (IntOfFloat (float_ 3.7)), `Value (int_ 3));
    ]

(* the inner λ is closed over x by substitution *)
let test_curried_capture () =
  outcomes
    [
      ( "curried capture",
        EApp
          (EApp (lam "x" TInt (lam "y" TInt (EEq (EVar "x", EVar "y"))), int_ 1), int_ 2),
        `Value (bool_ false) );
    ]

let suite =
  [
    tc "beta reduction and substitution" `Quick test_beta;
    tc "capture-avoiding substitution" `Quick test_subst_capture;
    tc "(cond1)/(cond2)" `Quick test_cond;
    tc "(eq1)/(eq2)" `Quick test_eq;
    tc "(match1)/(match2)" `Quick test_match_option;
    tc "(match3)/(match4)" `Quick test_match_list;
    tc "(member)" `Quick test_member;
    tc "exn propagation (Remark 1)" `Quick test_exn_propagates;
    tc "convFloat" `Quick test_conv_float;
    tc "convPrim (incl. paper's stuck example)" `Quick test_conv_prim;
    tc "convNull" `Quick test_conv_null;
    tc "convField" `Quick test_conv_field;
    tc "convElements" `Quick test_conv_elements;
    tc "hasShape" `Quick test_has_shape_op;
    tc "extensions: convBool, convDate, int(e)" `Quick test_extensions;
    tc "convSelect (Section 6.4)" `Quick test_conv_select;
    tc "trace and fuel" `Quick test_trace_and_fuel;
    tc "left-to-right evaluation" `Quick test_eval_order_left_to_right;
    tc "outcomes of hand-written programs" `Quick test_outcome_table;
    tc "curried capture by substitution" `Quick test_curried_capture;
  ]

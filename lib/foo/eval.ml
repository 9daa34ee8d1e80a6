open Syntax
module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity

type outcome =
  | Value of expr
  | Exn
  | Stuck of { redex : expr; reason : string }
  | Timeout

let pp_outcome ppf = function
  | Value v -> Fmt.pf ppf "value %a" pp_expr v
  | Exn -> Fmt.string ppf "exn"
  | Stuck { redex; reason } -> Fmt.pf ppf "stuck (%s) at %a" reason pp_expr redex
  | Timeout -> Fmt.string ppf "timeout"

let stuck redex reason = `Done (Stuck { redex; reason })

(* Structural equality of values for (eq1)/(eq2). Type annotations on
   None/nil are ignored: well-typed comparisons only ever relate values of
   the same type. *)
let rec value_equal v1 v2 =
  match (v1, v2) with
  | EData d1, EData d2 -> Dv.equal d1 d2
  | EDate d1, EDate d2 -> Fsdata_data.Date.equal d1 d2
  | ENone _, ENone _ -> true
  | ESome a, ESome b -> value_equal a b
  | ENil _, ENil _ -> true
  | ECons (a1, a2), ECons (b1, b2) -> value_equal a1 b1 && value_equal a2 b2
  | ENew (c1, args1), ENew (c2, args2) ->
      String.equal c1 c2
      && List.length args1 = List.length args2
      && List.for_all2 value_equal args1 args2
  | ELam _, ELam _ -> v1 = v2
  | _ -> false

(* The result type of a closed conversion continuation, used to annotate
   None/nil produced by convNull/convElements/convSelect on empty data.
   Provider-generated continuations are closed well-typed lambdas, so this
   always succeeds on the provided code paths. *)
let continuation_result_ty classes f =
  match Typecheck.synth classes [] f with
  | Ok (TArrow (TData, t)) -> Some t
  | _ -> None

let rec step classes e : [ `Step of expr | `Done of outcome ] =
  if is_value e then `Done (Value e)
  else
    match e with
    | EExn -> `Done Exn
    | EData _ | EDate _ | ELam _ | ENone _ | ENil _ ->
        assert false (* values, handled above *)
    | EVar x -> stuck e (Printf.sprintf "unbound variable %s" x)
    | EApp (e1, e2) ->
        frame classes e1 (fun e1' -> EApp (e1', e2)) @@ fun () ->
        frame classes e2 (fun e2' -> EApp (e1, e2')) @@ fun () ->
        (match e1 with
        | ELam (x, _, body) -> `Step (subst x e2 body)
        | _ -> stuck e "application of a non-function value")
    | EMember (e1, n) ->
        frame classes e1 (fun e1' -> EMember (e1', n)) @@ fun () ->
        (match e1 with
        | ENew (c, args) -> (
            match find_class classes c with
            | None -> stuck e (Printf.sprintf "unknown class %s" c)
            | Some cls -> (
                match find_member cls n with
                | None -> stuck e (Printf.sprintf "class %s has no member %s" c n)
                | Some m ->
                    if List.length args <> List.length cls.ctor_params then
                      stuck e "constructor arity mismatch"
                    else
                      `Step
                        (List.fold_left2
                           (fun body (x, _) arg -> subst x arg body)
                           m.member_body cls.ctor_params args)))
        | _ -> stuck e "member access on a non-object value")
    | ENew (c, args) ->
        frame_list classes args (fun args' -> ENew (c, args')) @@ fun () ->
        `Done (Value e)
    | ESome e1 -> frame classes e1 (fun e1' -> ESome e1') @@ fun () -> `Done (Value e)
    | EMatchOption (e0, x, e1, e2) ->
        frame classes e0 (fun e0' -> EMatchOption (e0', x, e1, e2)) @@ fun () ->
        (match e0 with
        | ENone _ -> `Step e2
        | ESome v -> `Step (subst x v e1)
        | _ -> stuck e "matching a non-option value against option patterns")
    | EEq (e1, e2) ->
        frame classes e1 (fun e1' -> EEq (e1', e2)) @@ fun () ->
        frame classes e2 (fun e2' -> EEq (e1, e2')) @@ fun () ->
        `Step (bool_ (value_equal e1 e2))
    | EIf (e1, e2, e3) ->
        frame classes e1 (fun e1' -> EIf (e1', e2, e3)) @@ fun () ->
        (match e1 with
        | EData (Dv.Bool true) -> `Step e2
        | EData (Dv.Bool false) -> `Step e3
        | _ -> stuck e "if on a non-boolean value")
    | ECons (e1, e2) ->
        frame classes e1 (fun e1' -> ECons (e1', e2)) @@ fun () ->
        frame classes e2 (fun e2' -> ECons (e1, e2')) @@ fun () ->
        `Done (Value e)
    | EMatchList (e0, x1, x2, e1, e2) ->
        frame classes e0 (fun e0' -> EMatchList (e0', x1, x2, e1, e2))
        @@ fun () ->
        (match e0 with
        | ENil _ -> `Step e2
        | ECons (v1, v2) -> `Step (subst x1 v1 (subst x2 v2 e1))
        | _ -> stuck e "matching a non-list value against list patterns")
    | EOp op -> step_op classes e op

and step_op classes e op =
  match op with
  | ConvFloat (s, e1) ->
      frame classes e1 (fun e1' -> EOp (ConvFloat (s, e1'))) @@ fun () ->
      (match e1 with
      | EData (Dv.Int i) -> `Step (float_ (float_of_int i))
      | EData (Dv.Float _) -> `Step e1
      | _ -> stuck e "convFloat on a non-numeric value")
  | ConvPrim (s, e1) ->
      frame classes e1 (fun e1' -> EOp (ConvPrim (s, e1'))) @@ fun () ->
      (match (s, e1) with
      | Shape.Primitive Shape.Int, EData (Dv.Int _)
      | Shape.Primitive Shape.String, EData (Dv.String _)
      | Shape.Primitive Shape.Bool, EData (Dv.Bool _) ->
          `Step e1
      | _ -> stuck e "convPrim on a value of the wrong shape")
  | ConvField (nu, nu', e1, e2) ->
      frame classes e1 (fun e1' -> EOp (ConvField (nu, nu', e1', e2)))
      @@ fun () ->
      frame classes e2 (fun e2' -> EOp (ConvField (nu, nu', e1, e2')))
      @@ fun () ->
      (match e1 with
      | EData (Dv.Record (name, fields)) when String.equal name nu -> (
          match List.assoc_opt nu' fields with
          | Some d -> `Step (EApp (e2, EData d))
          | None -> `Step (EApp (e2, EData Dv.Null)))
      | _ -> stuck e "convField on a value that is not a record of the expected name")
  | ConvNull (e1, e2) ->
      frame classes e1 (fun e1' -> EOp (ConvNull (e1', e2))) @@ fun () ->
      frame classes e2 (fun e2' -> EOp (ConvNull (e1, e2'))) @@ fun () ->
      (match e1 with
      | EData Dv.Null -> (
          match continuation_result_ty classes e2 with
          | Some t -> `Step (ENone t)
          | None -> stuck e "convNull: cannot type the continuation")
      | EData _ -> `Step (ESome (EApp (e2, e1)))
      | _ -> stuck e "convNull on a non-data value")
  | ConvElements (e1, e2) ->
      frame classes e1 (fun e1' -> EOp (ConvElements (e1', e2))) @@ fun () ->
      frame classes e2 (fun e2' -> EOp (ConvElements (e1, e2'))) @@ fun () ->
      (match e1 with
      | EData (Dv.List _ | Dv.Null) -> (
          let ds = match e1 with EData (Dv.List ds) -> ds | _ -> [] in
          match continuation_result_ty classes e2 with
          | Some t ->
              `Step
                (List.fold_right
                   (fun d acc -> ECons (EApp (e2, EData d), acc))
                   ds (ENil t))
          | None -> stuck e "convElements: cannot type the continuation")
      | _ -> stuck e "convElements on a value that is not a collection or null")
  | HasShape (s, e1) ->
      frame classes e1 (fun e1' -> EOp (HasShape (s, e1'))) @@ fun () ->
      (match e1 with
      | EData d -> `Step (bool_ (Fsdata_core.Shape_check.has_shape s d))
      | _ -> stuck e "hasShape on a non-data value")
  | ConvBool e1 ->
      frame classes e1 (fun e1' -> EOp (ConvBool e1')) @@ fun () ->
      (match e1 with
      | EData (Dv.Bool _) -> `Step e1
      | EData (Dv.Int 0) -> `Step (bool_ false)
      | EData (Dv.Int 1) -> `Step (bool_ true)
      | _ -> stuck e "convBool on a value that is not a boolean or 0/1")
  | ConvDate e1 ->
      frame classes e1 (fun e1' -> EOp (ConvDate e1')) @@ fun () ->
      (match e1 with
      | EData (Dv.String s) -> (
          match Fsdata_data.Date.of_string s with
          | Some d -> `Step (EDate d)
          | None -> stuck e "convDate on a string that is not a date")
      | _ -> stuck e "convDate on a non-string value")
  | ConvSelect (s, mult, e1, e2) ->
      frame classes e1 (fun e1' -> EOp (ConvSelect (s, mult, e1', e2)))
      @@ fun () ->
      frame classes e2 (fun e2' -> EOp (ConvSelect (s, mult, e1, e2')))
      @@ fun () ->
      (match e1 with
      | EData (Dv.List _ | Dv.Null) -> (
          let ds = match e1 with EData (Dv.List ds) -> ds | _ -> [] in
          let matches =
            List.filter (fun d -> Fsdata_core.Shape_check.has_shape s d) ds
          in
          match mult with
          | Mult.Single -> (
              match matches with
              | d :: _ -> `Step (EApp (e2, EData d))
              | [] ->
                  stuck e "convSelect: no element of the required shape")
          | Mult.Optional_single -> (
              match matches with
              | d :: _ -> `Step (ESome (EApp (e2, EData d)))
              | [] -> (
                  match continuation_result_ty classes e2 with
                  | Some t -> `Step (ENone t)
                  | None -> stuck e "convSelect: cannot type the continuation"))
          | Mult.Multiple -> (
              match continuation_result_ty classes e2 with
              | Some t ->
                  `Step
                    (List.fold_right
                       (fun d acc -> ECons (EApp (e2, EData d), acc))
                       matches (ENil t))
              | None -> stuck e "convSelect: cannot type the continuation"))
      | _ -> stuck e "convSelect on a value that is not a collection or null")
  | IntOfFloat e1 ->
      frame classes e1 (fun e1' -> EOp (IntOfFloat e1')) @@ fun () ->
      (match e1 with
      | EData (Dv.Float f) -> `Step (int_ (int_of_float f))
      | EData (Dv.Int _) -> `Step e1
      | _ -> stuck e "int(e) on a non-numeric value")

and frame classes sub rebuild k =
  if is_value sub then k ()
  else
    match step classes sub with
    | `Step sub' -> `Step (rebuild sub')
    | `Done (Value _) -> k ()
    | `Done other -> `Done other

and frame_list classes subs rebuild k =
  let rec split acc = function
    | [] -> k ()
    | sub :: rest when is_value sub -> split (sub :: acc) rest
    | sub :: rest -> (
        match step classes sub with
        | `Step sub' -> `Step (rebuild (List.rev_append acc (sub' :: rest)))
        | `Done (Value _) -> split (sub :: acc) rest
        | `Done other -> `Done other)
  in
  split [] subs

let eval ?(fuel = 1_000_000) classes e =
  let rec loop fuel e =
    if fuel <= 0 then Timeout
    else
      match step classes e with
      | `Step e' -> loop (fuel - 1) e'
      | `Done outcome -> outcome
  in
  loop fuel e

let trace ?(fuel = 10_000) classes e =
  let rec loop fuel acc e =
    if fuel <= 0 then (List.rev acc, Timeout)
    else
      match step classes e with
      | `Step e' -> loop (fuel - 1) (e' :: acc) e'
      | `Done outcome -> (List.rev acc, outcome)
  in
  loop fuel [ e ] e

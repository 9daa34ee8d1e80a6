(** Parsing the Foo calculus concrete syntax.

    Accepts the notation {!Syntax.pp_expr}, {!Syntax.pp_ty} and
    {!Syntax.pp_class} print — so expressions, types and class
    definitions round-trip through text — plus ASCII alternatives for the
    unicode symbols ([\\] or [fun] for λ, [->] for →).

    {v
      e ::= d | x | (λx:τ. e) | e e | e.N | new C(e, ...)
          | None | Some(e) | nil | e :: e | e = e
          | if e then e else e
          | match e with | Some(x) → e | None → e
          | match e with | x :: y → e | nil → e
          | convFloat(σ, e) | convPrim(σ, e) | convField(ν, ν, e, e)
          | convNull(e, e) | convElements(e, e) | hasShape(σ, e)
          | convBool(e) | convDate(e) | convSelect(σ, ψ, e, e) | int(e)
          | exn | date(YYYY-MM-DD)
      d ::= null | true | false | i | f | "s" | [d; ...] | ν {f ↦ d, ...}
      τ ::= int | float | bool | string | date | Data | C
          | (τ -> τ) | list τ | option τ
      L ::= type C(x : τ, ...) = member N : τ = e ...
    v}

    Shapes inside the dynamic data operations use the
    {!Fsdata_core.Shape_parser} notation. Application is left-associative
    and binds tighter than [::], which binds tighter than [=]; member
    access binds tightest. *)

exception Parse_error of { position : int; message : string }

val parse_expr : string -> Syntax.expr
(** @raise Parse_error on malformed input. *)

val parse_expr_result : string -> (Syntax.expr, string) result

val parse_ty_result : string -> (Syntax.ty, string) result

val parse_classes : string -> Syntax.class_env
(** Parse a sequence of class definitions. *)

val parse_classes_result : string -> (Syntax.class_env, string) result

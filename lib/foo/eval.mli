(** Small-step evaluation of the Foo calculus (Figure 6).

    Reduction [L, e ~> e'] proceeds left-to-right, call-by-value, through
    the evaluation contexts of Section 4.1. Evaluation has four outcomes:

    - a value,
    - the exception [exn] of Remark 1, which propagates through any
      context ([C\[exn\] ~> exn]),
    - a stuck state — a dynamic data operation applied to data of the
      wrong shape, e.g. [convPrim(bool, 42)]; relative type safety
      (Theorem 3) says this never happens when the input's shape is
      preferred over the samples' shape,
    - divergence, cut off by the [fuel] parameter (well-typed Foo programs
      terminate — the calculus has no recursion — but the interpreter is
      defensive anyway).

    The dynamic data operations follow Figure 6, Part I:

    {v
      hasShape(s, d)                ~> true/false
      convFloat(float, i)           ~> f          (f = i)
      convFloat(float, f)           ~> f
      convPrim(p, d)                ~> d          ((p,d) in {int,i; string,s; bool,b})
      convNull(null, e)             ~> None
      convNull(d, e)                ~> Some(e d)
      convField(nu, ni, nu{..ni=di..}, e) ~> e di
      convField(nu, n', nu{..}, e)  ~> e null     (no field n')
      convElements([d1;..;dn], e)   ~> e d1 :: .. :: e dn :: nil
      convElements(null, e)         ~> nil
    v}

    plus the extensions [convBool] (0/1/booleans), [convDate] (strings in
    a recognized date format) and [convSelect] (heterogeneous collection
    member selection by runtime shape test). *)

type outcome =
  | Value of Syntax.expr
  | Exn
  | Stuck of { redex : Syntax.expr; reason : string }
  | Timeout

val step : Syntax.class_env -> Syntax.expr -> [ `Step of Syntax.expr | `Done of outcome ]
(** One reduction step. [`Done (Value v)] when the expression is already a
    value; [`Done (Stuck _)] when no rule applies. *)

val eval : ?fuel:int -> Syntax.class_env -> Syntax.expr -> outcome
(** Iterate {!step}; default fuel is 1_000_000 steps. *)

val trace : ?fuel:int -> Syntax.class_env -> Syntax.expr -> Syntax.expr list * outcome
(** The full reduction sequence (for documentation and the predictability
    tests); the list contains the successive expressions, starting with
    the input. *)

val pp_outcome : Format.formatter -> outcome -> unit

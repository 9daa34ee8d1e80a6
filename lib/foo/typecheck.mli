(** Type checking for the Foo calculus (Figure 7).

    The judgement is [L; Gamma |- e : tau]. Following the paper:

    - every data value [d] has type [Data], and primitive data values
      additionally have their primitive type ([i : int], [f : float], ...);
    - the dynamic data operations take [Data] arguments and produce
      non-[Data] Foo types, some through a conversion continuation;
    - class construction and member access mirror Featherweight Java.

    The checker is bidirectional so that the unannotated-looking paper
    syntax types naturally: [synth] computes a type, [check] verifies
    against an expected type (needed for [exn], which checks at any type,
    and for primitive data values, which check at both [Data] and their
    primitive type). *)

type error = { message : string; expr : Syntax.expr }

val pp_error : Format.formatter -> error -> unit

val synth :
  Syntax.class_env ->
  (string * Syntax.ty) list ->
  Syntax.expr ->
  (Syntax.ty, error) result
(** [synth classes gamma e] computes the principal type of [e]. For
    primitive data values the primitive type is preferred over [Data]
    (use [check] to accept them as [Data]). *)

val check :
  Syntax.class_env ->
  (string * Syntax.ty) list ->
  Syntax.expr ->
  Syntax.ty ->
  (unit, error) result

val check_classes : Syntax.class_env -> (unit, error) result
(** Verify that every member body of every class of the environment has
    its declared type, with the class's constructor parameters in scope.
    The paper omits this check ("classes generated by our type providers
    ... are well-typed by construction"); we implement it and test that
    provided classes indeed pass it. *)

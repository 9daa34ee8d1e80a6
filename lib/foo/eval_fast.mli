(** A big-step, environment-based evaluator for the Foo calculus.

    {!Eval} implements Figure 6 literally — substitution-based small-step
    reduction — which is the right artifact for the metatheory (traces,
    preservation checks) but pays a heavy cost per member access. This
    module is the big-step alternative: closures and environments, no
    substitution. No library or binary runs it; the provided-type
    runtime ([Fsdata_runtime.Typed]) runs {!Eval}. It is the big-step
    row that bench B4 (group [access]) measures against {!Eval} and the
    generated code, quantifying the cost of running the formal semantics
    directly, and [test/test_eval_fast.ml] holds it to {!Eval} on
    well-typed programs: both produce the same value, both
    raise/propagate [exn] the same way, and both get stuck on the same
    inputs. *)

type value =
  | VData of Fsdata_data.Data_value.t
  | VDate of Fsdata_data.Date.t
  | VNone
  | VSome of value
  | VNil
  | VCons of value * value
  | VObj of string * value list  (** a constructed object [new C(v...)] *)
  | VClosure of string * Syntax.expr * env  (** λ with its environment *)

and env = (string * value) list

exception Foo_exn
(** The [exn] outcome of Remark 1. *)

exception Stuck of string
(** A stuck state — a dynamic data operation applied to data of the wrong
    shape. *)

val eval : Syntax.class_env -> env -> Syntax.expr -> value
(** @raise Foo_exn / Stuck accordingly. Non-terminating programs do not
    terminate (the calculus has no recursion, so well-typed programs
    cannot loop). *)

val member : Syntax.class_env -> value -> string -> value
(** Evaluate a member of a constructed object. *)

val of_expr_value : Syntax.expr -> value option
(** Convert a closed value expression (as produced by the small-step
    evaluator) to a big-step value; [None] if the expression is not a
    value. Lambdas close over the empty environment. *)

val equal_value : value -> value -> bool
(** Structural equality; closures compare by code. *)

val pp : Format.formatter -> value -> unit

(** The Foo calculus (Figure 5) — a simply-typed subset of F# with
    classes, options, lists and the dynamic data operations of the F# Data
    runtime.

    {v
      tau = int | float | bool | string | C | Data
          | tau1 -> tau2 | list tau | option tau
      L   = type C(x:tau) = M ...
      M   = member N : tau = e
      v   = d | None | Some v | new C(v) | v1 :: v2 | nil | lam x.e
      op  = convFloat | convPrim | convField | convNull
          | convElements | hasShape
    v}

    Extensions beyond Figure 5, each motivated by the paper's text:

    - [Exn] and [IntOfFloat] — Section 6.5 (Remark 1) assumes the calculus
      "also contains an exn value ... and a conversion function int";
    - [TDate], [EDate] and [ConvDate] — the date primitive of Section 6.2;
    - [ConvBool] — the bit shape of Section 6.2 provides booleans from 0/1
      values;
    - [ConvSelect] — the tag-selecting accessor for heterogeneous
      collections of Section 6.4 ("analogous to the handling of labelled
      top types").

    Primitive data values double as Foo primitive values: the Foo integer
    [42] is [EData (Int 42)], exactly as in the paper where [v = d | ...]
    and [i : int] as well as [i : Data]. *)

type ty =
  | TInt
  | TFloat
  | TBool
  | TString
  | TDate
  | TClass of string
  | TData
  | TArrow of ty * ty
  | TList of ty
  | TOption of ty

type expr =
  | EData of Fsdata_data.Data_value.t  (** d — both data and primitive values *)
  | EDate of Fsdata_data.Date.t  (** a parsed date value (extension) *)
  | EVar of string
  | ELam of string * ty * expr  (** lam x:tau. e — argument annotated for type checking *)
  | EApp of expr * expr
  | EMember of expr * string  (** e.N *)
  | ENew of string * expr list  (** new C(e...) *)
  | ENone of ty  (** None, annotated with the element type *)
  | ESome of expr
  | EMatchOption of expr * string * expr * expr
      (** [match e with Some x -> e1 | None -> e2] *)
  | EEq of expr * expr
  | EIf of expr * expr * expr
  | ENil of ty  (** nil, annotated with the element type *)
  | ECons of expr * expr
  | EMatchList of expr * string * string * expr * expr
      (** [match e with x1 :: x2 -> e1 | nil -> e2] *)
  | EOp of op
  | EExn  (** a runtime exception that propagates through any context *)

and op =
  | ConvFloat of Fsdata_core.Shape.t * expr
  | ConvPrim of Fsdata_core.Shape.t * expr
      (** the shape must be one of int, string, bool *)
  | ConvField of string * string * expr * expr
      (** [ConvField (nu, nu', record, continuation)] *)
  | ConvNull of expr * expr
  | ConvElements of expr * expr
  | HasShape of Fsdata_core.Shape.t * expr
  | ConvBool of expr  (** bool from true/false/0/1 (bit support) *)
  | ConvDate of expr  (** date from a recognized date string *)
  | ConvSelect of Fsdata_core.Shape.t * Fsdata_core.Multiplicity.t * expr * expr
      (** [ConvSelect (shape, mult, collection, continuation)]: convert the
          elements of the collection that pass [hasShape shape] with the
          continuation; return them as a value, an option or a list
          according to the multiplicity *)
  | IntOfFloat of expr  (** Remark 1's [int(e)] coercion *)

type member_def = { member_name : string; member_ty : ty; member_body : expr }

type class_def = {
  class_name : string;
  ctor_params : (string * ty) list;
  members : member_def list;
}

type class_env = class_def list

val find_class : class_env -> string -> class_def option
val find_member : class_def -> string -> member_def option

val is_value : expr -> bool
(** The value grammar [v]: data, dates, None/Some v, nil/cons of values,
    fully applied constructors of values, and lambdas. [Exn] is not a
    value; it is a distinguished final outcome. *)

val subst : string -> expr -> expr -> expr
(** [subst x v e] is e[x <- v], capture-avoiding (binders are renamed when
    they would capture a free variable of [v]). *)

(** Convenience constructors used by the provider and tests. *)

val int_ : int -> expr
val float_ : float -> expr
val bool_ : bool -> expr
val null : expr
val lam : string -> ty -> expr -> expr
val ( @@@ ) : expr -> expr -> expr
(** Application. *)

val pp_ty : Format.formatter -> ty -> unit
val pp_expr : Format.formatter -> expr -> unit
val pp_class : Format.formatter -> class_def -> unit
val ty_to_string : ty -> string
val expr_to_string : expr -> string
val ty_equal : ty -> ty -> bool

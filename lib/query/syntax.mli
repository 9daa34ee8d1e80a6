(** Abstract syntax of the query form.

    A query is a pipeline of stages applied to every top-level document
    of a corpus, left to right:

    {v
      query ::= stage ('|' stage)*
      stage ::= 'where' pred
              | 'select' path (',' path)*
              | 'map' path
              | 'take' INT
              | 'count'
    v}

    The concrete grammar lives in {!Parser}; the typing rules — every
    query is checked against the inferred shape [σ] before a single
    corpus byte is read — live in {!Check}; docs/QUERY.md is the full
    reference. *)

type path = string list
(** A field path from the document root: [["a"; "b"]] is [.a.b], [[]]
    is the document itself (written [.]). *)

(** A literal on the right-hand side of a comparison. *)
type literal =
  | Lnull
  | Lbool of bool
  | Lint of int
  | Lfloat of float
  | Lstring of string

(** Comparison operators: [== != < <= > >=]. *)
type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Filter predicates. *)
type pred =
  | Compare of path * cmp * literal
      (** [.path OP literal]; null at the path makes any comparison
          false except [== null] / [!= null] (docs/QUERY.md §Nulls). *)
  | Exists of path  (** [exists .path] — the value there is not null. *)
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

(** Pipeline stages. *)
type stage =
  | Where of pred  (** keep rows satisfying the predicate *)
  | Select of path list
      (** project fields into a fresh record, one field per path, named
          by the path's last segment *)
  | Map of path  (** replace the row by the value at the path *)
  | Take of int  (** stop the whole scan after this many rows pass *)
  | Count  (** final stage: emit the row count instead of the rows *)

type t = stage list
(** A query: the stage pipeline, in source order. *)

val pp_path : Format.formatter -> path -> unit
(** [.a.b] notation; the empty path prints as [.]. *)

val pp : Format.formatter -> t -> unit
(** Concrete syntax that reparses to the same query
    ([Parser.parse (to_string q) = q], property-tested). *)

val to_string : t -> string

val ensure_limit : int -> t -> t
(** [ensure_limit n q] appends [take n] unless [q] already bounds its
    result rows at [n] or fewer — it contains a [count], or a [take m]
    with [m <= n]. The serving layer caps response sizes with it. *)

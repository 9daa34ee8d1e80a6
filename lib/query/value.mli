(** Row values and the comparison semantics both evaluators share.

    Rows are {!Fsdata_core.Shape_compile.tvalue}s — what the compiled
    decoder produces and what {!Fsdata_core.Shape_compile.convert}
    produces for the reference path, so the two engines operate on
    identical values by the differential contract of [Shape_compile].
    The helpers here (null propagation, literal comparison, JSON
    rendering) are deliberately shared: {!Eval} and {!Eval_fast} differ
    in how they {e decode and access} rows, never in what a comparison
    means. *)

open Fsdata_core

type stats = {
  scanned : int;
      (** documents decoded and examined (conforming + skipped) *)
  matched : int;  (** rows that reached the end of the pipeline *)
  skipped : int;
      (** documents that parsed but did not conform to the pruned σ *)
  malformed : int;  (** documents skipped as unparseable *)
}

type result = { rows : Shape_compile.tvalue list; stats : stats }
(** Result rows in corpus order; for a [count] query, the single row
    [Vint n]. *)

val get : Shape_compile.tvalue -> Syntax.path -> Shape_compile.tvalue
(** Name-based path access with null propagation: projecting a field
    out of null is null, as is a field the row does not carry (the
    convField rule of Figure 6). Total — never raises. *)

val test_compare :
  Shape_compile.tvalue -> Syntax.cmp -> Syntax.literal -> bool
(** The comparison semantics (docs/QUERY.md §Predicates): [== null] /
    [!= null] test nullness; every other comparison with a null (or
    incomparable) value is false; numbers compare numerically across
    [int]/[float], strings lexicographically, dates chronologically. *)

val exists : Shape_compile.tvalue -> bool
(** Not null as the queries see it: neither [Vnull] nor a generic null
    carried under [Vany]. *)

val render : Shape_compile.tvalue -> string
(** One row as a single line of compact JSON (dates as ISO 8601) — the
    byte format both engines emit and the equivalence tests compare. *)

val record_stats : stats -> unit
(** Bump the [query.docs] / [query.rows] / [query.skipped] /
    [query.malformed] counters once per evaluation. *)

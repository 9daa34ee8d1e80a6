(** Automatic program migration across sample evolution — Remark 1 of the
    paper, implemented.

    Section 6.5 proves that when a new sample is added, any program [e]
    over the old provided type can be rewritten to a program [e'] over the
    new provided type with the same behaviour on old inputs, using three
    local transformations:

    + [C\[e\]] to [C\[match e with Some(v) → v | None → exn]] — a member
      that became optional;
    + [C\[e\]] to [C\[e.M\]] — a shape that became part of a labelled top
      (select its label member, then rule 1 for the option);
    + [C\[e\]] to [C\[int(e)\]] — an [int] that became [float].

    The paper proves such an [e'] {e exists}; this module {e computes} it,
    by type-directed rewriting: the program is traversed with each
    variable carrying its type in both the old and the new provided
    classes, member accesses are re-routed through labelled-top members
    when needed, and coercions are inserted exactly where the two typings
    diverge.

    The property test (test/test_migrate.ml) is Remark 1's statement run
    as a theorem: for random samples, a random extra sample, and random
    well-typed user programs over the old type, the migrated program
    type-checks against the new classes and computes the same value on
    the old inputs. *)

type error =
  | Unsupported of string
      (** the program uses a construct outside the migratable fragment, or
          the types evolved in a way the three rules cannot bridge (the
          paper's rules are complete for provider-generated evolutions;
          this is defensive) *)

val pp_error : Format.formatter -> error -> unit
(** Human-readable rendering of {!type-error}, as printed by
    [fsdata migrate]. *)

val migrate :
  old_provided:Provide.t ->
  new_provided:Provide.t ->
  Fsdata_foo.Syntax.expr ->
  (Fsdata_foo.Syntax.expr, error) result
(** [migrate ~old_provided ~new_provided e] rewrites the user program [e]
    — a well-typed expression over [old_provided] with the free variable
    [y] standing for the provided root value — into a program over
    [new_provided] with the same free variable convention.

    The program must be user code in the sense of Theorem 3: no dynamic
    data operations except the [int(e)] coercion, no [Data] literals.

    The output is deterministic: generated binders ([mig%N]) are
    renumbered in traversal order, so the rewritten program depends
    only on the input — migrating [v1 -> v3] directly produces the
    same bytes as composing [v1 -> v2; v2 -> v3], and re-computed
    service responses are reproducible. *)

(** Aligning two field lists by name in linear time.

    Records, XML attribute sets and data records are association lists
    with unique names, usually listed in the same order on both sides (a
    shape keeps its fields in first-appearance order and the documents
    folded into it mostly repeat that order). Every field-wise walk —
    the csh record join, the preference and conformance checks, the
    mismatch explanations — pairs each field of one side with the
    same-named field of the other.

    A {!cursor} does that pairing in O(|l| + |r|) rather than with one
    [List.assoc_opt] per field: lookups that arrive in list order are
    answered in lock-step from the head of the list; at the first lookup
    that diverges, only the not yet claimed remainder goes into a hash
    table. Names must be unique within each list (the {!Shape.record}
    and [Data_value.record] constructors reject duplicates, and the JSON
    parser keeps the last binding). *)

type 'a cursor

val cursor : (string * 'a) list -> 'a cursor

val take : 'a cursor -> string -> 'a option
(** [take c name] is the binding of [name] in [c]'s list, and claims it:
    a name is found at most once. *)

val join :
  both:('a -> 'a -> 'b) ->
  one:('a -> 'b) ->
  (string * 'a) list ->
  (string * 'a) list ->
  (string * 'b) list
(** [join ~both ~one l r] pairs same-named fields with [both] and maps
    one-sided fields with [one]. The result lists [l]'s fields in [l]'s
    order, then [r]'s one-sided fields in [r]'s order. O(|l| + |r|)
    calls and lookups. *)

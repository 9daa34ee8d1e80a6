(** The common preferred shape function [csh] (Definition 2, Figures 2
    and 4) — the least upper bound of two ground shapes under the
    preferred shape relation (Lemma 1).

    Rules are matched in the paper's top-to-bottom order:
    (eq), (list), (bot), (null), the top rules (top-merge), (top-incl),
    (top-add), (num), (opt), (recd), and finally (top-any). Notably the
    top rules precede (opt), so merging a top with a nullable shape strips
    the nullable wrapper from the label ("as top shapes implicitly permit
    null values, we make the labels non-nullable using ⌊−⌋").

    Record merging implements the row-variable mechanism of Figure 3: when
    two same-named records disagree on their field sets, the minimal
    ground substitution for the row variables makes every one-sided field
    nullable (the [⌈−⌉] applied to [θ(ρᵢ)] in the paper). The join
    itself is O(|r1| + |r2|) besides the recursive field joins: the
    common prefix of both field lists is walked in lock-step and only the
    divergent remainder of [r2] is indexed (see {!Fields}). That relies
    on field names being unique within a record, which holds for every
    record that reaches [csh]: {!Shape.record} and [Data_value.record]
    reject duplicates, and the JSON parser keeps the last binding of a
    repeated key.

    Three collection-merging disciplines are provided:

    - [`Core] implements the paper's rule (list) literally: the result is
      a homogeneous collection of the csh of all element shapes. This is
      the algebra for which Lemma 1 is proved and property-tested.
    - [`Hetero] (the default, what F# Data implements for JSON,
      Section 6.4) merges entries tag-wise like labelled tops and combines
      multiplicities; tags present on one side only have their
      multiplicity widened.
    - [`Xml] keeps collections in the single-entry form used for XML
      element bodies (Section 2.2: the children of [<doc>] are a
      collection of the labelled top [any<heading, p, image>], so that the
      user iterates over elements with optional members): element shapes
      from both sides are joined into one entry — a labelled top when the
      tags differ — and the multiplicity records whether an element is
      always present, optional, or repeated, driving the direct / option /
      list member of the provider (the [Root.Item : string] example of
      Section 6.3).

    Labelled tops built by [csh] are kept in a canonical form: primitive
    labels are saturated under the primitive join across tag families
    (so a top never holds both [bit] and [bool], or [date] and
    [string]), and collection labels have exactly-one entries weakened
    to zero-or-one (a top implicitly permits null, and a null sample
    reads as an empty collection). Every rule keeps its left operand's
    record field order, one-sided fields of the right operand following.
    This makes [csh] associative at the representation level, not merely
    up to ⊑-equivalence, so a fold may be bracketed freely: a parallel
    run's join of its batches and a registry's join of its pushes render
    the bytes of one left fold. It is commutative only up to
    {!Shape.equal}: swapping the operands can reorder fields. A join
    that is {!Shape.equal} to its left operand is that operand's
    representation. *)

type mode = [ `Core | `Hetero | `Xml ]

val csh : ?mode:mode -> Shape.t -> Shape.t -> Shape.t
(** Default mode is [`Hetero]. *)

val csh_all : ?mode:mode -> Shape.t list -> Shape.t
(** Fold [csh] over a list starting from bottom, as in Figure 3's
    [S(d1, ..., dn)]. [csh_all []] is [Shape.Bottom]. *)

(** {1 Absorption}

    Lemma 1 makes [csh] the least upper bound, so a shape already below
    the accumulator leaves it as it is. Deciding that without building
    the join lets a fold skip the work for the common case of a sample
    that adds nothing: the registry's pushes (docs/REGISTRY.md) and the
    inference fold ([Infer.shape_of_samples]). *)

val absorbs : ?mode:mode -> Shape.t -> Shape.t -> bool
(** [absorbs ~mode sigma delta] is exactly
    [Shape.equal (csh ~mode sigma delta) sigma]. It follows the rules
    case by case without building the join: for a record [sigma] every
    field of [delta] must be one of [sigma]'s and absorbed there, and
    every field of [sigma] that an absent value would change (a
    primitive, a record, ⊥, or a collection with an exactly-one entry)
    must appear in [delta]. Only a collection or a
    top on the left falls back to computing the join. Performs no
    [csh.merges] except in that fallback. *)

type index
(** A shape prepared for repeated {!absorbs_indexed} queries: every
    record of the shape gets a table of its fields by name and the count
    of fields that an absent value would change, every other node a memo
    of the literals it absorbs ({!absorbs_literal}), and a collection's
    entries and a top's labels are indexed in turn. Queries stamp the
    fields they meet, count the elements they walk and fill the memos,
    so an index must not be queried from two domains at once. *)

val index : Shape.t -> index
(** O(|shape|): one table per record. *)

val indexed : index -> Shape.t
(** The shape the index was built from (physically). *)

val absorbs_indexed : ?mode:mode -> index -> Shape.t -> bool
(** [absorbs_indexed ~mode (index sigma) delta = absorbs ~mode sigma delta].
    Records are checked through the index's tables at every depth: a
    record costs O(|its fields in delta|) lookups plus the field-wise
    checks, however wide its counterpart in [sigma] is. Collections and
    tops fall back to {!absorbs} on that subtree. *)

val absorbs_literal : mode:mode -> index -> Shape.t -> bool
(** [absorbs_literal ~mode idx k], for [k] the shape S gives a literal
    ([null] or a primitive), is whether [csh ~mode sigma k] is [sigma]
    with its representation, for [sigma = indexed idx]. Under a top or
    a collection the join is computed once per kind of literal and
    remembered in the index (a join with a constant shape depends on
    nothing else); elsewhere it is {!absorbs_indexed}, remembered per
    kind of literal at every node but a record's. *)

(** {2 On a JSON document's tokens} *)

val absorbs_tokens : mode:mode -> index -> Fsdata_data.Json.Raw.state -> bool
(** [absorbs_tokens ~mode idx st] asks, of the JSON document at the
    cursor, whether [csh ~mode sigma (S d)] is [sigma] with its
    representation, reading [d]'s tokens without building [d] or
    [S d]; S is the paper's when [mode] is [`Core] and the practical one
    (string literals classified, Section 6.2) otherwise. It answers
    [true] only then, having consumed [d], and may answer [false]
    where the join would be [sigma], the caller then building [S d].

    - A record is walked against its table, a field at a time: σ's
      fields are numbered in σ's order, a key is matched in place
      against the field after the one met last and otherwise found in
      the record's key table ([Json.Raw.wanted], the same step compiled
      decoders read members with), and the record is absorbed when
      every field named one of σ's, was met once and absorbed there,
      and every field that an absent value would change was met. A record under a top is
      absorbed iff its label absorbs it.
    - A literal answers from its node's memo ({!absorbs_literal}). A
      string is classified where it lies in the source, and its date
      recognized only where σ tells a date from a string.
    - A list is walked an element at a time, in the spirit of inference
      as a fold (Gajda, arXiv:2011.03076): against σ's collection (or a
      top's collection label), each element goes to the entry of its
      tag, which walks it, and is counted there. The list is absorbed
      when every entry's multiplicity (Section 6.4) covers its count:
      one element is [Single], more are [Multiple], none widens
      [Single] away. In [`Core] the collection's
      one entry, always [Multiple], takes every element, and in [`Xml]
      its one entry whatever the tag.

    A syntax fault, or nesting past the parser's bound, raises
    [Diagnostic.Parse_error] as the parser would. *)

val absorbs_record :
  index -> string -> (string * 'a) list -> (index -> 'a -> bool) -> bool
(** [absorbs_record idx name fields absorbs_field] walks a whole field
    list through the record step, generic in what a field holds so that
    a data record can be checked without computing its shape: for an
    index of a record named [name] (or of that record made nullable) it
    holds when every field names a distinct field of the record and
    [absorbs_field] accepts it against that field's index, and every
    field that an absent value would change is named. [false] for an
    index of any other shape. *)

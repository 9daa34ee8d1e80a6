(** The shape algebra of Section 3.1, with the extensions of Sections 3.5
    (labelled top shapes), 6.2 (bit and date primitives) and 6.4
    (heterogeneous collections with multiplicities).

    {v
      sigma^ = nu {nu1:s1, ..., nun:sn} | float | int | bool | string
      sigma  = sigma^ | nullable sigma^ | [sigma] | any | null | bot
             | any<s1, ..., sn>                     (labelled top, 3.5)
             | [s1,psi1 | ... | sn,psin]            (heterogeneous, 6.4)
      plus the bit and date primitives               (6.2)
    v}

    The representation is canonical: labels of a top and entries of a
    collection are sorted by {!Tag.t} and contain at most one shape per
    tag, so structural equality coincides with shape equality. Record
    fields keep their sample order (the provided types list members in
    that order) but {!equal} ignores it, matching the paper's "we assume
    that record fields can be freely reordered".

    A homogeneous collection [[sigma]] of the core calculus is represented
    as a heterogeneous collection with a single [Multiple] entry; use
    {!collection} to build one and {!collection_element} to observe it. *)

type primitive =
  | Bit0  (** the lone literal 0 — provided as [int] *)
  | Bit1  (** the lone literal 1 — provided as [int] *)
  | Bit
      (** Section 6.2: preferred below both [int] and [bool]; the join of
          [Bit0] and [Bit1], provided as [bool] ("we also infer Autofilled
          as Boolean, because the sample contains only 0 and 1") *)
  | Bool
  | Int
  | Float
  | String
  | Date  (** Section 6.2: preferred below [string] *)

type t =
  | Bottom
  | Null
  | Primitive of primitive
  | Record of record
  | Nullable of t
      (** invariant: the payload is non-nullable, i.e. [Primitive] or
          [Record] — collections and tops already permit null *)
  | Collection of entry list
      (** invariant: sorted by tag, one entry per tag; entry shapes are
          never [Bottom]. [Collection []] is the paper's [[⊥]], the shape
          of a sample collection with no elements. Heterogeneous inference
          never creates [Nullable] entries (null elements get their own
          [Tag.Null] entry), but core-mode homogeneous collections may
          carry one, e.g. [[nullable int]] inferred from [[1; null]]. *)
  | Top of t list
      (** labelled top; [Top []] is the plain [any]. Invariant: labels are
          sorted by tag, one per tag, and are non-nullable, non-null,
          non-bottom and not tops themselves. *)

and record = { name : string; fields : (string * t) list }

and entry = { shape : t; mult : Multiplicity.t }

val equal : t -> t -> bool
(** Structural shape equality (record field order ignored); [equal a b]
    iff [compare a b = 0]. Physically equal shapes — in particular any
    two {!hcons} results with the same representation — short-circuit
    without traversal, and the recursive comparison short-circuits on
    every physically shared subtree. Records of different widths differ
    at once; fields in the same order are compared in lock-step, so only
    a field-permuted remainder is ever sorted. *)

val compare : t -> t -> int
(** The total order that {!equal} agrees with (records compare by name,
    then by their fields sorted by name). *)

(** {1 Hash-consing}

    Interning turns structurally identical shape representations into
    physically shared values, so {!equal} (and through it the (eq) fast
    path of [Csh.csh]) is a pointer comparison on hot shapes and a wide
    corpus's repeated sub-shapes are resident once. The serving layer
    interns every shape it caches; batch pipelines may opt in. *)

val hcons : t -> t
(** [hcons s] is a canonical, maximally shared value with exactly the
    representation of [s] (record field order preserved, so printing and
    provided types are unchanged). [equal (hcons s) s] always holds, and
    [hcons s1 == hcons s2] whenever [s1] and [s2] have identical
    representations. Safe to call from any domain (one global lock). *)

val hcons_size : unit -> int
(** Number of distinct nodes currently interned. *)

val hcons_clear : unit -> unit
(** Drop the intern table (existing shapes stay valid; future {!hcons}
    calls re-intern). Long-lived servers call this to bound the table. *)

(** {1 Constructors} *)

val record : string -> (string * t) list -> t
(** Raises [Invalid_argument] on duplicate field names. *)

val collection : t -> t
(** [collection s] is the paper's homogeneous [[s]]; [collection Bottom]
    is the empty-collection shape [[⊥]], i.e. [Collection []]. *)

val hetero : (t * Multiplicity.t) list -> t
(** Build a heterogeneous collection; raises [Invalid_argument] if two
    entries share a tag or an entry violates the invariants. *)

val top : t list -> t
(** Build a labelled top from labels; normalizes order and raises
    [Invalid_argument] on duplicate tags or invalid labels. *)

val any : t
(** The unlabelled top shape. *)

val of_hint : Fsdata_data.Primitive.hint -> t
(** The shape S gives a literal of that reading (Section 6.2): [null]
    for a missing marker, [bit0] and [bit1] for the two bits, and the
    primitive of that name otherwise. *)

val nullable : t -> t
(** The paper's ceiling operator [⌈s⌉]: wraps non-nullable shapes, leaves
    every other shape unchanged. *)

val strip_nullable : t -> t
(** The paper's floor operator [⌊s⌋]: unwraps [Nullable], identity
    otherwise. *)

(** {1 Observations} *)

val is_non_nullable : t -> bool
(** True for the [sigma^] shapes: primitives and records. *)

val tagof : t -> Tag.t
(** The [tagof] function of Figure 4. [Bottom] has no tag and raises
    [Invalid_argument]; [Null] is given the [Tag.Null] tag used by
    heterogeneous collections. *)

val collection_element : t -> t option
(** [collection_element (collection s)] is [Some s]; [None] when the shape
    is not a collection or has several entries. The element of a
    heterogeneous singleton entry is returned whatever its multiplicity. *)

val size : t -> int
(** Number of shape constructors; used by benchmarks and test generators. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Paper-style notation: [nu {a: int, b: nullable string}],
    [\[int\]], [any<float, bool>], [\[• {..}, 1 | \[..\], 1\]].
    Record fields, collection entries and top labels sit in [hov] boxes,
    so a wide shape wraps at the formatter's margin. [pp] composes with
    the enclosing boxes of other printers ({!Explain}, indented CLI
    lines), and it is the oracle that {!to_string} is tested against. *)

val to_string : t -> string
(** The bytes of [Fmt.str "%a" pp s], printed without the Format engine:
    the same line breaks at margin 78 (a break starts a new line when
    the text up to the box's next break does not fit, a box whose
    contents fit prints flat, a box is not opened past column 68),
    widths counted in bytes as Format counts them. It allocates little
    beyond its result, so the registry's WAL records and snapshots and
    the server's responses print shapes with it. The bytes are pinned:
    the WAL and snapshot formats store this text. *)

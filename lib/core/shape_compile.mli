(** Parsers from shapes: shape-specialized parser compilation.

    The paper's pipeline is interpretive at runtime: parse JSON into a
    {!Fsdata_data.Data_value.t}, normalize string literals, then convert
    through the provided accessors, re-checking [hasShape] along the way.
    Once a shape [σ] is known — inferred from samples or supplied by the
    caller — that interpreter can be compiled away: [compile σ] builds a
    {e direct} parser that matches record fields by their expected keys,
    decodes primitives straight into the target representation
    ({!tvalue}), and never materializes the intermediate [Data_value.t]
    on the conforming path.

    Semantics are pinned to the existing interpreted pipeline, which
    stays the specification:

    - a document is decoded directly iff
      [Shape_check.has_shape σ (Primitive.normalize (Json.parse text))]
      holds, and the direct result equals {!convert} of that normalized
      value (the differential test harness asserts both);
    - on a mismatch the document {e falls back}: it is parsed
      generically and converted, which either names the first violation
      (the normalized value is emitted with the {!diagnose} diagnostic)
      or, when the compiled decoder was merely conservative (duplicate
      keys, multiplicity corner cases), yields the converted value with
      no diagnostic;
    - a corpus is read through [Json.Reader], the one JSON document
      reader, with the compiled decoder as its [absorb] hook: the reader
      skips whitespace, polls cancellation, keeps the document index,
      rewinds a declined document to parse it, and resyncs and reports a
      malformed one. So malformed documents behave exactly like
      [Json.fold_many]'s recovering mode (same diagnostics, same
      resynchronization at top-level boundaries, same 0-based document
      indices), and the [parse.json.*] counters count compiled decodes
      too.

    Instrumented with [compile.*] counters and [compile.build] /
    [compile.parse] spans (docs/OBSERVABILITY.md). *)

open Fsdata_data

(** {1 Target representation} *)

(** The direct decode target: what the provided accessors would have
    extracted, without the detour through [Data_value.t]. [Vany] carries
    the normalized generic value for the positions a shape does not
    constrain (top-shaped subtrees, unknown-tag collection elements,
    fallback documents). *)
type tvalue =
  | Vnull
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vdate of Date.t
  | Vlist of tvalue array
  | Vrecord of string * (string * tvalue) array
  | Vany of Data_value.t

val equal_tvalue : tvalue -> tvalue -> bool

val to_data : tvalue -> Data_value.t
(** Lower back to the generic representation (dates render as ISO 8601
    strings); [to_data (convert s d)] is observationally the conforming
    part of [d]. *)

(** {1 The interpreted reference} *)

exception Mismatch
(** Raised by {!convert} (and internally by compiled decoders) when a
    value does not have the shape. Carries no payload on purpose — the
    explanatory API is {!diagnose}. *)

val convert : Shape.t -> Data_value.t -> tvalue
(** [convert s d] is the interpreted conversion of the {e normalized}
    value [d] through shape [s] — the executable specification the
    compiled parsers are tested against. Succeeds exactly when
    [Shape_check.has_shape s d] (property-tested).
    @raise Mismatch when [not (has_shape s d)]. *)

val diagnose : Shape.t -> Data_value.t -> Diagnostic.t option
(** [diagnose s d] is the failure arm of {!convert}'s conversion: [None]
    iff [Shape_check.has_shape s d]; otherwise a warning-severity JSON
    diagnostic (positions unknown, hence 0/0) pinpointing the first
    violation: the path from the root, the expected shape and the found
    value kind. The compiled fallback reports through the same
    conversion, so the two agree by construction. *)

(** {1 Compilation} *)

type compiled
(** A parser specialized to one shape. Immutable and domain-safe: decoding
    allocates only per-document state, so one compiled parser may be used
    from several domains concurrently. *)

val compile : ?defer:string list -> Shape.t -> compiled
(** Build the direct decoder tree for [σ]: per-record key tables (a key
    is matched in place against the slot expected next, else scanned
    once and looked up by its hash), per-collection element
    dispatchers, primitive token readers that read a string literal
    where it lies. Cost is proportional to [Shape.size σ] and paid once;
    counted by [compile.parsers] / [compile.build_ns].

    [defer] names fields of a JSON record [σ] whose values a caller may
    never read: each such field of primitive or nullable-primitive
    shape is {e deferred} in a fold given {!deferred} state. Its value
    is checked where it lies ({!checker}) and its offset noted, and it
    is built only by {!build}. Every other decoding ({!parse}, a fold
    without that state) builds every field. *)

val checker : Shape.t -> (Json.Raw.state -> unit) option
(** The check a deferred slot of a primitive or nullable-primitive shape
    runs in place of its decoder ([None] for any other shape). It
    succeeds iff the decoder does, stopping at the same offset, and
    faults where the decoder faults; it raises {!Mismatch} where the
    decoder does (property-tested). A literal is classified where it
    lies ([Json.Raw.literal]); a boolean or bit shape, whose verdict on
    an integer depends on its value, is checked by its decoder. *)

val decoder : compiled -> Json.Raw.state -> tvalue
(** The compiled decoder of one value at the cursor, building every
    field. @raise Mismatch where the value does not conform. *)

val shape : compiled -> Shape.t
(** The shape the parser was compiled from (as given, not interned). *)

(** {1 Decoding} *)

(** How a document was decoded. [Fallback] documents parsed but did not
    conform; they carry the normalized generic value and the {!diagnose}
    diagnostic. *)
type outcome = Direct of tvalue | Fallback of tvalue * Diagnostic.t

val parse : compiled -> string -> outcome
(** Decode one JSON document, rejecting trailing content. The compiled
    decoder reads the whole text; on a mismatch, a fault or a trailing
    byte the text goes to [Json.parse].
    @raise Json.Parse_error on malformed input — [Json.parse]'s. *)

type stats = { direct : int; fallback : int; skipped : int }
(** Per-call decode accounting: documents decoded by the compiled path,
    documents that fell back to the generic path, and malformed documents
    skipped under [on_error]. *)

type deferred
(** One fold's record of where its latest row's deferred slots lie. *)

val deferred : compiled -> deferred
(** Fresh state for one {!fold_corpus} with the parser: a [deferred]
    is used by one fold at a time. *)

val build : deferred -> tvalue -> unit
(** [build d v] builds, in place, the deferred slots of [v], the row
    the fold with [d] has just handed to its function: each is decoded
    from its offset by the slot's own decoder, so its value is the one
    an eager decoding gives. A row with none pending is left as it is.
    Call it before the fold reads the next document. *)

val fold_corpus :
  ?cancel:Cancel.t ->
  ?on_error:(Diagnostic.t -> skipped:string -> unit) ->
  ?deferred:deferred ->
  compiled ->
  ('acc -> outcome -> [ `Continue of 'acc | `Stop of 'acc ]) ->
  'acc ->
  string ->
  'acc * stats
(** The fold underneath {!parse_corpus}: read a stream of
    whitespace-separated JSON documents one at a time through
    [Json.Reader], the compiled decoder as its [absorb] hook, and hand
    each {!outcome} to [f], which decides whether to continue — [`Stop]
    abandons the rest of the corpus without reading further bytes,
    which is what lets a query's [take] bound a scan. [Fallback]
    diagnostics carry the 0-based document index. Malformed documents
    never reach [f]: without [on_error] the first one raises
    [Json.Parse_error]; with it they are skipped, reported and counted
    ([stats.skipped]) exactly like [Json.fold_many]'s recovering mode.
    [cancel] is polled between documents, by the reader.

    With [deferred], a [Direct] row that the compiled decoder read
    holds each deferred slot (see {!compile}) as a placeholder until
    {!build}; its verdict is the same as without, since the slot was
    checked. A row the generic path read has every field built.
    @raise Invalid_argument when [deferred] is another parser's. *)

val parse_corpus :
  ?cancel:Cancel.t ->
  ?on_fallback:(Diagnostic.t -> unit) ->
  ?on_error:(Diagnostic.t -> skipped:string -> unit) ->
  compiled ->
  string ->
  tvalue list * stats
(** Decode a stream of whitespace-separated JSON documents, the compiled
    counterpart of [Json.fold_many], read through [Json.Reader] as
    {!fold_corpus} reads it. Conforming documents take the direct
    path; non-conforming ones fall back per document (their normalized
    value is included in the results and [on_fallback], if given,
    receives the {!diagnose} diagnostic carrying the 0-based document
    index). Malformed documents raise [Json.Parse_error] unless
    [on_error] is given, in which case they are skipped and reported
    exactly like [Json.fold_many]'s recovering mode: same diagnostic,
    same index accounting (skipped documents consume an index), same
    resynchronization at the next top-level boundary — a mid-document
    fault can never desynchronize the following documents. [cancel] is
    polled between documents and raises {!Cancel.Cancelled} when it
    trips, as in the interpreted drivers. *)

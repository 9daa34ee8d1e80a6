(** Shape inference from sample data (Figure 3).

    [S(d)] maps a data value to its most specific shape; [S(d1, ..., dn)]
    folds the common preferred shape over several samples starting from
    bottom. Records are handled with the row-variable mechanism of the
    paper: the minimal ground substitution surfaces as the
    make-one-sided-fields-nullable rule inside {!Csh.csh}.

    Two axes of configuration mirror the paper:

    - [`Paper] inference is Figure 3 verbatim: integers are [int], strings
      are [string], collections are homogeneous (rule (list) of Figure 2).
      This is the algebra used by the formal development of Sections 3-5.
    - [`Practical] inference (the default; what F# Data ships) additionally
      (a) classifies string literals with {!Fsdata_data.Primitive} — so
      ["35.14229"] infers as [float], ["2012"] as [int], ["2012-05-01"] as
      [date], ["0"]/["1"] as [bit], missing-value markers as [null]
      (Section 6.2) — and (b) infers heterogeneous collections with
      multiplicities (Section 6.4).
    - [`Xml] is [`Practical] except that collections follow the XML
      discipline of Section 2.2: the elements of a body are joined into a
      single entry (a labelled top when several element kinds occur), so
      that the provider exposes an element type with optional members
      rather than per-tag accessors. *)

type mode = [ `Paper | `Practical | `Xml ]

val shape_of_value : ?mode:mode -> Fsdata_data.Data_value.t -> Shape.t
(** [S(d)]. Default mode is [`Practical]. *)

val shape_of_samples : ?mode:mode -> Fsdata_data.Data_value.t list -> Shape.t
(** [S(d1, ..., dn)] — bottom when the list is empty. The result is
    exactly [Csh.csh_all ~mode:(csh_mode mode) (List.map (shape_of_value
    ~mode) ds)], representation and field order included, but the fold
    skips the documents its accumulator σ already absorbs: by Lemma 1
    [csh] is the least upper bound, so such a document leaves σ as it
    is, and {!absorbs_value} decides that with a walk of the document,
    building neither its shape nor the join.

    The index that walk needs ({!Csh.index}) is built lazily, after the
    first merge that leaves σ as it was. While documents are absorbed σ
    is kept physically; a document that is not absorbed is merged, and
    if the merge changes σ the index is dropped with the old σ, until a
    merge again leaves σ as it is. A corpus whose every document grows
    σ builds no index. [csh.merges] counts the merges performed, so an
    absorbed document adds none, except through the collection and top
    fallback of {!absorbs_value}.

    The same fold infers each per-tag group of a collection (Section
    6.4) and a paper-mode collection's element, so CSV tables, XML
    bodies and JSON arrays skip their absorbed elements too. *)

val absorbs_value : ?mode:mode -> Csh.index -> Fsdata_data.Data_value.t -> bool
(** [absorbs_value ~mode idx d] is exactly whether
    [Csh.csh ~mode:(csh_mode mode) sigma (shape_of_value ~mode d)] is
    [sigma] itself, representation included, for
    [sigma = Csh.indexed idx]. It walks [d]:
    - a record looks up each of its fields in the table of the matching
      record of [sigma] and counts the fields that [sigma] requires
      ({!Csh.absorbs_record}); a record repeating a field name, whose
      [S] raises, is not absorbed;
    - a literal is classified and answers from its node's memo
      ({!Csh.absorbs_literal});
    - a collection or top on [sigma]'s side falls back to the join of
      [sigma] with [S] of that subtree, which merges.

    It holds exactly when [Csh.absorbs ~mode:(csh_mode mode) sigma
    (shape_of_value ~mode d)] holds: [csh] keeps its left operand's
    field order, so a join equal to [sigma] is [sigma]'s
    representation. *)

val absorbs_json : ?mode:mode -> Csh.index -> string -> bool
(** [absorbs_json ~mode idx text] asks {!absorbs_value} of the JSON
    document [text] on its tokens, as the engine's sequential JSON fold
    does before it parses a document ({!Csh.absorbs_tokens}): record
    keys are matched in place in [sigma]'s field order (looked up when
    off it), string literals are classified where they lie in the text,
    and a list is walked an element at a time against [sigma]'s
    collection, each element against its tag's entry. It answers
    [false] for a text that is not exactly one document, for a key
    [sigma] lacks or that repeats (the parser keeps a repeated key's
    last binding, which the walk does not follow), and for an element,
    a tag or a multiplicity [sigma]'s collection has not seen. Whenever
    it holds, [Json.parse text] succeeds and [absorbs_value ~mode idx]
    accepts its value. *)

val classify_string : string -> Shape.t
(** The shape a string literal infers to in practical mode:
    {!Shape.of_hint} of {!Fsdata_data.Primitive.classify}. *)

val csh_mode : mode -> Csh.mode
(** The collection-merging discipline each inference mode folds with:
    [`Paper] → [`Core], [`Practical] → [`Hetero], [`Xml] → [`Xml]. *)

(** {1 The ingestion engine}

    One driver infers the shape of every corpus, whatever its format and
    wherever its text comes from: [S(d1, ..., dn)] is one csh fold, and
    by Lemma 1 the fold may be cut into batches anywhere. Faulty samples
    are {e quarantined}: recorded with a structured diagnostic and the
    skipped text, and left out of the fold, as long as their number
    stays within an error budget. *)

type quarantined = {
  q_index : int;  (** global 0-based sample index within the corpus *)
  q_diagnostic : Fsdata_data.Diagnostic.t;
  q_text : string option;
      (** the skipped raw text: the sample, or the document a stream's
          reader skipped. [None] for a [Values] sample, and for a
          document of a JSON or CSV stream that parsed but whose
          inference raised *)
}

type report = {
  shape : Shape.t;  (** the shape of the clean subset *)
  total : int;  (** samples seen, parsed and quarantined alike *)
  quarantined : quarantined list;  (** in sample order *)
}

type format = Fsdata_data.Diagnostic.format = Json | Xml | Csv

type source =
  | String of string
      (** one text, read as the format's document stream: JSON
          documents separated by whitespace, one XML document, or a CSV
          table whose rows are the samples *)
  | Samples of string list
      (** one sample per string: a JSON or XML document, or a whole CSV
          table *)
  | Values of Fsdata_data.Data_value.t list
      (** samples already parsed, one per value; read like [Samples] *)
  | Feed of (unit -> string)
      (** [Feed pull] reads like [String] over the fragments [pull]
          answers until [""], however they are cut: JSON as they
          arrive, at any job count, and XML or CSV as one text. *)

val run :
  ?cancel:Fsdata_data.Cancel.t ->
  ?mode:mode ->
  ?jobs:int ->
  ?chunk_size:int ->
  Fsdata_data.Diagnostic.budget ->
  format ->
  source ->
  (report, string) result
(** [run budget format source] parses the samples of [source] and
    infers the shape of its clean ones. [mode] applies to JSON only,
    whose default is [`Practical]: XML always folds in [`Xml] mode and
    CSV in [`Practical].

    {b Sequential runs.} At [jobs = 1] (the default) every source is one
    left fold of {!shape_of_samples}'s kind over the clean documents in
    corpus order, threaded across batches: the shape is exactly
    [shape_of_samples ~mode] of those documents, whatever the batching
    (CSV wraps it into the collection of rows, with its multiplicity).
    A JSON [String] or [Feed] is read and folded in one pass: each
    document is first walked on its tokens against σ as the previous
    document left it ({!absorbs_json}), and only a document the walk
    declines is parsed and folded, so reading costs less than parsing
    wherever σ absorbs the corpus. Output, quarantine and counters are
    those of parsing every document. A feed's batches take the least
    byte cap below, 64KiB, as its length is unknown.

    {b Parallel runs.} At [jobs > 1] batches are folded in worker
    domains and joined in corpus order with {!Csh.csh_all}; [jobs <= 0]
    stands for the machine's recommended domain count, and at most 64
    are used. A sample list is split into [jobs] contiguous runs, each
    parsed in its domain, the last on the calling one. A JSON text or
    feed is read on the calling domain through the same
    {!Fsdata_data.Json.Reader} as at one job, without the token walk,
    and each of the reader's batches is handed to a worker with its
    documents' global indices: [chunk_size] documents (default 65536)
    or [bytes / (jobs * 8)] consumed source bytes, clamped to
    [64KiB..8MiB], whichever fills first, a feed taking 64KiB. At most
    [jobs] batches are in flight. The result is the sequential one,
    field order included, with the same quarantine: [csh] is the least
    upper bound (Lemma 1) and keeps its left operand's field order, so
    it is associative on representations.

    {b Faults.} Each sample is isolated: a parse fault, or an exception
    escaping parsing or inference, is quarantined with a diagnostic
    carrying the sample's global index. A malformed JSON document is
    skipped by resynchronizing at the next top-level document boundary
    ({!Fsdata_data.Json.Reader}), at any job count; a ragged CSV row is
    quarantined;
    an unterminated quoted CSV cell fails the run whatever the budget.
    With budget {!Fsdata_data.Diagnostic.Strict} the run stops at the
    lowest-index fault and answers its
    {!Fsdata_data.Diagnostic.message_of}, the strict pipeline's line: a
    text stops once the batch holding the first fault its reader
    reports is folded up to that fault, so an inference fault before it
    is not missed.
    Any other budget reads the whole source and fails, naming the first
    fault, when the quarantine exceeds it. A JSON [String] or [Feed]
    holding no document at all is an error; an empty sample list infers
    bottom.

    [cancel] is polled between documents on the calling domain, outside
    the isolation boundary: when it trips the run raises
    {!Fsdata_data.Cancel.Cancelled}. Worker domains finish their batch
    and are always joined, so no domain outlives the run. *)

val of_json : ?mode:mode -> string -> (Shape.t, string) result
(** [run Strict Json (String src)]'s shape: one or more
    whitespace-separated JSON sample documents. *)

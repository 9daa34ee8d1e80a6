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
    - a literal is classified in place; against a [string] it only
      needs {!Fsdata_data.Primitive.is_text}, as [date ⊔ string = string];
    - a collection or top on [sigma]'s side falls back to the join of
      [sigma] with [S] of that subtree, which merges.

    Whenever it holds, [Csh.absorbs ~mode:(csh_mode mode) sigma
    (shape_of_value ~mode d)] holds. The converse fails only where that
    join is equal to [sigma] up to field order: [csh] joins two nullable
    records right operand first, which the joins below a collection can
    meet, and the fold must then take the join's order. *)

val classify_string : string -> Shape.t
(** The shape a string literal infers to in practical mode. *)

val csh_mode : mode -> Csh.mode
(** The collection-merging discipline each inference mode folds with:
    [`Paper] → [`Core], [`Practical] → [`Hetero], [`Xml] → [`Xml]. *)

(** {1 Fault-tolerant inference}

    The strict entry points below abort on the first malformed sample.
    The [_tolerant] variants instead {e quarantine} faulty samples —
    recording a structured diagnostic and the skipped text, and leaving
    them out of the csh fold — as long as the number of faults stays
    within an error budget. With budget {!Fsdata_data.Diagnostic.Strict}
    any fault is over budget, so tolerance is strictly opt-in.

    Every tolerant driver takes an optional [cancel] token
    ({!Fsdata_data.Cancel.t}), polled between samples — outside
    {!shape_of_sample}'s isolation boundary, so cancellation is never
    swallowed as a quarantine diagnostic. When the token trips the
    driver raises {!Fsdata_data.Cancel.Cancelled}; the serve layer uses
    this to cut off requests whose deadline expired mid-parse. *)

type quarantined = {
  q_index : int;  (** global 0-based sample index within the corpus *)
  q_diagnostic : Fsdata_data.Diagnostic.t;
  q_text : string option;  (** the skipped raw text, when available *)
}

type report = {
  shape : Shape.t;  (** the shape of the clean subset *)
  total : int;  (** samples seen, parsed and quarantined alike *)
  quarantined : quarantined list;  (** in sample order *)
}

val sort_quarantined : quarantined list -> quarantined list
(** Stable sort by global sample index. *)

val budget_error :
  budget:Fsdata_data.Diagnostic.budget ->
  total:int ->
  quarantined list ->
  string option
(** [Some message] when the quarantine list exceeds the budget over
    [total] samples; the message names the first offending sample. *)

val shape_of_sample :
  mode:mode ->
  format:Fsdata_data.Diagnostic.format ->
  index:int ->
  parse:(string -> (Fsdata_data.Data_value.t, Fsdata_data.Diagnostic.t) result) ->
  string ->
  (Shape.t, Fsdata_data.Diagnostic.t) result
(** Parse and infer one sample, converting any fault — a parse error or
    an unexpected exception escaping [parse] or inference — into a
    diagnostic carrying the sample's [index]. Never raises; this is the
    per-sample isolation boundary the parallel drivers rely on. *)

val of_json_samples_tolerant :
  ?cancel:Fsdata_data.Cancel.t ->
  ?mode:mode ->
  budget:Fsdata_data.Diagnostic.budget ->
  string list ->
  (report, string) result

val of_xml_samples_tolerant :
  ?cancel:Fsdata_data.Cancel.t ->
  ?mode:mode ->
  budget:Fsdata_data.Diagnostic.budget ->
  string list ->
  (report, string) result
(** Default mode is [`Xml], as for {!of_xml_samples}. *)

val of_json_tolerant :
  ?cancel:Fsdata_data.Cancel.t ->
  ?mode:mode ->
  budget:Fsdata_data.Diagnostic.budget ->
  string ->
  (report, string) result
(** Streaming variant over a whitespace-separated document stream:
    malformed documents are skipped via {!Fsdata_data.Json.fold_many}'s
    recovering mode, resynchronizing at the next top-level document
    boundary. *)

val of_json_feed_tolerant :
  ?cancel:Fsdata_data.Cancel.t ->
  ?mode:mode ->
  budget:Fsdata_data.Diagnostic.budget ->
  ((string -> unit) -> unit) ->
  (report, string) result
(** Incremental variant of {!of_json_tolerant}: [of_json_feed_tolerant
    ~budget feed] calls [feed push] and infers over every fragment the
    caller [push]es, holding at most one partial document (plus the
    current fragment) in memory via {!Fsdata_data.Json.Cursor}. Same
    recovering semantics, diagnostics, stream-global indices and ingest
    accounting as {!of_json_tolerant}; the serve layer uses it to infer
    over request bodies without buffering them. Merge batching follows
    fragment boundaries instead of [fold_many]'s document chunks, so
    outputs agree byte-for-byte wherever csh is representation-level
    associative (everywhere but the mixed-tag corpora documented in
    {!Csh}). *)

val of_csv_tolerant :
  ?cancel:Fsdata_data.Cancel.t ->
  ?separator:char ->
  ?has_headers:bool ->
  budget:Fsdata_data.Diagnostic.budget ->
  string ->
  (report, string) result
(** Each data row is a sample; ragged rows are quarantined. Structural
    faults (unterminated quoted cells) abort regardless of budget.
    [cancel] is polled once at entry (row parsing is a single pass). *)

(** {1 Format entry points}

    Each parses its input and infers the shape of the samples it contains,
    the way the corresponding F# Data type provider does. *)

val of_json : ?mode:mode -> string -> (Shape.t, string) result
(** One or more whitespace-separated JSON sample documents. *)

val of_json_samples : ?mode:mode -> string list -> (Shape.t, string) result
(** Several separate JSON sample strings (the multi-sample static
    parameter of the provider). *)

val of_xml : ?mode:mode -> string -> (Shape.t, string) result
(** A single XML sample document; the default mode here is [`Xml]. *)

val of_xml_samples : ?mode:mode -> string list -> (Shape.t, string) result

val of_csv : ?separator:char -> ?has_headers:bool -> string -> (Shape.t, string) result
(** A CSV sample; the shape is the collection of row-record shapes
    (Section 6.2). CSV inference is always practical: its literals carry
    no types. *)

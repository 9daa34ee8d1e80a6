(** The query evaluator every route runs: shape-compiled decoding,
    precompiled stages.

    [compile] pairs the checked query with a
    {!Fsdata_core.Shape_compile} parser for the {e pruned} σ — so a
    conforming document is decoded straight into the query's projected
    slots: each key is matched in place against the slot expected next
    and otherwise scanned once and looked up in the record's key table
    (only a key written with an escape is decoded), and an untouched
    member is read on its tokens by [Json.Raw.skip_value], which builds
    nothing but faults where the parser does, so a malformed untouched
    member still makes its document malformed. A primitive root field
    that no stage up to the last [where] reads is checked where it lies
    and built only for a row that passes every [where], from its source
    offset, by its own decoder; a document whose such field fails its
    check is still [skipped]. The plan precompiles every stage: paths
    become integer slot indices into the pruned records (the decoder
    emits fields in shape order), predicates become closures over
    {!Value.test_compare}. A plan is immutable and reusable: the serve
    layer caches plans per [(stream, version, query)] and evaluates
    them concurrently.

    Semantics are pinned to {!Eval}, the specification: identical rows
    (byte-for-byte) and identical stats on every corpus — the two
    engines agree on which documents conform because both test the
    same pruned shape ([Direct] ⟺ [has_shape]), and they share the
    comparison semantics of {!Value}. *)

type plan
(** A compiled query: pruned-shape decoder plus precompiled stages. *)

val compile : Check.checked -> plan
(** Build the plan; cost is proportional to the pruned shape's size
    plus the query's, paid once. Counted by [query.plans]; traced as
    [query.plan]. *)

val checked : plan -> Check.checked
(** The checked query the plan was compiled from. *)

val eval :
  ?cancel:Fsdata_data.Cancel.t -> plan -> string -> Value.result
(** [eval p src] streams the corpus through the compiled decoder
    ([Shape_compile.fold_corpus]) and the precompiled stages; [take]
    stops the scan early. Skipped/malformed accounting, cancellation
    and instrumentation mirror the reference evaluator {!Eval}'s; traced as
    [query.eval_fast]. *)

(** The reference evaluator: interpreted, streaming, formal.

    Documents are parsed generically ([Json.fold_many], one document at
    a time), normalized, conformance-tested against the pruned σ with
    [Shape_check.has_shape], and converted through
    {!Fsdata_core.Shape_compile.convert} — the executable specification
    — before the stage pipeline is interpreted over them. Nothing is
    materialized beyond the current document; [take] stops the scan at
    the first satisfied bound, so a [take 10] over a gigabyte corpus
    reads only as far as its tenth row.

    No route runs it: [fsdata query], [/query] and
    [/streams/:name/query] evaluate with {!Eval_fast}. This is the
    specification {!Eval_fast} is differentially tested against:
    byte-identical rows and identical stats on every corpus, by the
    ≥1000-case [prop_engines_agree] and the [engines_agree] cases in
    [test/test_query.ml]; bench B14 ([bench/main.ml], group [query])
    and [perfbench] compare the two engines' rows and timings as
    well. *)

val eval :
  ?cancel:Fsdata_data.Cancel.t ->
  Check.checked ->
  string ->
  Value.result
(** [eval c src] runs the checked query over the whitespace-separated
    JSON documents of [src]. Non-conforming documents are skipped and
    counted ([stats.skipped]); malformed ones are skipped at the next
    top-level boundary ([stats.malformed]), exactly like the tolerant
    drivers. [cancel] is polled between documents and raises
    [Cancel.Cancelled] — the serve layer threads request deadlines
    through it. Traced as [query.eval]; counted by [query.evals] and
    the [query.docs]/[query.rows]/[query.skipped]/[query.malformed]
    counters. *)

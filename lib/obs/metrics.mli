(** Counter / gauge / histogram registry for pipeline metrics.

    Instrumented modules create their instruments {e at module
    initialization} ([let c = Metrics.counter "parse.json.bytes"] at top
    level), so the set of registered names — and hence the key set of
    {!to_json} — is a property of the linked program, not of which code
    paths a particular run happened to take. The cram test
    [test/cli/observability.t] pins that key set; every name, with its
    unit and emitting module, is documented in [docs/OBSERVABILITY.md].

    Recording is {b off by default}: {!incr}, {!add}, {!observe} and
    {!time} cost one atomic load and a branch until {!set_enabled}
    turns recording on (the [obs] benchmark group measures this;
    see EXPERIMENTS.md). Counters are atomic and may be bumped from any
    domain; histograms take a mutex per observation and are meant for
    chunk-granularity events, not per-byte ones. *)

type counter
(** A monotonically increasing integer, safe to bump from any domain. *)

type histogram
(** A running summary (count / sum / min / max) of observed values. *)

type gauge
(** A value that can go up and down — e.g. the number of in-flight HTTP
    requests. Safe to move from any domain. Unlike counters and
    histograms, gauges are {e not} gated on {!enabled}: a gauge tracks
    live state (a request that began while recording was off still ends
    later), so conditional updates would let it drift negative. *)

val counter : string -> counter
(** [counter name] registers (or retrieves — registration is idempotent
    by name) the counter called [name]. Names are dot-separated,
    [<subsystem>.<metric>], e.g. ["infer.csh_merges"]. *)

val incr : counter -> unit
(** [incr c] adds 1 to [c] when recording is enabled; no-op otherwise. *)

val add : counter -> int -> unit
(** [add c n] adds [n ≥ 0] to [c] when recording is enabled. *)

val value : counter -> int
(** [value c] reads the current count (regardless of the enabled flag).
    Counters only grow between {!reset}s, so two reads [v1] then [v2]
    satisfy [v1 <= v2] — the monotonicity the unit tests pin. *)

val time : counter -> (unit -> 'a) -> 'a
(** [time c f] runs [f ()] and, when recording is enabled, adds the
    elapsed monotonic nanoseconds to [c]. Disabled, it is just [f ()] —
    no clock reads. *)

val histogram : string -> histogram
(** [histogram name] registers (idempotently) the histogram [name]. It
    exports as four keys: [name.count], [name.sum], [name.min],
    [name.max] (and [name.mean], derived). *)

val observe : histogram -> float -> unit
(** [observe h x] records one observation when recording is enabled. *)

val gauge : string -> gauge
(** [gauge name] registers (idempotently) the gauge [name]. It exports
    as a single [`Float] key. Gauges registered by {!gc_snapshot} share
    this namespace. *)

val gauge_set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
(** [gauge_add g d] moves [g] by [d] (negative to decrease); atomic, so
    balanced add/subtract pairs from concurrent domains cancel exactly. *)

val gc_snapshot : string -> unit
(** [gc_snapshot phase] captures [Gc.quick_stat] into gauges
    [gc.<phase>.minor_words], [gc.<phase>.major_words],
    [gc.<phase>.minor_collections], [gc.<phase>.major_collections] and
    [gc.<phase>.heap_words], when recording is enabled. The CLI
    snapshots the fixed phases [start], [work] and [render], keeping
    the exported key set deterministic. *)

val enabled : unit -> bool
(** [enabled ()] is [true] iff instruments are recording. *)

val set_enabled : bool -> unit
(** [set_enabled b] turns recording on or off process-wide. *)

val reset : unit -> unit
(** [reset ()] zeroes every registered instrument (registrations are
    kept). Not safe concurrently with recording domains. *)

val export : unit -> (string * [ `Int of int | `Float of float ]) list
(** [export ()] is every registered metric as a flat association list in
    strictly increasing key order — counters as [`Int], gauges and
    histogram components as [`Float] (except [.count], an [`Int]). *)

val to_json : unit -> string
(** [to_json ()] renders {!export} as a single flat JSON object whose
    keys appear in sorted order (stable across runs for cram tests). *)

(** Lightweight span-based tracing for the parse → infer → provide
    pipeline.

    A {e span} is a named interval of wall-clock time measured on the
    {!Clock} monotonic clock, with parent/child nesting inside a domain
    and explicit attribution across domains:

    - within one domain, spans nest through a per-domain stack — a span
      opened while another is running records that span as its parent;
    - each domain records into its {e own} buffer (no cross-domain
      contention on the hot path), and every span carries the integer id
      of the domain that produced it, so spans emitted by a worker
      spawned with [Domain.spawn] remain attributed to that worker after
      [Domain.join] — they never migrate into the joining domain's
      timeline. {!spans} merges all per-domain buffers; call it only
      after the workers have been joined.

    Tracing is {b off by default} and costs one atomic load and a branch
    per {!with_span} call when disabled (verified by the [obs] benchmark
    group; see EXPERIMENTS.md). Enable it with {!set_enabled} before the
    work to observe, then export with {!to_trace_event_json} — the
    Chrome [trace_event] format, loadable in Perfetto or
    [chrome://tracing]. The span naming scheme and a worked Perfetto
    walkthrough are documented in [docs/OBSERVABILITY.md]. *)

type span = {
  id : int;  (** unique within the process, allocation order *)
  parent : int;
      (** id of the enclosing span in the same domain, or [-1] for a
          root span (including the first span of a worker domain) *)
  name : string;  (** dot-separated stage name, e.g. ["infer.chunk"] *)
  domain : int;  (** id of the domain that recorded the span *)
  start_ns : int64;  (** {!Clock.now_ns} at entry *)
  dur_ns : int64;  (** inclusive duration in nanoseconds *)
  args : (string * string) list;
      (** free-form annotations shown by trace viewers, e.g.
          [("samples", "512")] *)
}

val enabled : unit -> bool
(** [enabled ()] is [true] iff spans are being recorded. *)

val set_enabled : bool -> unit
(** [set_enabled b] turns recording on or off process-wide. Toggling
    does not discard spans already recorded. *)

val with_span :
  ?args:(string * string) list ->
  ?late_args:(unit -> (string * string) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [with_span name f] runs [f ()]; when tracing is enabled, the call is
    recorded as a span named [name] covering [f]'s execution, nested
    under the innermost open span of the current domain. The span is
    recorded even when [f] raises (the exception is re-raised with its
    backtrace). [late_args], for annotations known only once [f] is
    done, is called as the span ends and its pairs follow [args]. When
    tracing is disabled this is just [f ()]. *)

val reset : unit -> unit
(** [reset ()] discards all recorded spans in every domain buffer.
    Call it between measured runs; do not call it while worker domains
    are still recording. *)

val spans : unit -> span list
(** [spans ()] merges every domain's buffer and returns all finished
    spans ordered by start time. Only spans whose {!with_span} call has
    returned are included. Call after joining any worker domains that
    recorded spans. *)

val aggregate : unit -> (string * int * int64) list
(** [aggregate ()] folds {!spans} into per-name totals:
    [(name, count, total_ns)], ordered by name. Nested spans are not
    deducted from their parents — totals are inclusive, like the flame
    view of a trace viewer. *)

val to_trace_event_json : unit -> string
(** [to_trace_event_json ()] renders {!spans} as a Chrome [trace_event]
    JSON document (["X"] complete events; [ts]/[dur] in microseconds
    relative to the earliest span; domain ids as [tid]). The result
    loads directly in Perfetto ({{:https://ui.perfetto.dev}ui.perfetto.dev})
    and [chrome://tracing]. *)

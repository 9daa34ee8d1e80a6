(** The [fsdata serve] inference service.

    A small HTTP/1.1 server (see {!Http}) exposing shape inference over
    the network, with a hash-consed hot-shape cache so repeated
    inference over the same corpus is a digest lookup instead of a
    parse-and-fold:

    - [POST /infer?format=json|csv|xml&jobs=N&max-errors=N|N%] — body is
      the sample corpus (for JSON, a whitespace-separated document
      stream); responds with the inferred shape in the paper notation
      plus the quarantine report, as JSON. Ingestion runs through
      {!Fsdata_core.Infer.run}; without [max-errors] the budget is
      [Strict], exactly as on the command line. [jobs=0] is the
      machine's recommended domain count.
    - [POST /check?shape=EXPR&format=json|xml] — body is one document;
      responds with the Figure 6 runtime shape test and the preference
      check against [EXPR]. A JSON document is tested as the provider
      reads it, normalized ({!Fsdata_data.Primitive.normalize}), so it
      has [EXPR] exactly when a parser compiled from [EXPR] decodes it
      directly.
    - [POST /explain?shape=EXPR&format=json|xml] — body is one document;
      responds with the list of preference violations ({!Fsdata_core.Explain}).
    - [POST /query?q=Q&shape=EXPR&limit=N] — runs the typed query [Q]
      ({!Fsdata_query.Eval_fast}) over the body's documents, checked
      against [EXPR] or, without it, the shape inferred from the body;
      an ill-typed query is [400] with its diagnostic.
    - [GET /metrics] — the {!Fsdata_obs.Metrics} registry as flat JSON,
      including the [serve.*] instruments below.
    - [GET /healthz] — liveness.

    {2 The live shape registry}

    With [state_dir] set, streams survive crashes
    ({!Fsdata_registry.Registry}, docs/REGISTRY.md); without it the
    registry is in-memory with the same semantics.

    - [POST /streams/:name/push?format=json|csv|xml&max-errors=...] —
      body is a document batch; its inferred shape is folded into the
      named stream in O(merge) (the corpus is never re-inferred) and
      the response carries the merged shape and the stream version,
      which bumps only when the shape strictly grew. Never touches the
      response cache except to invalidate the stream's entries. A
      storage fault answers 503 and leaves the stream unchanged — the
      push was not acknowledged and is safe to retry.
    - [GET /streams/:name/shape?format=paper|schema] — the current
      shape, paper notation or JSON Schema; cached under the stream's
      prefix and version with the configured TTL.
    - [GET /streams/:name/history] — one entry per version bump.
    - [GET /streams/:name/diff?from=A&to=B] — the growth between two
      versions, rendered as {!Fsdata_core.Explain} mismatches.
    - [POST /streams/:name/query?q=Q&limit=N] — [Q] checked against the
      stream's current shape; the query plan and the response are
      cached per stream version.
    - [POST /cache/invalidate[?key=K|stream=NAME]] — drop one cached
      response, one stream's, or all of them.

    {2 Schema evolution (docs/EVOLUTION.md)}

    - [POST /streams/:name/migrate?since=V] — body is a Foo program
      compiled against version [V]; responds with the program rewritten
      to the stream's current provided type
      ({!Fsdata_evolve.Service}). [404] if the stream never had [V],
      [409] if [V] was evicted by [history_limit], [400] if the program
      does not parse, [422] if it does not check against [V]'s shape or
      falls outside the migratable fragment.
    - [GET /streams/:name/watch?since=V&timeout-ms=N] — long-poll until
      the version exceeds [V] (default: the version at arrival); [200]
      with the stream fields on a bump, [204] on timeout, [503] when
      more than [max_waiters] long-polls are already parked. Bounded by
      the request deadline.
    - [POST /streams/:name/hooks?url=U] — register a webhook
      (durable in the registry WAL before it is acknowledged; survives
      crash recovery). A supervised delivery worker POSTs one JSON
      notification per version bump, in order, retrying with
      exponential backoff from [hook_retry_ms], and advances the
      durable per-hook cursor only on a 2xx — at-least-once, never a
      skipped version. [GET] lists hooks with their cursors; [DELETE
      ?url=U] removes.

    [POST /infer] also negotiates its representation on the [Accept]
    header: [application/json] (the default report),
    [application/schema+json] (the shape's JSON Schema export) or
    [text/x-fsdata-shape] / [text/plain] (the bare paper notation);
    unsatisfiable headers answer [406].

    Results of [/infer] are
    cached in an LRU keyed by the digest of (format, negotiated
    representation, jobs, budget, body); the inferred shape is interned with
    {!Fsdata_core.Shape.hcons} so hot shapes share one heap
    representation. Hits and misses are distinguished only by the
    [X-Fsdata-Cache] response header (and the [serve.cache.*] counters)
    — bodies are byte-identical either way.

    {2 Robustness}

    Every request runs under a {!Deadline}: [timeout_ms] from first
    byte, tightened by an [X-Fsdata-Deadline-Ms] request header. The
    deadline governs header and body reads (slowloris defense; expiry
    answers 408) and is threaded as a {!Fsdata_data.Cancel.t} through
    the ingestion engine, so inference over an adversarial
    corpus stops between documents and answers 504. JSON [/infer]
    bodies above [stream_threshold] are never buffered — they stream
    off the socket into the engine's [Json.Reader] (bypassing the
    response cache). Admission control reserves each declared [Content-Length]
    against [max_inflight_bytes] before reading it; over-budget and
    over-queue requests are shed with [503] + [Retry-After]. Worker
    domains are supervised ({!Supervisor}): an escaped exception is
    counted, logged with its backtrace, and the loop respawned with
    exponential backoff, so the accept loop survives any connection.
    [/healthz] degrades to [503 {"status":"draining"}] during shutdown
    and [503 {"status":"overloaded"}] when less than 1/8 of the body
    budget remains.

    {2 [serve.*] metrics}

    Counters
    [serve.requests.{infer,check,explain,query,metrics,healthz,stream,other}]
    (every [/streams/*] request counts under [stream]; unknown paths
    and [/cache/invalidate] under [other]),
    [serve.responses.{2xx,4xx,5xx}],
    [serve.cache.{hits,misses,evictions,invalidations}],
    [serve.http_errors] (malformed requests answered from the parser),
    [serve.connections], [serve.shed_total] (503s from queue overflow or
    body-budget admission), [serve.deadline_expired] (408/504 cut-offs),
    [serve.stream.bodies] (bodies streamed, not buffered),
    [serve.worker.crashes] (supervisor respawns),
    [serve.faults.injected] (chaos shim, tests only); histogram
    [serve.latency_ms] (handler time per request); gauges
    [serve.inflight] (requests currently in a handler) and
    [serve.inflight_bytes] (reserved body bytes). Documented in
    [docs/OBSERVABILITY.md]. *)

type config = {
  port : int;  (** 0 picks an ephemeral port *)
  host : string;  (** address to bind, e.g. ["127.0.0.1"] *)
  workers : int;  (** worker domains handling connections *)
  timeout_ms : int;
      (** per-request deadline and per-connection receive/send timeout *)
  cache_entries : int;  (** LRU capacity; 0 disables the cache *)
  max_body : int;  (** request body limit in bytes *)
  port_file : string option;
      (** when set, the bound port is written here once listening —
          how the cram tests find an ephemeral port — and removed on
          every exit path, crash included *)
  queue_depth : int;
      (** bounded connection-queue capacity; [0] means [workers * 16] *)
  max_inflight_bytes : int;
      (** body bytes admitted across all workers before shedding *)
  stream_threshold : int;
      (** bodies with a declared length above this stream instead of
          buffering *)
  fault : Fault_net.t option;
      (** chaos-test shim over socket I/O; [None] in production *)
  state_dir : string option;
      (** registry state directory ([snapshot.bin] + [wal.log]); [None]
          keeps the registry in memory only *)
  state_fsync : Fsdata_registry.Wal.fsync_policy;
      (** [`Always] (the default): a push is durable before it is
          acknowledged *)
  snapshot_every : int;
      (** WAL records between snapshot compactions *)
  history_limit : int;
      (** version bumps each stream retains (oldest evicted), bounding
          history and snapshot growth *)
  cache_ttl_ms : int;
      (** time-to-live for cached responses; [<= 0] means entries never
          expire (eviction and invalidation still apply) *)
  max_waiters : int;
      (** concurrent [/watch] long-polls admitted before shedding 503
          (each parked watcher occupies a worker domain) *)
  hook_retry_ms : int;
      (** first-retry backoff for webhook delivery (doubles per failure
          up to the delivery worker's ceiling) *)
}

val default_config : config
(** Port 8080 on 127.0.0.1, 4 workers, 10s timeout, 64-entry cache,
    64 MiB bodies, no port file, [workers * 16] queue depth, 256 MiB
    in-flight body budget, 256 KiB stream threshold, no fault shim. *)

type t
(** Handler state: the response cache, the config, and the drain /
    admission state. Independent of any socket, so unit tests exercise
    {!handle} directly. *)

val create : ?draining:bool Atomic.t -> config -> t
(** [draining] (default: a fresh flag) is shared with {!run}'s stop
    flag so [/healthz] reports the drain. *)

val draining : t -> bool Atomic.t
(** The drain flag: set it and [/healthz] answers 503 draining. *)

val registry : t -> Fsdata_registry.Registry.t
(** The live shape registry behind [/streams/*] — exposed for tests. *)

val shape_string : Fsdata_core.Shape.t -> string
(** The paper notation of a shape, as every response renders it:
    {!Fsdata_core.Shape.to_string}, byte-identical to
    [Fmt.str "%a" Shape.pp], and rendered once for a shape that is
    physically one of the few most recently used (a stream's hash-consed
    shape across pushes that do not grow it). The memo also keeps the
    text's escaped JSON literal, which response bodies copy instead of
    escaping the text again, and a slot for the shape's JSON Schema,
    filled on the first [?format=schema] request: a read after a push
    that did not grow the stream misses the response cache but not the
    memo. *)

val handle :
  ?cancel:Fsdata_data.Cancel.t ->
  ?deadline:Deadline.t ->
  ?rest:Http.body_rest ->
  t ->
  Http.request ->
  Http.response
(** Route and answer one parsed request. Total: handler exceptions
    become a 500 with an [{"error": ...}] body — except the deadline
    family, which maps to 504 ([Cancel.Cancelled] from a driver) or 408
    ([Deadline.Expired] / receive timeout while pulling [rest]). [rest]
    is a body still on the wire ({!Http.read_request_stream}): JSON
    [/infer] consumes it incrementally, everything else drains it
    first. [deadline] (default: never) bounds how long a [/watch]
    long-poll may park. *)

val run : ?stop:bool Atomic.t -> ?on_ready:(int -> unit) -> config -> unit
(** Bind, print ["fsdata: serving on http://HOST:PORT"] on stdout, and
    serve until SIGINT or SIGTERM. The accept loop hands connections to
    a fixed pool of supervised worker domains over a bounded queue
    (overflow is shed with [503] + [Retry-After] without queuing); each
    connection gets the configured timeouts, a per-request deadline and
    keep-alive semantics. On the first termination signal the listener
    closes, queued and in-flight requests drain (their responses are
    sent with [Connection: close]), the workers join, and
    ["fsdata: shutting down"] is printed. The port file, if any, is
    removed on every exit, including a crash of the accept loop.

    For in-process tests: [stop] supplies the drain flag (no signal
    handlers are installed), and [on_ready] receives the bound port
    once listening — and silences the stdout chatter. *)

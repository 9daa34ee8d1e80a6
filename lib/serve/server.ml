module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module Shape_parser = Fsdata_core.Shape_parser
module Shape_check = Fsdata_core.Shape_check
module Shape_compile = Fsdata_core.Shape_compile
module Preference = Fsdata_core.Preference
module Explain = Fsdata_core.Explain
module Diagnostic = Fsdata_data.Diagnostic
module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
module Xml = Fsdata_data.Xml
module Metrics = Fsdata_obs.Metrics
module Clock = Fsdata_obs.Clock
module Registry = Fsdata_registry.Registry
module Notify = Fsdata_evolve.Notify
module Evolve = Fsdata_evolve.Service
module Delivery = Fsdata_evolve.Delivery

(* --- instruments (docs/OBSERVABILITY.md, "serve.*");
   the serve.requests.* counters are made with the route table --- *)

let plan_cache_hits = Metrics.counter "serve.plan_cache.hits"
let plan_cache_misses = Metrics.counter "serve.plan_cache.misses"
let resp_2xx = Metrics.counter "serve.responses.2xx"
let resp_4xx = Metrics.counter "serve.responses.4xx"
let resp_5xx = Metrics.counter "serve.responses.5xx"
let cache_hits = Metrics.counter "serve.cache.hits"
let cache_misses = Metrics.counter "serve.cache.misses"
let cache_evictions = Metrics.counter "serve.cache.evictions"
let cache_invalidations = Metrics.counter "serve.cache.invalidations"
let http_errors = Metrics.counter "serve.http_errors"
let connections = Metrics.counter "serve.connections"
let latency_ms = Metrics.histogram "serve.latency_ms"
let inflight = Metrics.gauge "serve.inflight"
let shed_total = Metrics.counter "serve.shed_total"
let deadline_expired = Metrics.counter "serve.deadline_expired"
let stream_bodies = Metrics.counter "serve.stream.bodies"
let inflight_bytes_gauge = Metrics.gauge "serve.inflight_bytes"

(* watch outcomes (docs/OBSERVABILITY.md, "evolve.*"): the waiter-table
   gauge itself lives with the table in Fsdata_evolve.Notify *)
let watch_notified = Metrics.counter "evolve.watch.notified"
let watch_timeouts = Metrics.counter "evolve.watch.timeouts"
let watch_shed = Metrics.counter "evolve.watch.shed"

(* --- configuration and handler state --- *)

type config = {
  port : int;
  host : string;
  workers : int;
  timeout_ms : int;
  cache_entries : int;
  max_body : int;
  port_file : string option;
  queue_depth : int;
  max_inflight_bytes : int;
  stream_threshold : int;
  fault : Fault_net.t option;
  state_dir : string option;
  state_fsync : Fsdata_registry.Wal.fsync_policy;
  snapshot_every : int;
  history_limit : int;
  cache_ttl_ms : int;  (* <= 0: cached responses never expire *)
  max_waiters : int;  (* concurrent long-polls admitted before shedding *)
  hook_retry_ms : int;  (* webhook delivery first-retry backoff *)
}

let default_config =
  {
    port = 8080;
    host = "127.0.0.1";
    workers = 4;
    timeout_ms = 10_000;
    cache_entries = 64;
    max_body = 64 * 1024 * 1024;
    port_file = None;
    queue_depth = 0;
    max_inflight_bytes = 256 * 1024 * 1024;
    stream_threshold = 256 * 1024;
    fault = None;
    state_dir = None;
    state_fsync = `Always;
    snapshot_every = 512;
    history_limit = 256;
    cache_ttl_ms = 0;
    max_waiters = 64;
    hook_retry_ms = 50;
  }

type t = {
  cfg : config;
  cache : string Cache.t;
  (* Query plans of stream queries, cached per (stream, version, limit,
     query): the version rides in the cache key, so a version bump makes
     every cached plan unreachable and the next query re-checks against
     the stream's current σ — a stale plan can never decode against an
     outgrown contract. Pushes additionally evict the stream's entries
     (bounding memory, not just reachability). *)
  plans : Fsdata_query.Eval_fast.plan Cache.t;
  registry : Fsdata_registry.Registry.t;
  watch : Notify.t;
  draining : bool Atomic.t;
  inflight_bytes : int Atomic.t;
}

(* Query plans are small (a decoder for the pruned shape plus
   closures); one slot per distinct (stream, version, query) in recent
   use. *)
let plan_cache_capacity = 128

let create ?(draining = Atomic.make false) cfg =
  let registry =
    Fsdata_registry.Registry.open_ ~fsync:cfg.state_fsync
      ~snapshot_every:cfg.snapshot_every ~history_limit:cfg.history_limit
      ~dir:cfg.state_dir ()
  in
  let watch = Notify.create ~capacity:cfg.max_waiters in
  (* every strict-growth bump wakes that stream's long-polls and the
     delivery worker's wildcard waiter; the listener fires outside the
     registry lock *)
  Registry.set_listener registry (fun st -> Notify.notify watch st.Registry.name);
  {
    cfg;
    cache = Cache.create ~capacity:cfg.cache_entries;
    plans = Cache.create ~capacity:plan_cache_capacity;
    registry;
    watch;
    draining;
    inflight_bytes = Atomic.make 0;
  }

let cache_ttl t =
  if t.cfg.cache_ttl_ms <= 0 then None
  else Some (Int64.mul (Int64.of_int t.cfg.cache_ttl_ms) 1_000_000L)

let draining t = t.draining
let registry t = t.registry

(* --- the in-flight body budget (admission control) --- *)

(* Reservations are taken on the declared Content-Length before the
   first body byte is read, so the sum of bodies resident across all
   workers — buffered or streaming — never exceeds the budget. *)
let try_reserve t n =
  let rec go () =
    let cur = Atomic.get t.inflight_bytes in
    if cur + n > t.cfg.max_inflight_bytes then false
    else if Atomic.compare_and_set t.inflight_bytes cur (cur + n) then begin
      Metrics.gauge_add inflight_bytes_gauge (float_of_int n);
      true
    end
    else go ()
  in
  n <= 0 || go ()

let release t n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add t.inflight_bytes (-n));
    Metrics.gauge_add inflight_bytes_gauge (float_of_int (-n))
  end

(* Load balancers should back off before the budget is exhausted, not
   after: report overloaded once less than 1/8 of it remains. *)
let overloaded t =
  t.cfg.max_inflight_bytes - Atomic.get t.inflight_bytes
  < t.cfg.max_inflight_bytes / 8

(* --- response helpers --- *)

(* Responses render the same few shapes again and again: a stream's
   shape after every push that did not grow it (it stays the physically
   same hash-consed value) and the /shape reads that follow. Shapes are
   immutable, so a shape that is physically the one rendered before has
   the same text, JSON literal and JSON Schema; the most recently used
   renderings are kept, keyed by identity, the last used first. The
   schema is rendered on its first request. Entries are never mutated:
   a hit or a filled schema puts a new list in place, so a race between
   workers can only lose an entry. *)
type rendering = {
  shape : Shape.t;
  text : string;
  literal : string;
  schema : string option;
}

let rendered : rendering list Atomic.t = Atomic.make []
let rendered_slots = 32

let remember r =
  let others =
    List.filteri
      (fun i r' -> i < rendered_slots - 1 && r'.shape != r.shape)
      (Atomic.get rendered)
  in
  Atomic.set rendered (r :: others)

let rendering s =
  match Atomic.get rendered with
  | r :: _ when r.shape == s -> r
  | entries -> (
      match List.find_opt (fun r -> r.shape == s) entries with
      | Some r ->
          remember r;
          r
      | None ->
          let text = Shape.to_string s in
          let r =
            { shape = s; text; literal = Json.to_string (Dv.String text); schema = None }
          in
          remember r;
          r)

let shape_string s = (rendering s).text

let shape_schema s =
  let r = rendering s in
  match r.schema with
  | Some schema -> schema
  | None ->
      let schema = Fsdata_codegen.Json_schema.to_string s ^ "\n" in
      remember { r with schema = Some schema };
      schema

(* The JSON literal of a rendering still in the memo, found by the
   identity of its text. A short string escapes faster than the memo is
   searched. *)
let shape_literal text =
  if String.length text < 256 then None
  else
    List.find_map
      (fun r -> if r.text == text then Some r.literal else None)
      (Atomic.get rendered)

let json_body fields =
  Json.to_string ~indent:2 ~escaped:shape_literal
    (Dv.Record (Dv.json_record_name, fields))
  ^ "\n"

let json_error status msg =
  Http.response ~status (json_body [ ("error", Dv.String msg) ])

let json_ok ?headers fields = Http.response ?headers ~status:200 (json_body fields)

(* Handlers validate step by step; a failed step's [Error] is the
   response. *)
let ( let* ) r f = match r with Ok v -> f v | Error resp -> resp

(* A cache key: the digest of the parts' digests, so that a request body
   is read once and never copied, and no part's bytes can stand for a
   boundary between parts *)
let digest parts =
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.string parts)))

(* The response cache in front of [compute]: a hit answers the stored
   body; on a miss, [compute ()] renders a body, which is stored (with
   the configured TTL) and answered, or fails with a response that is
   answered uncached. [x-fsdata-cache] tells which; bodies are
   byte-identical either way. *)
let cached t ?content_type key compute =
  let answer tag body =
    Http.response ?content_type
      ~headers:[ ("x-fsdata-cache", tag) ]
      ~status:200 body
  in
  match Cache.find t.cache key with
  | Some body ->
      Metrics.incr cache_hits;
      answer "hit" body
  | None -> (
      Metrics.incr cache_misses;
      match compute () with
      | Error resp -> resp
      | Ok body ->
          Metrics.add cache_evictions
            (Cache.add ?ttl_ns:(cache_ttl t) t.cache key body);
          answer "miss" body)

(* --- query parameters --- *)

let bad_value name s = Printf.sprintf "bad %s value %S" name s

let required req name =
  match Http.query_param req name with
  | Some v -> Ok v
  | None -> Error (json_error 400 ("missing required query parameter " ^ name))

(* An integer parameter no smaller than [min]; [default] answers its
   absence. *)
let int_param ?(min = min_int) req name ~default =
  Result.map_error (json_error 400)
    (match Http.query_param req name with
    | None -> default
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= min -> Ok n
        | _ -> Error (bad_value name s)))

(* The error budget of the ingesting routes; Strict without max-errors,
   exactly as on the command line. *)
let budget_param req =
  match Http.query_param req "max-errors" with
  | None -> Ok Diagnostic.Strict
  | Some s -> Result.map_error (json_error 400) (Diagnostic.budget_of_string s)

let unsupported_format f choices =
  let rec words = function
    | [] -> ""
    | [ w ] -> w
    | [ w; last ] -> w ^ " or " ^ last
    | w :: ws -> w ^ ", " ^ words ws
  in
  Printf.sprintf "unsupported format %S (use %s)" f (words choices)

let format_param req ~default choices =
  let format = Option.value ~default (Http.query_param req "format") in
  if List.mem format choices then Ok format
  else Error (json_error 400 (unsupported_format format choices))

let ingest_formats = [ "json"; "csv"; "xml" ]

(* A format already checked to be one of [ingest_formats]. *)
let infer_format = function
  | "xml" -> Infer.Xml
  | "csv" -> Infer.Csv
  | _ -> Infer.Json

(* --- /infer --- *)

(* The interning table is process-global; keep it from growing without
   bound on a long-lived server. 200k nodes is far beyond any hot set —
   clearing only costs future sharing, never correctness. *)
let intern s =
  let s = Shape.hcons s in
  if Shape.hcons_size () > 200_000 then Shape.hcons_clear ();
  s

let quarantine_entry (q : Infer.quarantined) =
  let d = q.Infer.q_diagnostic in
  Dv.Record
    ( Dv.json_record_name,
      [
        ("index", Dv.Int q.Infer.q_index);
        ("line", Dv.Int d.Diagnostic.line);
        ("column", Dv.Int d.Diagnostic.column);
        ("message", Dv.String d.Diagnostic.message);
      ] )

(* Content negotiation: the Accept header picks the response
   representation — the full JSON report (default), the shape's JSON
   Schema export, or the bare shape in paper notation. The first
   supported media type listed wins (q-weights are ignored: our three
   representations are disjoint enough that preference order is the
   whole signal); a header naming only types we cannot produce is
   406. *)
let negotiate_accept req =
  match Http.header req "accept" with
  | None -> Ok `Report
  | Some v -> (
      let media_of item =
        let item =
          match String.index_opt item ';' with
          | None -> item
          | Some i -> String.sub item 0 i
        in
        String.lowercase_ascii (String.trim item)
      in
      let supported = function
        | "application/json" | "application/*" | "*/*" -> Some `Report
        | "application/schema+json" -> Some `Schema
        | "text/x-fsdata-shape" | "text/plain" | "text/*" -> Some `Paper
        | _ -> None
      in
      match
        List.find_map supported (List.map media_of (String.split_on_char ',' v))
      with
      | Some a -> Ok a
      | None ->
          Error
            (json_error 406
               (Printf.sprintf
                  "cannot satisfy Accept: %s (supported: application/json, \
                   application/schema+json, text/x-fsdata-shape)"
                  v)))

let accept_tag = function
  | `Report -> "report"
  | `Schema -> "schema"
  | `Paper -> "paper"

let accept_content_type = function
  | `Report -> "application/json"
  | `Schema -> "application/schema+json"
  | `Paper -> "text/plain; charset=utf-8"

let render_report ~format ~accept (report : Infer.report) =
  let shape = intern report.Infer.shape in
  match accept with
  | `Report ->
      json_body
        [
          ("format", Dv.String format);
          ("shape", Dv.String (shape_string shape));
          ("total", Dv.Int report.Infer.total);
          ("quarantined", Dv.Int (List.length report.Infer.quarantined));
          ("samples", Dv.List (List.map quarantine_entry report.Infer.quarantined));
        ]
  | `Schema -> shape_schema shape
  | `Paper -> shape_string shape ^ "\n"

(* What a handler gets beside the request: the request's cancellation
   token and deadline, the body still on the wire (only a route that
   streams its body sees one), and the :name of a /streams/:name/
   route. *)
type ctx = {
  cancel : Fsdata_data.Cancel.t;
  deadline : Deadline.t;
  rest : Http.body_rest option;
  name : string;
}

let handle_infer t c req =
  let* accept = negotiate_accept req in
  let* jobs = int_param req "jobs" ~min:0 ~default:(Ok 1) in
  let* budget = budget_param req in
  let* format = format_param req ~default:"json" ingest_formats in
  let content_type = accept_content_type accept in
  let infer ?jobs source =
    Infer.run ~cancel:c.cancel ?jobs budget (infer_format format) source
    |> Result.map (render_report ~format ~accept)
    |> Result.map_error (json_error 422)
  in
  match c.rest with
  | Some rest when format = "json" ->
      (* Streamed JSON: the body never materializes — the engine's JSON
         reader reads the fragments as they arrive off the socket,
         holding about one document and one fragment. No digest key
         exists without the bytes, so this path bypasses the response
         cache. *)
      Metrics.incr stream_bodies;
      let* body = infer (Feed (fun () -> Http.read_body_chunk rest)) in
      Http.response ~content_type
        ~headers:[ ("x-fsdata-cache", "bypass") ]
        ~status:200 body
  | rest ->
      (* Buffered (or non-JSON streamed: drained here, still under the
         reservation) — the digest-keyed cache path. The negotiated
         representation rides in the key: the same body under a
         different Accept is a different response. *)
      let body =
        match rest with
        | None -> req.Http.body
        | Some rest -> Http.read_body_all rest
      in
      let key =
        digest
          [
            format;
            accept_tag accept;
            string_of_int jobs;
            Diagnostic.budget_to_string budget;
            body;
          ]
      in
      cached t ~content_type key (fun () -> infer ~jobs (String body))

(* --- /check and /explain --- *)

let mismatch_entry (m : Explain.mismatch) =
  Dv.Record
    ( Dv.json_record_name,
      [
        ("at", Dv.String m.Explain.at);
        ("input", Dv.String (shape_string m.Explain.input));
        ("expected", Dv.String (shape_string m.Explain.expected));
        ("reason", Dv.String m.Explain.reason);
      ] )

let handle_checkish ~explain _ _ req =
  let* text = required req "shape" in
  let* shape = Result.map_error (json_error 400) (Shape_parser.parse_result text) in
  let format = Option.value ~default:"json" (Http.query_param req "format") in
  let* doc =
    Result.map_error (json_error 422)
      (match format with
      | "json" -> Json.parse_result req.Http.body
      | "xml" -> Result.map Xml.to_data (Xml.parse_result req.Http.body)
      | f -> Error (unsupported_format f [ "json"; "xml" ]))
  in
  let mode = if format = "xml" then `Xml else `Practical in
  let input_shape = Infer.shape_of_value ~mode doc in
  json_ok
    (if explain then
       [
         ("input_shape", Dv.String (shape_string input_shape));
         ("shape", Dv.String (shape_string shape));
         ( "mismatches",
           Dv.List (List.map mismatch_entry (Explain.explain input_shape shape)) );
       ]
     else
       (* Fig. 6's hasShape on the value the provider reads: a JSON
          literal is normalized first, so "36" has the shape int
          (Section 6.2) — exactly when a parser compiled from the shape
          decodes the document directly (docs/COMPILED_PARSERS.md) *)
       let value = if format = "xml" then doc else Fsdata_data.Primitive.normalize doc in
       [
         ("has_shape", Dv.Bool (Shape_check.has_shape shape value));
         ("preferred", Dv.Bool (Preference.is_preferred input_shape shape));
         ("input_shape", Dv.String (shape_string input_shape));
         ("shape", Dv.String (shape_string shape));
       ])

(* --- /streams/:name/* — the durable live shape registry --- *)

(* Rendered stream responses live in the same LRU as /infer responses,
   under a recognizable prefix so a push can invalidate exactly the
   entries it supersedes. *)
let stream_cache_prefix name = "stream:" ^ name ^ ":"

(* Drop a stream's cached responses and checked queries; returns how
   many responses went. *)
let invalidate_stream t name =
  let prefix = stream_cache_prefix name in
  ignore (Cache.remove_where t.plans (String.starts_with ~prefix));
  Cache.remove_where t.cache (String.starts_with ~prefix)

let no_such_stream name =
  json_error 404 (Printf.sprintf "no such stream %S" name)

let find_stream t name =
  match Registry.find t.registry name with
  | Some st -> Ok st
  | None -> Error (no_such_stream name)

(* A registry write whose WAL append raised: nothing was applied and
   the client may simply retry. *)
let durably what write =
  match write () with
  | v -> Ok v
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (json_error 503
           (Printf.sprintf "storage error, %s: %s" what (Unix.error_message e)))

let stream_fields (st : Registry.stream) =
  [
    ("stream", Dv.String st.Registry.name);
    ("version", Dv.Int st.Registry.version);
    ("pushes", Dv.Int st.Registry.pushes);
    ("shape", Dv.String (shape_string st.Registry.shape));
  ]

(* POST /streams/:name/push — fold the body's inferred shape into the
   stream in O(merge). Never cached and never served from cache: the
   response is the registry's word on the new version. A storage fault
   answers 503 — the push was not acknowledged and the in-memory shape
   is unchanged. *)
let handle_stream_push t c req =
  let* budget = budget_param req in
  let* format = format_param req ~default:"json" ingest_formats in
  let* report =
    Result.map_error (json_error 422)
      (Infer.run ~cancel:c.cancel budget (infer_format format)
         (String req.Http.body))
  in
  let delta = intern report.Infer.shape in
  let clean = report.Infer.total - List.length report.Infer.quarantined in
  let* st =
    durably "push not applied" (fun () ->
        Registry.push t.registry ~stream:c.name ~count:(max 1 clean) delta)
  in
  Metrics.add cache_invalidations (invalidate_stream t c.name);
  json_ok
    ~headers:[ ("x-fsdata-cache", "bypass") ]
    (stream_fields st
    @ [
        ("total", Dv.Int report.Infer.total);
        ("quarantined", Dv.Int (List.length report.Infer.quarantined));
      ])

(* GET /streams/:name/shape?format=paper|schema — the current shape, in
   the paper notation or as the exported JSON Schema. Responses are
   cached under the stream's prefix (with the configured TTL) and
   invalidated by the next applied push; the version in the key keeps a
   read that raced that push from answering for the new version. *)
let handle_stream_shape t c req =
  let* format = format_param req ~default:"paper" [ "paper"; "schema" ] in
  let* st = find_stream t c.name in
  let key =
    stream_cache_prefix c.name
    ^ Printf.sprintf "shape:v%d:%s" st.Registry.version format
  in
  cached t key (fun () ->
      Ok
        (if format = "schema" then shape_schema st.Registry.shape
         else json_body (stream_fields st)))

(* GET /streams/:name/history — one entry per version bump. *)
let handle_stream_history t c _ =
  let* st = find_stream t c.name in
  let entry (version, seq, shape) =
    Dv.Record
      ( Dv.json_record_name,
        [
          ("version", Dv.Int version);
          ("seq", Dv.Int seq);
          ("shape", Dv.String (shape_string shape));
        ] )
  in
  json_ok
    [
      ("stream", Dv.String st.Registry.name);
      ("version", Dv.Int st.Registry.version);
      ("history", Dv.List (List.map entry st.Registry.history));
    ]

(* GET /streams/:name/diff?from=A&to=B — what grew between two versions,
   rendered with Explain: the newer shape is checked against the older
   one, so each mismatch pinpoints a place where the stream outgrew the
   old contract. Defaults: [to] is the current version, [from] is the
   one before it. *)
let handle_stream_diff t c req =
  let* st = find_stream t c.name in
  let* to_v = int_param req "to" ~min:0 ~default:(Ok st.Registry.version) in
  let* from_v = int_param req "from" ~min:0 ~default:(Ok (max 0 (to_v - 1))) in
  let version_shape v =
    match Registry.version_shape st v with
    | Some shape -> Ok shape
    | None ->
        Error
          (json_error 404
             (Printf.sprintf "stream %S never had version %d" c.name v))
  in
  let* from_shape = version_shape from_v in
  let* to_shape = version_shape to_v in
  json_ok
    [
      ("stream", Dv.String st.Registry.name);
      ("from", Dv.Int from_v);
      ("to", Dv.Int to_v);
      ("from_shape", Dv.String (shape_string from_shape));
      ("to_shape", Dv.String (shape_string to_shape));
      ("grew", Dv.Bool (not (Shape.equal from_shape to_shape)));
      ( "changes",
        Dv.List (List.map mismatch_entry (Explain.explain to_shape from_shape))
      );
    ]

(* --- /streams/:name/{migrate,watch,hooks} — schema evolution --- *)

let migrate_error err =
  let status =
    match err with
    | Evolve.No_stream | Evolve.Unknown_version _ -> 404
    | Evolve.Evicted _ -> 409
    | Evolve.Parse_error _ -> 400
    | Evolve.Ill_typed _ | Evolve.Unsupported _ -> 422
    | Evolve.Internal _ -> 500
  in
  let extra =
    match err with
    | Evolve.Unknown_version (_, cur) -> [ ("current_version", Dv.Int cur) ]
    | Evolve.Evicted (_, oldest) -> [ ("oldest_retained", Dv.Int oldest) ]
    | _ -> []
  in
  Http.response ~status
    (json_body (("error", Dv.String (Fmt.str "%a" Evolve.pp_error err)) :: extra))

(* POST /streams/:name/migrate?since=V — rewrite the Foo program in the
   body from the provided type of version V to the current one
   (docs/EVOLUTION.md). Successes are cached under the stream's prefix
   with both versions in the key, so a push both invalidates them and
   makes them unreachable; errors are cheap and not cached. *)
let handle_stream_migrate t c req =
  let* since =
    int_param req "since"
      ~default:
        (Error
           "missing required query parameter since (the version the program \
            was compiled against)")
  in
  let program = String.trim req.Http.body in
  if program = "" then json_error 400 "missing program: send it as the request body"
  else
    let current =
      match Registry.find t.registry c.name with
      | Some st -> st.Registry.version
      | None -> -1
    in
    let key =
      stream_cache_prefix c.name
      ^ Printf.sprintf "migrate:%d-%d:" since current
      ^ digest [ program ]
    in
    cached t key (fun () ->
        match Evolve.migrate t.registry ~stream:c.name ~since ~program with
        | Error err -> Error (migrate_error err)
        | Ok r ->
            Ok
              (json_body
                 [
                   ("stream", Dv.String r.Evolve.stream);
                   ("from_version", Dv.Int r.Evolve.from_version);
                   ("to_version", Dv.Int r.Evolve.to_version);
                   ("old_shape", Dv.String (shape_string r.Evolve.old_shape));
                   ("new_shape", Dv.String (shape_string r.Evolve.new_shape));
                   ( "program",
                     Dv.String (Fsdata_foo.Syntax.expr_to_string r.Evolve.program) );
                   ("type", Dv.String (Fmt.str "%a" Fsdata_foo.Syntax.pp_ty r.Evolve.ty));
                 ]))

(* How long a watch may park when neither the deadline nor timeout-ms
   says otherwise (direct handler calls in tests; the live server's
   request deadline is always finite and tighter). *)
let watch_default_ms = 25_000

(* GET /streams/:name/watch?since=V[&timeout-ms=N] — long-poll until the
   stream's version exceeds V (default: its version at arrival, i.e.
   "the next bump"). 200 with the stream fields on a bump, 204 when the
   budget expires first, 503 when the waiter table is full. The wait is
   bounded by the request deadline less a write margin, so the answer
   always beats the socket timeout. *)
let handle_stream_watch t c req =
  let* st = find_stream t c.name in
  let* since = int_param req "since" ~min:0 ~default:(Ok st.Registry.version) in
  let* timeout_ms =
    int_param req "timeout-ms" ~min:0 ~default:(Ok watch_default_ms)
  in
  let poll () =
    match Registry.find t.registry c.name with
    | Some st when st.Registry.version > since -> Some st
    | _ -> None
  in
  let budget =
    let from_deadline =
      let r = Deadline.remaining_seconds c.deadline in
      if r = infinity then infinity else Float.max 0. (r -. 0.05)
    in
    Float.min from_deadline (float_of_int timeout_ms /. 1e3)
  in
  match Notify.wait t.watch ~key:c.name ~seconds:budget ~poll with
  | `Ready st ->
      Metrics.incr watch_notified;
      json_ok ~headers:[ ("x-fsdata-watch", "notified") ] (stream_fields st)
  | `Timeout ->
      Metrics.incr watch_timeouts;
      Http.response ~status:204 ~headers:[ ("x-fsdata-watch", "timeout") ] ""
  | `Capacity ->
      Metrics.incr watch_shed;
      Metrics.incr shed_total;
      Http.response ~status:503
        ~headers:[ ("retry-after", "1") ]
        (json_body [ ("error", Dv.String "too many concurrent watchers") ])

(* /streams/:name/hooks?url=U — webhook registration. POST registers
   (idempotently; the cursor starts at the current version, recorded
   durably in the WAL), DELETE removes, GET lists with delivery
   cursors. Registration is durable before it is acknowledged: a WAL
   append failure answers 503 and registers nothing. *)
let handle_stream_hooks t c req =
  let url () =
    Result.bind (required req "url") (fun url ->
        if String.length url > 2048 then Error (json_error 400 "url too long")
        else
          match Fsdata_evolve.Client.parse_url url with
          | Ok _ -> Ok url
          | Error m -> Error (json_error 400 m))
  in
  let hook_entry (h : Registry.hook) =
    Dv.Record
      ( Dv.json_record_name,
        [
          ("url", Dv.String h.Registry.url);
          ("delivered", Dv.Int h.Registry.delivered);
        ] )
  in
  let render (st : Registry.stream) =
    json_ok
      [
        ("stream", Dv.String st.Registry.name);
        ("version", Dv.Int st.Registry.version);
        ("hooks", Dv.List (List.map hook_entry st.Registry.hooks));
      ]
  in
  match req.Http.meth with
  | "GET" ->
      let* st = find_stream t c.name in
      render st
  | "POST" ->
      let* url = url () in
      let* st =
        durably "hook not registered" (fun () ->
            Registry.add_hook t.registry ~stream:c.name ~url)
      in
      render st
  | _ (* DELETE: the route admits no other method *) -> (
      let* url = url () in
      let* removed =
        durably "hook not removed" (fun () ->
            Registry.remove_hook t.registry ~stream:c.name ~url)
      in
      match removed with None -> no_such_stream c.name | Some st -> render st)

(* --- /query and /streams/:name/query — typed query pushdown --- *)

let default_query_limit = 1000

(* The q and limit parameters of both query routes, handed on as the
   query text, the parsed query bounded by the limit, and the limit. *)
let with_query req k =
  let* qtext = required req "q" in
  let* limit = int_param req "limit" ~min:1 ~default:(Ok default_query_limit) in
  let* query =
    Result.map_error (json_error 400) (Fsdata_query.Parser.parse_result qtext)
  in
  k qtext (Fsdata_query.Syntax.ensure_limit limit query) limit

(* An ill-typed query is a client error: 400 with the Explain-style
   diagnostic split into fields the client can act on. *)
let query_rejection (e : Fsdata_query.Check.error) =
  Http.response ~status:400
    (json_body
       [
         ( "error",
           Dv.String
             (Fmt.str "query rejected: %a" Fsdata_query.Check.pp_error e) );
         ("at", Dv.String e.Fsdata_query.Check.at);
         ("expected", Dv.String e.Fsdata_query.Check.expected);
         ("found", Dv.String (shape_string e.Fsdata_query.Check.found));
       ])

let check_query sigma query =
  Result.map_error query_rejection (Fsdata_query.Check.check (intern sigma) query)

let query_fields (checked : Fsdata_query.Check.checked)
    (r : Fsdata_query.Value.result) =
  let st = r.Fsdata_query.Value.stats in
  [
    ("output_shape", Dv.String (shape_string checked.Fsdata_query.Check.output));
    ( "rows",
      Dv.List
        (List.map Shape_compile.to_data r.Fsdata_query.Value.rows) );
    ("scanned", Dv.Int st.Fsdata_query.Value.scanned);
    ("matched", Dv.Int st.Fsdata_query.Value.matched);
    ("skipped", Dv.Int st.Fsdata_query.Value.skipped);
    ("malformed", Dv.Int st.Fsdata_query.Value.malformed);
  ]

(* POST /query?q=Q[&shape=S][&limit=N] — run Q over the
   whitespace-separated JSON documents of the body. With [shape=] the
   query is checked against that σ and an ill-typed query is rejected
   before the corpus is even parsed; without it σ is first inferred
   from the body. Responses are digest-keyed in the same LRU as
   /infer. *)
let handle_query t c req =
  with_query req @@ fun qtext query limit ->
  let shape_param = Http.query_param req "shape" in
  (* the explicit-σ path typechecks before touching the body *)
  let* pre_checked =
    match shape_param with
    | None -> Ok None
    | Some text -> (
        match Shape_parser.parse_result text with
        | Error m -> Error (json_error 400 m)
        | Ok sigma -> Result.map Option.some (check_query sigma query))
  in
  let key =
    digest
      [
        "query";
        qtext;
        string_of_int limit;
        Option.value ~default:"" shape_param;
        req.Http.body;
      ]
  in
  cached t key (fun () ->
      let checked =
        match pre_checked with
        | Some checked -> Ok checked
        | None -> (
            match Infer.of_json req.Http.body with
            | Error m -> Error (json_error 422 m)
            | Ok sigma -> check_query sigma query)
      in
      Result.map
        (fun checked ->
          let result =
            Fsdata_query.Eval_fast.eval ~cancel:c.cancel
              (Fsdata_query.Eval_fast.compile checked)
              req.Http.body
          in
          json_body (query_fields checked result))
        checked)

(* The plan of a stream query: the second-level lookup under a stream
   query's response-cache miss. Rejections are not kept. *)
let stream_plan t key (st : Registry.stream) query =
  match Cache.find t.plans key with
  | Some plan ->
      Metrics.incr plan_cache_hits;
      Ok plan
  | None ->
      Metrics.incr plan_cache_misses;
      Result.map
        (fun checked ->
          let plan = Fsdata_query.Eval_fast.compile checked in
          ignore (Cache.add t.plans key plan);
          plan)
        (check_query st.Registry.shape query)

(* POST /streams/:name/query?q=Q[&limit=N] — run Q over
   the body, checked against the stream's CURRENT shape. Both caches
   carry the stream version in their key, so a version bump re-checks
   the query against the new σ automatically — a plan compiled against
   version N can never serve version N+1 — and a push additionally
   evicts the stream's plans and responses outright. *)
let handle_stream_query t c req =
  let* st = find_stream t c.name in
  with_query req @@ fun qtext query limit ->
  let version = st.Registry.version in
  let vtag = Printf.sprintf "v%d:%d:" version limit in
  let prefix = stream_cache_prefix c.name in
  cached t
    (prefix ^ "query:" ^ vtag ^ digest [ qtext; req.Http.body ])
    (fun () ->
      Result.map
        (fun plan ->
          let result = Fsdata_query.Eval_fast.eval ~cancel:c.cancel plan req.Http.body in
          json_body
            (("stream", Dv.String st.Registry.name)
            :: ("version", Dv.Int version)
            :: query_fields (Fsdata_query.Eval_fast.checked plan) result))
        (stream_plan t (prefix ^ "plan:" ^ vtag ^ qtext) st query))

(* POST /cache/invalidate[?key=K|stream=NAME] — drop cached responses:
   one exact key, one stream's entries, or (with no parameter)
   everything. *)
let handle_cache_invalidate t _ req =
  let n =
    match (Http.query_param req "key", Http.query_param req "stream") with
    | Some key, _ -> Bool.to_int (Cache.remove t.cache key)
    | None, Some stream -> invalidate_stream t stream
    | None, None ->
        ignore (Cache.clear t.plans);
        Cache.clear t.cache
  in
  Metrics.add cache_invalidations n;
  json_ok [ ("invalidated", Dv.Int n) ]

(* --- /metrics and /healthz --- *)

let handle_metrics _ _ _ = Http.response ~status:200 (Metrics.to_json ())

(* Health degrades in the order a load balancer should learn about it:
   draining (the process is on its way out) beats overloaded (back off
   and retry), beats ok. Both degraded states answer 503 so the check
   itself is the back-off signal. *)
let handle_healthz t _ _ =
  if Atomic.get t.draining then
    Http.response ~status:503 (json_body [ ("status", Dv.String "draining") ])
  else if overloaded t then
    Http.response ~status:503
      ~headers:[ ("retry-after", "1") ]
      (json_body [ ("status", Dv.String "overloaded") ])
  else json_ok [ ("status", Dv.String "ok") ]

(* --- routing --- *)

type route = {
  meths : string list;  (* the methods it admits; any other is 405 *)
  counter : Metrics.counter;  (* serve.requests.* *)
  streams : bool;  (* reads a streamed body off the wire itself *)
  run : t -> ctx -> Http.request -> Http.response;
}

let requests name = Metrics.counter ("serve.requests." ^ name)

(* an unknown path counts under "other", or under "stream" for any
   /streams/* path, as every stream route does *)
let req_stream = requests "stream"
let req_other = requests "other"

let route ?(streams = false) meths name run =
  { meths; counter = requests name; streams; run }

let routes =
  [
    ("/infer", route ~streams:true [ "POST" ] "infer" handle_infer);
    ("/check", route [ "POST" ] "check" (handle_checkish ~explain:false));
    ("/explain", route [ "POST" ] "explain" (handle_checkish ~explain:true));
    ("/query", route [ "POST" ] "query" handle_query);
    ("/metrics", route [ "GET" ] "metrics" handle_metrics);
    ("/healthz", route [ "GET" ] "healthz" handle_healthz);
    ("/cache/invalidate", route [ "POST" ] "other" handle_cache_invalidate);
  ]

(* /streams/:name/OP, by OP *)
let stream_routes =
  [
    ("push", route [ "POST" ] "stream" handle_stream_push);
    ("query", route [ "POST" ] "stream" handle_stream_query);
    ("shape", route [ "GET" ] "stream" handle_stream_shape);
    ("history", route [ "GET" ] "stream" handle_stream_history);
    ("diff", route [ "GET" ] "stream" handle_stream_diff);
    ("migrate", route [ "POST" ] "stream" handle_stream_migrate);
    ("watch", route [ "GET" ] "stream" handle_stream_watch);
    ("hooks", route [ "GET"; "POST"; "DELETE" ] "stream" handle_stream_hooks);
  ]

(* The route of a path, with the :name of a stream route *)
let find_route path =
  match List.assoc_opt path routes with
  | Some r -> Some (r, "")
  | None -> (
      match String.split_on_char '/' path with
      | [ ""; "streams"; name; op ] when name <> "" ->
          Option.map (fun r -> (r, name)) (List.assoc_opt op stream_routes)
      | _ -> None)

let dispatch t ~cancel ~deadline ~rest found req =
  (* a route that does not stream its body gets the whole of it, drained
     before even the method check *)
  let rest, req =
    match (rest, found) with
    | Some _, Some (r, _) when r.streams -> (rest, req)
    | Some body, _ -> (None, { req with Http.body = Http.read_body_all body })
    | None, _ -> (None, req)
  in
  match found with
  | None -> json_error 404 (Printf.sprintf "no such endpoint %s" req.Http.path)
  | Some (r, _) when not (List.mem req.Http.meth r.meths) ->
      let allow = String.concat ", " r.meths in
      Http.response ~status:405
        ~headers:[ ("allow", allow) ]
        (json_body [ ("error", Dv.String ("use " ^ allow)) ])
  | Some (r, name) -> r.run t { cancel; deadline; rest; name } req

let handle ?(cancel = Fsdata_data.Cancel.never) ?(deadline = Deadline.never)
    ?rest t req =
  let found = find_route req.Http.path in
  Metrics.incr
    (match found with
    | Some (r, _) -> r.counter
    | None when String.starts_with ~prefix:"/streams/" req.Http.path -> req_stream
    | None -> req_other);
  Metrics.gauge_add inflight 1.0;
  let t0 = Clock.now_ns () in
  let resp =
    match dispatch t ~cancel ~deadline ~rest found req with
    | resp -> resp
    | exception Fsdata_data.Cancel.Cancelled ->
        (* the deadline tripped mid-inference: the cooperative token cut
           the engine off between documents *)
        Metrics.incr deadline_expired;
        json_error 504 "deadline exceeded while processing request"
    | exception Deadline.Expired ->
        (* the deadline tripped while pulling a streamed body *)
        Metrics.incr deadline_expired;
        json_error 408 "request timed out reading body"
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Metrics.incr deadline_expired;
        json_error 408 "request timed out reading body"
    | exception Http.Bad e ->
        (* a streamed body cut short: the peer closed mid-request *)
        json_error e.Http.status e.Http.reason
    | exception e -> json_error 500 (Printexc.to_string e)
  in
  Metrics.observe latency_ms
    (Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. 1e6);
  Metrics.gauge_add inflight (-1.0);
  (Metrics.incr
     (if resp.Http.status < 300 then resp_2xx
      else if resp.Http.status < 500 then resp_4xx
      else resp_5xx));
  resp

(* --- connection handling --- *)

let write_all ?fault fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Fault_net.write_substring fault fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* The client may tighten (never extend) the server deadline for its
   request. *)
let deadline_of_header req =
  match Http.header req "x-fsdata-deadline-ms" with
  | None -> Ok Deadline.never
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some ms when ms > 0 -> Ok (Deadline.after_ms ms)
      | _ -> Error (bad_value "X-Fsdata-Deadline-Ms" v))

(* One keep-alive connection, start to close. Any socket fault (peer
   reset, send timeout, expired deadline) just ends the connection — the
   server never dies for a client's sake. Anything else escaping is a
   crash for the supervisor. *)
let serve_connection t fd =
  Metrics.incr connections;
  let fault = t.cfg.fault in
  let tmo = float_of_int t.cfg.timeout_ms /. 1000. in
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO tmo;
     Unix.setsockopt_float fd Unix.SO_SNDTIMEO tmo
   with Unix.Unix_error _ -> ());
  let limits = { Http.default_limits with Http.max_body = t.cfg.max_body } in
  let r = Http.reader_of_fd ?fault fd in
  (* Admission bookkeeping lives with the connection: the reserve hook
     records what it took so every exit path — response written, error,
     peer reset — gives the bytes back exactly once. *)
  let reserved = ref 0 in
  let give_back () =
    release t !reserved;
    reserved := 0
  in
  let reserve n =
    try_reserve t n
    && begin
         reserved := !reserved + n;
         true
       end
  in
  (* a response to HEAD carries no body, or a keep-alive client would
     read it as the start of its next response *)
  let send ?head ~keep_alive resp =
    write_all ?fault fd (Http.serialize_response ?head ~keep_alive resp)
  in
  let rec loop () =
    (* the deadline covers the whole request: header read, body read
       (buffered or streamed) and handler work *)
    Http.set_deadline r (Deadline.after_ms t.cfg.timeout_ms);
    let result =
      Http.read_request_stream ~limits ~reserve
        ~stream_over:t.cfg.stream_threshold r
    in
    match result with
    | Ok None -> give_back ()
    | Error e ->
        Metrics.incr http_errors;
        if e.Http.status = 503 then Metrics.incr shed_total;
        Metrics.incr (if e.Http.status < 500 then resp_4xx else resp_5xx);
        let headers =
          if e.Http.status = 503 then [ ("retry-after", "1") ] else []
        in
        send ~keep_alive:false
          (Http.response ~headers ~status:e.Http.status
             (json_body [ ("error", Dv.String e.Http.reason) ]));
        give_back ()
    | Ok (Some (req, rest)) -> (
        let head = String.equal req.Http.meth "HEAD" in
        match deadline_of_header req with
        | Error m ->
            (* can't trust the connection state with the body possibly
               unread: answer and close *)
            Metrics.incr resp_4xx;
            send ~head ~keep_alive:false (json_error 400 m);
            give_back ()
        | Ok header_deadline ->
            let deadline =
              Deadline.min
                (Deadline.after_ms t.cfg.timeout_ms)
                header_deadline
            in
            Http.set_deadline r deadline;
            let resp =
              handle ~cancel:(Deadline.cancel deadline) ~deadline ?rest t req
            in
            let body_consumed =
              match rest with
              | None -> true
              | Some rest -> Http.body_remaining rest = 0
            in
            (* during a drain, answer what's in hand but don't linger; a
               part-read streamed body leaves the wire unusable *)
            let ka =
              body_consumed
              && Http.keep_alive req
              && not (Atomic.get t.draining)
            in
            send ~head ~keep_alive:ka resp;
            give_back ();
            if ka then loop ())
  in
  (try loop () with
  | Unix.Unix_error _ | Deadline.Expired -> ()
  | crash ->
      (* a genuine crash (or an injected worker kill): still release the
         budget and the fd, then let the supervisor see it *)
      give_back ();
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise crash);
  give_back ();
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- bounded connection queue --- *)

type conn_queue = {
  items : Unix.file_descr option Queue.t;  (* [None] = worker shutdown *)
  lock : Mutex.t;
  nonempty : Condition.t;
  capacity : int;
}

let queue_create capacity =
  {
    items = Queue.create ();
    lock = Mutex.create ();
    nonempty = Condition.create ();
    capacity;
  }

let queue_try_push q fd =
  Mutex.protect q.lock (fun () ->
      if Queue.length q.items >= q.capacity then false
      else begin
        Queue.add (Some fd) q.items;
        Condition.signal q.nonempty;
        true
      end)

let queue_push_sentinel q =
  Mutex.protect q.lock (fun () ->
      Queue.add None q.items;
      Condition.signal q.nonempty)

let queue_pop q =
  Mutex.lock q.lock;
  while Queue.is_empty q.items do
    Condition.wait q.nonempty q.lock
  done;
  let v = Queue.pop q.items in
  Mutex.unlock q.lock;
  v

let rec worker_loop t q =
  match queue_pop q with
  | None -> ()
  | Some fd ->
      serve_connection t fd;
      worker_loop t q

(* --- the accept loop --- *)

let run ?stop ?on_ready cfg =
  Metrics.set_enabled true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* In-process callers (tests) pass their own stop flag and keep the
     process's signal dispositions; standalone serving installs the
     drain-on-SIGINT/SIGTERM handlers. *)
  let stop =
    match stop with
    | Some stop -> stop
    | None ->
        let stop = Atomic.make false in
        let quit _ = Atomic.set stop true in
        Sys.set_signal Sys.sigint (Sys.Signal_handle quit);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle quit);
        stop
  in
  let quiet = on_ready <> None in
  let t = create ~draining:stop cfg in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen sock 128;
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  if not quiet then
    Printf.printf "fsdata: serving on http://%s:%d\n%!" cfg.host port;
  (match cfg.port_file with
  | Some path ->
      let oc = open_out path in
      output_string oc (string_of_int port);
      output_char oc '\n';
      close_out oc
  | None -> ());
  (* From here on the port file exists and the socket is live: whatever
     takes the accept loop down — drain or crash — must clean both up,
     or a restarted server would be found through a stale port file. *)
  let finally () =
    (try Unix.close sock with Unix.Unix_error _ -> ());
    (try Registry.close t.registry with Unix.Unix_error _ -> ());
    match cfg.port_file with
    | Some path -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ()
  in
  Fun.protect ~finally @@ fun () ->
  (match on_ready with Some f -> f port | None -> ());
  let workers = max 1 cfg.workers in
  let depth = if cfg.queue_depth > 0 then cfg.queue_depth else workers * 16 in
  let q = queue_create depth in
  let domains =
    List.init workers (fun i ->
        Domain.spawn (fun () ->
            (* crash-only: an exception out of a connection respawns the
               loop (backoff doubling from 10ms); the queue, the accept
               loop and the other workers never notice *)
            Supervisor.supervise
              ~name:(Printf.sprintf "worker-%d" i)
              ~should_restart:(fun () -> not (Atomic.get stop))
              (fun () -> worker_loop t q)))
  in
  (* the webhook delivery worker: its own domain, same crash-only
     supervision as the request workers *)
  let delivery_domain =
    Domain.spawn (fun () ->
        Supervisor.supervise ~name:"evolve-delivery"
          ~should_restart:(fun () -> not (Atomic.get stop))
          (fun () ->
            Delivery.loop
              ~cfg:
                {
                  Delivery.default_config with
                  Delivery.base_backoff_ms = max 1 cfg.hook_retry_ms;
                }
              ~notify:t.watch
              ~stop:(fun () -> Atomic.get stop)
              t.registry))
  in
  let overloaded =
    Http.serialize_response ~keep_alive:false
      (Http.response
         ~headers:[ ("retry-after", "1") ]
         ~status:503
         (json_body [ ("error", Dv.String "server over capacity") ]))
  in
  while not (Atomic.get stop) do
    (* select with a short timeout so termination signals are honoured
       within a bounded delay even on an idle listener *)
    match Unix.select [ sock ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept sock with
        | fd, _ ->
            if not (queue_try_push q fd) then begin
              Metrics.incr resp_5xx;
              Metrics.incr shed_total;
              (try write_all fd overloaded with Unix.Unix_error _ -> ());
              try Unix.close fd with Unix.Unix_error _ -> ()
            end
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
            ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  List.iter (fun _ -> queue_push_sentinel q) domains;
  List.iter Domain.join domains;
  Domain.join delivery_domain;
  if not quiet then print_endline "fsdata: shutting down"

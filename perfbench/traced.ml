(* The traced run: the workload's own inputs replayed through each layer's
   public functions, with a span around every call (Span). It runs the
   replay twice, untraced then traced, each on fresh state; the traced
   pass gives the per-layer metrics, the ratio of the two passes the
   tracing overhead.

   A workload's HTTP requests go through an in-process Server.create,
   after the server's own parser has read the exact request bytes; the
   layer calls each handler makes are then replayed as child spans of the
   same request, so a handler's self time is its duration minus theirs.
   Routes a workload's mix never sends (push and migrate on serve_read;
   infer, check and query on stream_write; every route on corpus_ingest,
   whose jobs are CLI processes) get probe requests built from the same
   inputs, so every per-layer metric is measured on every workload. *)

module Json = Fsdata_data.Json
module Raw = Fsdata_data.Json.Raw
module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module Csh = Fsdata_core.Csh
module Shape_compile = Fsdata_core.Shape_compile
module Registry = Fsdata_registry.Registry
module Wal = Fsdata_registry.Wal
module Server = Fsdata_serve.Server
module Http = Fsdata_serve.Http
module Metrics = Fsdata_obs.Metrics
module Q = Fsdata_query

(* --- per-pass accumulators --- *)

type acc = {
  bytes : (string, int) Hashtbl.t;  (** span name -> input bytes *)
  mutable merges : int;
  mutable merge_fields : int;
  mutable direct : int;
  mutable fallback : int;
  mutable scanned : int;
  mutable rows : int;
  mutable bumps : int;
  mutable wal_bytes : int;
  mutable pushes : int;
  mutable self_ns : int list;  (** handler self time, per uncached request *)
  mutable failed : int;
  mutable attempted : int;
  mutable work_ns : int;
}

let fresh_acc () =
  {
    bytes = Hashtbl.create 16;
    merges = 0;
    merge_fields = 0;
    direct = 0;
    fallback = 0;
    scanned = 0;
    rows = 0;
    bumps = 0;
    wal_bytes = 0;
    pushes = 0;
    self_ns = [];
    failed = 0;
    attempted = 0;
    work_ns = 0;
  }

let a = ref (fresh_acc ())

let add_bytes name n =
  Hashtbl.replace !a.bytes name (n + Option.value ~default:0 (Hashtbl.find_opt !a.bytes name))

let fail () = !a.failed <- !a.failed + 1

(* A layer call: a span, plus its input size for per-byte metrics. *)
let layer ?(bytes = 0) name f =
  if bytes > 0 then add_bytes name bytes;
  Span.with_ name f

(* Time [f] for the overhead comparison; checks run outside it. *)
let work f =
  let t0 = Util.now_ns () in
  let v = f () in
  !a.work_ns <- !a.work_ns + (Util.now_ns () - t0);
  v

(* --- the layer calls --- *)

(* The lex-only floor: every token of the stream scanned with the
   parser's own Json.Raw primitives, no tree built. *)
let lex_walk text =
  let st = Raw.make text in
  let rec value () =
    Raw.skip_ws st;
    match Raw.peek_char st with
    | '{' ->
        Raw.advance st;
        Raw.skip_ws st;
        if Raw.peek_char st = '}' then Raw.advance st else members ()
    | '[' ->
        Raw.advance st;
        Raw.skip_ws st;
        if Raw.peek_char st = ']' then Raw.advance st else elements ()
    | '"' -> ignore (Raw.parse_string st)
    | 't' -> if not (Raw.lit st "true") then Raw.fail st "bad literal"
    | 'f' -> if not (Raw.lit st "false") then Raw.fail st "bad literal"
    | 'n' -> if not (Raw.lit st "null") then Raw.fail st "bad literal"
    | _ -> ignore (Raw.parse_number st)
  and members () =
    Raw.skip_ws st;
    ignore (Raw.parse_string st);
    Raw.skip_ws st;
    Raw.expect st ':';
    value ();
    Raw.skip_ws st;
    if Raw.peek_char st = ',' then begin
      Raw.advance st;
      members ()
    end
    else Raw.expect st '}'
  and elements () =
    value ();
    Raw.skip_ws st;
    if Raw.peek_char st = ',' then begin
      Raw.advance st;
      elements ()
    end
    else Raw.expect st ']'
  in
  (* a malformed document is skipped at the next top-level boundary,
     as the recovering parser does *)
  let continue = ref true in
  Raw.skip_ws st;
  while !continue && not (Raw.at_eof st) do
    let start = Raw.offset st in
    (try value () with Fsdata_data.Diagnostic.Parse_error _ -> continue := Raw.resync st ~start);
    Raw.skip_ws st
  done

let top_fields = function
  | Shape.Record r | Shape.Nullable (Shape.Record r) -> List.length r.Shape.fields
  | _ -> 0

let csh x y =
  !a.merges <- !a.merges + 1;
  !a.merge_fields <- !a.merge_fields + top_fields x + top_fields y;
  layer "core.csh" (fun () -> Csh.csh ~mode:(Infer.csh_mode `Practical) x y)

(* Clean text -> shape, as Infer.of_json does it: parse, S(d) per
   document, csh fold. *)
let infer_text ?on_error text =
  let n = String.length text in
  let docs =
    layer ~bytes:n "data.json.parse" (fun () ->
        List.rev (Json.fold_many ?on_error (fun acc ds -> List.rev_append ds acc) [] text))
  in
  let shapes = layer ~bytes:n "core.infer.shape_of_value" (fun () -> List.map (Infer.shape_of_value ~mode:`Practical) docs) in
  List.fold_left csh Shape.Bottom shapes

let lex text = layer ~bytes:(String.length text) "data.json.lex" (fun () -> lex_walk text)

let tolerant text =
  let report =
    layer ~bytes:(String.length text) "core.infer.tolerant" (fun () ->
        Result.get_ok
          (Fsdata_core.Par_infer.of_json_tolerant ~jobs:1 ~budget:(Fsdata_data.Diagnostic.Percent 1.) text))
  in
  report.Infer.shape

let compiled_parse sigma text =
  let c = layer "core.shape_compile.compile" (fun () -> Shape_compile.compile sigma) in
  let _, st = layer ~bytes:(String.length text) "core.shape_compile.parse" (fun () -> Shape_compile.parse_corpus c text) in
  !a.direct <- !a.direct + st.Shape_compile.direct;
  !a.fallback <- !a.fallback + st.Shape_compile.fallback

let render_rows (res : Q.Value.result) = List.map Q.Value.render res.Q.Value.rows

(* check + plan + compiled evaluation; the rows are compared with the
   reference interpreter outside the timed work *)
let query ~compiled sigma q text =
  let checked =
    match layer "query.check" (fun () -> Q.Check.check sigma (Q.Parser.parse q)) with
    | Ok c -> c
    | Error _ -> failwith ("query rejected: " ^ q)
  in
  let res =
    if compiled then
      let plan = layer "query.plan" (fun () -> Q.Eval_fast.compile checked) in
      layer ~bytes:(String.length text) "query.eval_fast" (fun () -> Q.Eval_fast.eval plan text)
    else layer ~bytes:(String.length text) "query.eval" (fun () -> Q.Eval.eval checked text)
  in
  !a.scanned <- !a.scanned + res.Q.Value.stats.Q.Value.scanned;
  !a.rows <- !a.rows + List.length res.Q.Value.rows;
  (checked, res)

let check_rows checked res text =
  if render_rows res <> render_rows (Q.Eval.eval checked text) then fail ()

(* --- the registry mirror: the same pushes on a side registry, to time
   Registry.push, the WAL append it makes and the recovery of the state
   the workload built --- *)

type mirror = { reg : Registry.t; dir : string; probe : Wal.t }

let wal_size dir = try (Unix.stat (Filename.concat dir "wal.log")).Unix.st_size with Unix.Unix_error _ -> 0

let mirror_push m ~stream delta =
  let before = wal_size m.dir in
  let old = Option.map (fun s -> s.Registry.version) (Registry.find m.reg stream) in
  let st = layer "registry.push" (fun () -> Registry.push m.reg ~stream delta) in
  let rec_bytes = wal_size m.dir - before in
  !a.pushes <- !a.pushes + 1;
  !a.wal_bytes <- !a.wal_bytes + rec_bytes;
  if Some st.Registry.version <> old && old <> None then !a.bumps <- !a.bumps + 1;
  (* the append alone, on a probe log, with a record of the same size *)
  let payload = String.make (max 0 (rec_bytes - 8)) 'x' in
  layer "registry.wal.append" (fun () -> Wal.append m.probe payload)

let recover src ~dir =
  Util.copy_dir src dir;
  let reg = layer "registry.recover" (fun () -> Registry.open_ ~fsync:`Never ~snapshot_every:Stream_write.snapshot_every ~dir:(Some dir) ()) in
  Registry.close reg

(* --- HTTP requests through the in-process server --- *)

type ctx = {
  srv : Server.t;
  mirror : mirror;
  seen : (string, string) Hashtbl.t;  (** request bytes -> digest of its last miss *)
  expect : string -> string option;  (** request bytes -> reference digest *)
}

let counter name = List.assoc_opt name (Metrics.export ()) |> function Some (`Int n) -> n | _ -> 0

let segments path = String.split_on_char '/' path |> List.filter (( <> ) "")

(* The layer calls the handler made, replayed as children of the request;
   returns their summed duration. *)
let replay_children ctx route (req : Http.request) ~compile_missed ~stream_shape =
  let t0 = Util.now_ns () in
  let excluded = ref 0 in
  let body = req.Http.body in
  (match route with
  | "infer" -> ignore (infer_text ~on_error:(fun _ ~skipped:_ -> ()) body)
  | "query" ->
      let sigma = infer_text body in
      let q = Option.get (Http.query_param req "q") in
      let compiled = Http.query_param req "compiled" = Some "1" in
      ignore (query ~compiled sigma q body)
  | "stream_query" ->
      let q = Option.get (Http.query_param req "q") in
      ignore (query ~compiled:true (Option.get stream_shape) q body)
  | "check" ->
      let d = layer ~bytes:(String.length body) "data.json.parse" (fun () -> Json.parse body) in
      ignore (layer ~bytes:(String.length body) "core.infer.shape_of_value" (fun () -> Infer.shape_of_value d));
      if compile_missed then begin
        let sigma = Fsdata_core.Shape_parser.parse (Option.get (Http.query_param req "shape")) in
        compiled_parse sigma body
      end
  | "shape" ->
      if Http.query_param req "format" = Some "schema" then
        ignore (layer "codegen.json_schema" (fun () -> Fsdata_codegen.Json_schema.to_string (Option.get stream_shape)))
  | "push" -> (
      match segments req.Http.path with
      | [ _; stream; _ ] ->
          let delta = infer_text body in
          (* the exact pair the push folds; inside Registry.push too, so
             not counted as a child a second time *)
          let m0 = Util.now_ns () in
          ignore (csh (Option.value ~default:Shape.Bottom stream_shape) delta);
          excluded := Util.now_ns () - m0;
          mirror_push ctx.mirror ~stream delta
      | _ -> ())
  | "migrate" -> (
      match segments req.Http.path with
      | [ _; stream; _ ] ->
          let since = int_of_string (Option.get (Http.query_param req "since")) in
          ignore
            (layer "evolve.migrate" (fun () ->
                 Fsdata_evolve.Service.migrate ctx.mirror.reg ~stream ~since ~program:(String.trim body)))
      | _ -> ())
  | _ -> ());
  Util.now_ns () - t0 - !excluded

let http ctx ~rid route (r : Util.request) =
  !a.attempted <- !a.attempted + 1;
  let bytes = Util.serialize r in
  let resp, cache, child_ns, hs =
    work (fun () ->
        Span.request rid "request" (fun () ->
            let req =
              layer "serve.http.read" (fun () ->
                  match Http.read_request (Http.reader_of_string bytes) with
                  | Ok (Some req) -> req
                  | _ -> failwith ("unparseable request " ^ r.Util.target))
            in
            (* the stream the request acts on, as it was before *)
            let stream_shape =
              match segments req.Http.path with
              | [ "streams"; s; _ ] -> Option.map (fun st -> st.Registry.shape) (Registry.find (Server.registry ctx.srv) s)
              | _ -> None
            in
            let c0 = counter "compile.cache.misses" in
            let h0 = Util.now_ns () in
            let resp = layer ("serve.handle." ^ route) (fun () -> Server.handle ctx.srv req) in
            let hs = Util.now_ns () - h0 in
            let cache = List.assoc_opt "x-fsdata-cache" resp.Http.resp_headers in
            let uncached = cache <> Some "hit" in
            let child_ns =
              if uncached then
                replay_children ctx route req ~compile_missed:(counter "compile.cache.misses" > c0) ~stream_shape
              else 0
            in
            (* the lex-only floor and the tolerant parallel entry point over
               the same body: measured beside the handler, not as its
               children *)
            if uncached && (route = "infer" || route = "push") then begin
              lex req.Http.body;
              ignore (tolerant req.Http.body)
            end;
            (resp, cache, child_ns, hs)))
  in
  let uncached = cache <> Some "hit" in
  if uncached then !a.self_ns <- (hs - child_ns) :: !a.self_ns;
  let d = Gen.digest resp.Http.resp_body in
  let ok_status = resp.Http.status >= 200 && resp.Http.status < 300 in
  let ok_ref = match ctx.expect bytes with Some e -> e = d | None -> true in
  (* a cache hit must be byte-identical to the miss it caches *)
  let ok_cache =
    match cache with
    | Some "miss" ->
        Hashtbl.replace ctx.seen bytes d;
        true
    | Some "hit" -> Hashtbl.find_opt ctx.seen bytes = Some d
    | _ -> true
  in
  if not (ok_status && ok_ref && ok_cache) then fail ()

let new_ctx ~expect ~state ~initial =
  let srv_dir = Filename.concat state "server" and mirror_dir = Filename.concat state "mirror" in
  (match initial with
  | Some src ->
      Util.copy_dir src srv_dir;
      Util.copy_dir src mirror_dir
  | None ->
      Util.rm_rf srv_dir;
      Util.rm_rf mirror_dir;
      Util.mkdir_p mirror_dir);
  let srv =
    Server.create
      {
        (Serve_common.config ?state_dir:(Option.map (fun _ -> srv_dir) initial) ()) with
        Server.snapshot_every = Stream_write.snapshot_every;
      }
  in
  let reg = Registry.open_ ~fsync:`Never ~snapshot_every:Stream_write.snapshot_every ~dir:(Some mirror_dir) () in
  let probe, _ = Wal.open_ ~fsync:`Never (Filename.concat state "probe.log") in
  { srv; mirror = { reg; dir = mirror_dir; probe }; seen = Hashtbl.create 256; expect }

(* Recovery is timed on [initial] when the workload starts from a
   pre-built directory, else on the state the workload's pushes built. *)
let close_ctx ?initial ctx ~state =
  Registry.close ctx.mirror.reg;
  Wal.close ctx.mirror.probe;
  recover (Option.value ~default:ctx.mirror.dir initial) ~dir:(Filename.concat state "recovered")

(* --- the three replays --- *)

let post = Util.post
let get = Util.get

(* the first field of each kind, for /migrate probes *)
let probe_field = function
  | Gen.Events -> "Id"
  | Gen.Wide -> "F000"
  | Gen.Payload -> "Name"
  | Gen.Worldbank -> "Date"

let first_docs text n =
  String.split_on_char '\n' text |> List.filter (( <> ) "") |> List.filteri (fun i _ -> i < n)

let corpus_ingest ~seed =
  let cs = Ingest.corpora seed in
  let refs = Array.map (fun c -> Result.get_ok (Infer.of_json c.Ingest.clean)) cs in
  fun ~state ->
    let ctx = new_ctx ~expect:(fun _ -> None) ~state ~initial:None in
    Array.iteri
      (fun i job ->
        !a.attempted <- !a.attempted + 1;
        match job with
        | Ingest.Query j ->
            let c = cs.(j) in
            let sigma, checked, res =
              work (fun () ->
                  Span.request i "job.query" (fun () ->
                      lex c.Ingest.clean;
                      let sigma = infer_text c.Ingest.clean in
                      compiled_parse sigma c.Ingest.clean;
                      let checked, res = query ~compiled:true sigma c.Ingest.query c.Ingest.clean in
                      (sigma, checked, res)))
            in
            if not (Shape.equal sigma refs.(j)) then fail ();
            check_rows checked res c.Ingest.clean
        | Ingest.Infer j ->
            let c = cs.(j) in
            let s = work (fun () -> Span.request i "job.infer" (fun () -> tolerant c.Ingest.faulty)) in
            if not (Shape.equal s refs.(j)) then fail ())
      Ingest.rotation;
    (* the four smallest corpora, one of each kind, as requests to every
       route *)
    let base = Array.length Ingest.rotation in
    Array.iteri
      (fun j c ->
        if j < Array.length Gen.kinds then
          let stream = Printf.sprintf "ingest%d" j in
          let doc = List.hd (first_docs c.Ingest.clean 1) in
          let reqs =
            [
              ("infer", post "/infer?max-errors=1%25" c.Ingest.faulty);
              ("query", post ("/query?compiled=1&q=" ^ Gen.url_encode c.Ingest.query) c.Ingest.clean);
              ("check", post ("/check?compiled=1&shape=" ^ Gen.url_encode (Shape.to_string refs.(j))) doc);
              ("push", post (Printf.sprintf "/streams/%s/push" stream) (Gen.text (first_docs c.Ingest.clean 64)));
              ("shape", get (Printf.sprintf "/streams/%s/shape?format=schema" stream));
              ("migrate", post (Printf.sprintf "/streams/%s/migrate?since=1" stream) ("y." ^ probe_field Gen.kinds.(j)));
            ]
          in
          List.iteri (fun k (route, r) -> http ctx ~rid:(base + (j * 8) + k) route r) reqs)
      cs;
    close_ctx ctx ~state

let serve_read ~seed ~seconds =
  let inp = Serve_read.inputs ~seed ~seconds in
  let pushes_ref, distinct_ref = Serve_read.reference inp in
  let expect = Hashtbl.create 512 in
  Array.iteri (fun i r -> Hashtbl.replace expect (Util.serialize r) pushes_ref.(i)) inp.Serve_read.pushes;
  Array.iteri (fun i (_, r) -> Hashtbl.replace expect (Util.serialize r) distinct_ref.(i)) inp.Serve_read.distinct;
  let replayed = min 2000 (Array.length inp.Serve_read.schedule) in
  fun ~state ->
    let ctx = new_ctx ~expect:(Hashtbl.find_opt expect) ~state ~initial:None in
    let rid = ref 0 in
    let send route r =
      http ctx ~rid:!rid route r;
      incr rid
    in
    (* the warm-up, then the schedule: the same sequence the server saw *)
    Array.iter (send "push") inp.Serve_read.pushes;
    Array.iter (fun (route, r) -> send route r) inp.Serve_read.distinct;
    Array.iteri
      (fun i d ->
        if i < replayed then
          let route, r = inp.Serve_read.distinct.(d) in
          send route r)
      inp.Serve_read.schedule;
    for s = 0 to 7 do
      send "migrate" (post (Printf.sprintf "/streams/r%d/migrate?since=1" s) "y.Id")
    done;
    close_ctx ctx ~state

let stream_write ~seed ~seconds ~dir =
  let built = Filename.concat dir "prebuilt" in
  let versions = Stream_write.prebuild ~seed ~dir:built in
  let sched = Stream_write.schedule ~seed ~seconds ~versions in
  let replayed = min 120 (Array.length sched) in
  (* the (stream shape, delta) pairs recovery folds, in WAL order *)
  let deltas =
    List.concat
      (List.init Stream_write.prebuild_pushes (fun k ->
           List.init Stream_write.streams (fun s ->
               let r = Gen.rng ~seed ~stream:(10_000 + (s * 1000) + k) in
               (s, Result.get_ok (Infer.of_json (Stream_write.prebuild_batch r k))))))
  in
  fun ~state ->
    let acc = Array.make Stream_write.streams Shape.Bottom in
    work (fun () ->
        Span.request (-1) "recovery.fold" (fun () ->
            List.iter (fun (s, d) -> acc.(s) <- csh acc.(s) d) deltas));
    let ctx = new_ctx ~expect:(fun _ -> None) ~state ~initial:(Some built) in
    Array.iteri
      (fun i (s, route, r) ->
        if i < replayed then begin
          http ctx ~rid:i route r;
          (* probes for the routes this mix never sends *)
          if route = "push" && i mod 10 = 0 then begin
            let stream = Stream_write.stream_name s in
            let doc = List.hd (first_docs r.Util.body 1) in
            let sigma = Result.get_ok (Infer.of_json doc) in
            let first_field =
              match Json.parse doc with
              | Fsdata_data.Data_value.Record (_, (k, _) :: _) -> k
              | _ -> "f0000"
            in
            http ctx ~rid:i "infer" (post "/infer" r.Util.body);
            http ctx ~rid:i "check" (post ("/check?compiled=1&shape=" ^ Gen.url_encode (Shape.to_string sigma)) doc);
            http ctx ~rid:i "stream_query"
              (post
                 (Printf.sprintf "/streams/%s/query?compiled=1&q=%s" stream (Gen.url_encode "select .f0000, .f0001"))
                 r.Util.body);
            http ctx ~rid:i "query" (post ("/query?compiled=1&q=" ^ Gen.url_encode ("select ." ^ first_field)) r.Util.body)
          end
        end)
      sched;
    close_ctx ~initial:built ctx ~state

(* --- metrics --- *)

let per_byte (acc : acc) agg name =
  let self = match Hashtbl.find_opt agg name with Some (_, _, s) -> s | None -> 0 in
  let b = Option.value ~default:0 (Hashtbl.find_opt acc.bytes name) in
  if b = 0 then 0. else float_of_int self /. float_of_int b

let mean_us agg name =
  match Hashtbl.find_opt agg name with
  | Some (n, d, _) when n > 0 -> float_of_int d /. float_of_int n /. 1e3
  | _ -> 0.

let mean_us_of names agg =
  let n, d =
    List.fold_left
      (fun (n, d) name ->
        match Hashtbl.find_opt agg name with Some (k, t, _) -> (n + k, d + t) | None -> (n, d))
      (0, 0) names
  in
  if n = 0 then 0. else float_of_int d /. float_of_int n /. 1e3

let ratio h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

(* per-layer metric -> (end-to-end metric it should move, workload) *)
let layer_map =
  [
    ("data.json.lex_ns_per_byte", "mib_per_s, p50_ms", "corpus_ingest");
    ("data.json.parse_ns_per_byte", "mib_per_s, p50_ms; p90_ms", "corpus_ingest; serve_read misses");
    ("core.infer.ns_per_byte", "mib_per_s, p50_ms", "corpus_ingest");
    ("core.infer.tolerant_ns_per_byte", "mib_per_s, p50_ms", "corpus_ingest");
    ("core.csh.merges", "p50_ms, p90_ms, setup_s", "stream_write");
    ("core.csh.ns_per_merge", "p50_ms, p90_ms, setup_s", "stream_write");
    ("core.csh.fields_per_merge", "p50_ms, p90_ms, setup_s", "stream_write");
    ("core.shape_compile.ns_per_byte", "p50_ms", "corpus_ingest; serve_read /check");
    ("core.shape_compile.direct_ratio", "p50_ms", "corpus_ingest; serve_read /check");
    ("core.hcons.hit_ratio", "cpu_ms_per_op", "serve_read");
    ("query.check_us", "p50_ms", "corpus_ingest; serve_read /query");
    ("query.plan_us", "p50_ms", "corpus_ingest; serve_read /query");
    ("query.eval_fast.ns_per_byte", "p50_ms", "corpus_ingest; serve_read /query");
    ("query.docs_per_row", "p50_ms", "corpus_ingest; serve_read /query");
    ("serve.http.read_us", "p50_ms, cpu_ms_per_op", "serve_read");
    ("serve.handle_us.infer", "p50_ms, p90_ms", "serve_read");
    ("serve.handle_us.check", "p50_ms, p90_ms", "serve_read");
    ("serve.handle_us.query", "p50_ms, p90_ms", "serve_read");
    ("serve.handle_us.shape", "p50_ms, p90_ms", "serve_read, stream_write");
    ("serve.handle_us.push", "p50_ms, p90_ms", "stream_write");
    ("serve.handle_us.migrate", "p50_ms, p90_ms", "stream_write");
    ("serve.self_us", "cpu_ms_per_op", "serve_read");
    ("serve.cache.hit_ratio", "p50_ms, cpu_ms_per_op", "serve_read");
    ("serve.plan_cache.hit_ratio", "p50_ms, cpu_ms_per_op", "serve_read");
    ("serve.compile_cache.hit_ratio", "p50_ms, cpu_ms_per_op", "serve_read");
    ("serve.cache.invalidations", "p50_ms, cpu_ms_per_op", "stream_write");
    ("registry.push_us", "p50_ms, p90_ms", "stream_write");
    ("registry.wal.append_us", "p50_ms, p90_ms", "stream_write");
    ("registry.wal.bytes_per_push", "p50_ms, peak_rss_mib", "stream_write");
    ("registry.version_bumps", "p90_ms", "stream_write");
    ("registry.recover_ms", "setup_s", "stream_write");
    ("evolve.migrate_us", "p90_ms", "stream_write");
    ("codegen.json_schema_us", "p90_ms", "stream_write");
    ("obs.trace_overhead", "(none)", "each workload");
  ]

let units =
  [
    ("ns_per_byte", "ns/B");
    ("_us", "us");
    ("_ms", "ms");
    ("_ratio", "ratio");
    ("trace_overhead", "ratio");
    ("bytes_per_push", "B");
    ("fields_per_merge", "count");
    ("docs_per_row", "count");
    ("ns_per_merge", "ns");
  ]

let unit_of name =
  match List.find_opt (fun (suffix, _) -> String.ends_with ~suffix name) units with
  | Some (_, u) -> u
  | None -> if String.starts_with ~prefix:"serve.handle_us." name then "us" else "count"

let run ~workload ~dir ~seed ~seconds ~spans_file =
  let replay =
    match workload with
    | "corpus_ingest" -> corpus_ingest ~seed
    | "serve_read" -> serve_read ~seed ~seconds
    | "stream_write" -> stream_write ~seed ~seconds ~dir
    | _ -> failwith ("unknown workload " ^ workload)
  in
  Metrics.set_enabled true;
  (* each pass in its own child, forked from the same state, so neither
     inherits the heap the other grew; each pass's work time is scaled by
     the calibration kernel run around it, so host drift between the two
     passes does not read as tracing overhead *)
  let pass traced =
    Util.in_child (fun () ->
        let state = Filename.concat dir (if traced then "traced" else "untraced") in
        Util.mkdir_p state;
        Metrics.reset ();
        Shape.hcons_clear ();
        let kernel () = List.init 7 (fun _ -> Probe.once ()) in
        let before = kernel () in
        Span.enabled := traced;
        replay ~state;
        Span.enabled := false;
        let scale = Probe.wall_scale (before @ kernel ()) in
        !a.work_ns <- int_of_float (float_of_int !a.work_ns *. scale);
        let counters = List.filter_map (function k, `Int n -> Some (k, n) | _ -> None) (Metrics.export ()) in
        (!a, !Span.spans, counters))
  in
  let untraced, _, _ = pass false in
  let traced, all, counters = pass true in
  Span.write spans_file all;
  let agg = Span.aggregate all in
  let c k = Option.value ~default:0 (List.assoc_opt k counters) in
  let overhead = (float_of_int traced.work_ns /. float_of_int (max 1 untraced.work_ns)) -. 1. in
  let handle route = mean_us agg ("serve.handle." ^ route) in
  let metrics =
    [
      ("data.json.lex_ns_per_byte", per_byte traced agg "data.json.lex");
      ("data.json.parse_ns_per_byte", per_byte traced agg "data.json.parse");
      ("core.infer.ns_per_byte", per_byte traced agg "core.infer.shape_of_value");
      ("core.infer.tolerant_ns_per_byte", per_byte traced agg "core.infer.tolerant");
      ("core.csh.merges", float_of_int traced.merges);
      ( "core.csh.ns_per_merge",
        match Hashtbl.find_opt agg "core.csh" with
        | Some (n, d, _) when n > 0 -> float_of_int d /. float_of_int n
        | _ -> 0. );
      ("core.csh.fields_per_merge", float_of_int traced.merge_fields /. float_of_int (max 1 traced.merges));
      ("core.shape_compile.ns_per_byte", per_byte traced agg "core.shape_compile.parse");
      ("core.shape_compile.direct_ratio", ratio traced.direct traced.fallback);
      ("core.hcons.hit_ratio", ratio (c "shape.hcons.hits") (c "shape.hcons.misses"));
      ("query.check_us", mean_us agg "query.check");
      ("query.plan_us", mean_us agg "query.plan");
      ("query.eval_fast.ns_per_byte", per_byte traced agg "query.eval_fast");
      ("query.docs_per_row", float_of_int traced.scanned /. float_of_int (max 1 traced.rows));
      ("serve.http.read_us", mean_us agg "serve.http.read");
      ("serve.handle_us.infer", handle "infer");
      ("serve.handle_us.check", handle "check");
      ("serve.handle_us.query", mean_us_of [ "serve.handle.query"; "serve.handle.stream_query" ] agg);
      ("serve.handle_us.shape", handle "shape");
      ("serve.handle_us.push", handle "push");
      ("serve.handle_us.migrate", handle "migrate");
      ("serve.self_us", Util.median (List.map float_of_int traced.self_ns) /. 1e3);
      ("serve.cache.hit_ratio", ratio (c "serve.cache.hits") (c "serve.cache.misses"));
      ("serve.plan_cache.hit_ratio", ratio (c "serve.plan_cache.hits") (c "serve.plan_cache.misses"));
      ("serve.compile_cache.hit_ratio", ratio (c "compile.cache.hits") (c "compile.cache.misses"));
      ("serve.cache.invalidations", float_of_int (c "serve.cache.invalidations"));
      ("registry.push_us", mean_us agg "registry.push");
      ("registry.wal.append_us", mean_us agg "registry.wal.append");
      ("registry.wal.bytes_per_push", float_of_int traced.wal_bytes /. float_of_int (max 1 traced.pushes));
      ("registry.version_bumps", float_of_int traced.bumps);
      ("registry.recover_ms", mean_us agg "registry.recover" /. 1e3);
      ("evolve.migrate_us", mean_us agg "evolve.migrate");
      ("codegen.json_schema_us", mean_us agg "codegen.json_schema");
      ("obs.trace_overhead", overhead);
    ]
  in
  Report.line "%s traced: %d spans written to %s" workload (List.length all) spans_file;
  Report.line "%s traced: counters cache %d/%d plan %d/%d compile %d/%d hcons %d/%d invalidations %d" workload
    (c "serve.cache.hits") (c "serve.cache.misses") (c "serve.plan_cache.hits") (c "serve.plan_cache.misses")
    (c "compile.cache.hits") (c "compile.cache.misses") (c "shape.hcons.hits") (c "shape.hcons.misses")
    (c "serve.cache.invalidations");
  Report.line "%s traced: untraced pass %.3f s, traced pass %.3f s" workload
    (float_of_int untraced.work_ns /. 1e9) (float_of_int traced.work_ns /. 1e9);
  List.iter
    (fun (name, v) ->
      let moves, on = match List.find_opt (fun (n, _, _) -> n = name) layer_map with
        | Some (_, m, w) -> (m, w) | None -> ("", "") in
      Report.line "layer %-34s %14.4f %-6s moves %-26s on %s" name v (unit_of name) moves on)
    metrics;
  {
    Report.correct = traced.failed = 0 && untraced.failed = 0;
    attempted = traced.attempted;
    failed = traced.failed;
    metrics = List.map (fun (n, v) -> (n, v, unit_of n)) metrics;
  }

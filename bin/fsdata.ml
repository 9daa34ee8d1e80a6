(* fsdata — command-line frontend for the F# Data reproduction.

   Subcommands:
     infer    infer and print the shape of sample documents (--paper for
              the core algebra, --global for per-element XML signatures)
     provide  print the provided type (F#-style signatures, Figure 8;
              --code for the generated member bodies)
     codegen  emit an OCaml module with typed access to the inferred shape
     check    validate a document against samples or a --shape expression,
              explaining any mismatch
     schema   export the inferred shape as a JSON Schema document
     sample   generate representative documents from a shape
     query    run a typed query over a JSON corpus
     serve    run the HTTP inference service and live shape registry
     migrate  rewrite a user program for a provider re-run with added
              samples (Remark 1's three transformations)
     watch    long-poll a served stream and print its version bumps *)

open Cmdliner
module Infer = Fsdata_core.Infer
module Shape = Fsdata_core.Shape
module Preference = Fsdata_core.Preference
module Provide = Fsdata_provider.Provide
module Signature = Fsdata_provider.Signature
module Codegen = Fsdata_codegen.Codegen
module Diagnostic = Fsdata_data.Diagnostic
module Dv = Fsdata_data.Data_value

(* Exit code for "inference succeeded, but some samples were quarantined"
   — distinct from success (0) and from hard errors (cmdliner's 124 /
   check's 1), so scripts can tell a degraded run from a clean one. *)
let quarantine_exit_code = 3

module Obs_trace = Fsdata_obs.Trace
module Obs_metrics = Fsdata_obs.Metrics

(* --- observability flags (docs/OBSERVABILITY.md) --- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span for every pipeline stage (parse, infer chunks and
           merges, provide, codegen) and write a Chrome $(b,trace_event)
           JSON document to $(docv) on exit. Load it in Perfetto
           (ui.perfetto.dev) or chrome://tracing; worker domains appear as
           separate threads. See $(b,docs/OBSERVABILITY.md).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Record pipeline counters and histograms (samples ingested and
           quarantined, csh merges, per-format parse volume, chunk sizes,
           GC snapshots) and write them on exit as a single flat JSON
           object with keys in stable sorted order — $(b,-) for standard
           output. See $(b,docs/OBSERVABILITY.md).")

(* Runs before the command body (cmdliner evaluates the term's
   arguments first). The writers are registered with [at_exit] so they
   fire on every exit path, in particular the quarantine
   [Stdlib.exit 3] of {!finish_tolerant}. One callback handles both
   outputs so the [work] and [render] GC snapshots bracket trace
   serialization deterministically. *)
let setup_obs trace metrics =
  if trace <> None then Obs_trace.set_enabled true;
  if metrics <> None then begin
    Obs_metrics.set_enabled true;
    Obs_metrics.gc_snapshot "start"
  end;
  if trace <> None || metrics <> None then
    at_exit (fun () ->
        Obs_metrics.gc_snapshot "work";
        (match trace with
        | Some path ->
            let oc = open_out_bin path in
            output_string oc (Obs_trace.to_trace_event_json ());
            close_out oc
        | None -> ());
        Obs_metrics.gc_snapshot "render";
        match metrics with
        | Some "-" -> print_string (Obs_metrics.to_json ())
        | Some path ->
            let oc = open_out_bin path in
            output_string oc (Obs_metrics.to_json ());
            close_out oc
        | None -> ())

let obs_term = Term.(const setup_obs $ trace_arg $ metrics_arg)

type format = Infer.format = Json | Xml | Csv

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let detect_format path =
  match String.lowercase_ascii (Filename.extension path) with
  | ".json" -> Ok Json
  | ".xml" -> Ok Xml
  | ".csv" -> Ok Csv
  | ext -> Error (`Msg (Printf.sprintf "cannot detect format from extension %S (use --format)" ext))

let format_conv =
  Arg.enum [ ("json", Json); ("xml", Xml); ("csv", Csv) ]

let format_arg =
  Arg.(
    value
    & opt (some format_conv) None
    & info [ "f"; "format" ] ~docv:"FORMAT"
        ~doc:"Input format: $(b,json), $(b,xml) or $(b,csv). Defaults to the
              file extension.")

let samples_arg =
  Arg.(
    non_empty
    & pos_all file []
    & info [] ~docv:"SAMPLE"
        ~doc:"Sample document(s); multiple samples are merged with the
              common preferred shape, as with the provider's multi-sample
              static parameter.")

let root_name_arg =
  Arg.(
    value
    & opt string "Root"
    & info [ "root-name" ] ~docv:"NAME" ~doc:"Name seed for provided classes.")

let global_arg =
  Arg.(
    value & flag
    & info [ "g"; "global" ]
        ~doc:
          "XML only: use global inference — unify all elements with the
           same name across the samples (Section 6.2), allowing recursive
           document shapes.")

let csv_schema_arg =
  Arg.(
    value
    & opt string ""
    & info [ "csv-schema" ] ~docv:"SCHEMA"
        ~doc:"CSV only: column-type overrides, e.g.
              'Temp=float, Flag=bool?' (the CsvProvider Schema
              parameter).")

let resolve_format format paths =
  match format with
  | Some f -> Ok f
  | None -> ( match paths with [] -> Error (`Msg "no samples") | p :: _ -> detect_format p)

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of domains for parallel multi-sample inference; $(b,0)
           (the default) means the recommended domain count of the
           machine. Per-chunk shapes are merged with a balanced csh tree
           reduction, which is sound because csh is the least upper bound
           of Lemma 1; $(b,--jobs 1) forces the sequential fold.")

let budget_conv =
  let parse s =
    match Diagnostic.budget_of_string s with
    | Result.Ok b -> Ok b
    | Result.Error m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf b -> Fmt.string ppf (Diagnostic.budget_to_string b))

let max_errors_arg =
  Arg.(
    value
    & opt (some budget_conv) None
    & info [ "max-errors" ] ~docv:"N|N%"
        ~doc:
          "Error budget for fault-tolerant inference: quarantine up to $(docv)
           malformed samples (an absolute count, or a percentage of the
           corpus such as $(b,5%)) instead of aborting on the first fault.
           Quarantined samples are skipped by the shape fold and reported;
           when any sample was quarantined the command exits with code
           $(b,3). Without this option (or with $(b,0)) any fault is
           fatal, exactly as before.")

let quarantine_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "quarantine" ] ~docv:"DIR"
        ~doc:
          "With $(b,--max-errors): write every quarantined sample and a
           machine-readable $(b,report.json) (format, global sample index,
           line/column, message per skipped sample) into $(docv).")

(* [jobs = 1] (the default) is the strictly sequential pipeline; commands
   exposing --jobs pass their flag through. *)
let read_files paths =
  Obs_trace.with_span "cli.read" @@ fun () -> List.map read_file paths

(* The files as one corpus text, joined by newlines; a single file is
   its own text, not a copy of it. *)
let corpus_text paths =
  match read_files paths with [ text ] -> text | texts -> String.concat "\n" texts

(* Infer the shape of the sample files. Without --max-errors
   ([budget = None]) inference is strict and each JSON file is one
   document; with it, a single JSON file is a whitespace-separated
   document stream, so a corrupt document costs one sample, not the
   file. *)
let infer_report ?(csv_schema = "") ?(jobs = 1) ?mode ?budget format paths =
  match resolve_format format paths with
  | Error e -> Error e
  | Ok f -> (
      let texts = read_files paths in
      let source =
        match (f, texts, budget) with
        | Csv, [ one ], _ | Json, [ one ], Some _ -> Ok (Infer.String one)
        | Csv, _, _ -> Error "csv: exactly one sample file is supported"
        | _ -> Ok (Infer.Samples texts)
      in
      let budget = Option.value budget ~default:Diagnostic.Strict in
      let overridden (report : Infer.report) =
        if f <> Csv then Ok report
        else
          Result.map
            (fun shape -> { report with Infer.shape })
            (Fsdata_core.Csv_schema.override ~schema:csv_schema
               report.Infer.shape)
      in
      match
        Result.bind (Result.bind source (Infer.run ?mode ~jobs budget f))
          overridden
      with
      | Ok report -> Ok (f, report)
      | Error msg -> Error (`Msg msg))

let infer_shape ?csv_schema ?jobs format paths =
  Result.map
    (fun (f, report) -> (f, report.Infer.shape))
    (infer_report ?csv_schema ?jobs format paths)

let format_extension = function Json -> ".json" | Xml -> ".xml" | Csv -> ".csv"

(* Write the skipped documents plus report.json into [dir]. The report
   lists one entry per quarantined sample: its format, global index,
   line/column, message, the input file it came from, and the name of
   the written copy. *)
let write_quarantine ~dir ~format:f ~paths ~budget (report : Infer.report) =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let ext = format_extension f in
  let per_file = List.length paths = report.Infer.total in
  let source_of i =
    if per_file then List.nth paths i
    else match paths with [ p ] -> p | _ -> ""
  in
  let entry (q : Infer.quarantined) =
    let d = q.Infer.q_diagnostic in
    let written =
      match q.Infer.q_text with
      | None -> []
      | Some text ->
          let name = Printf.sprintf "sample-%d%s" q.Infer.q_index ext in
          let oc = open_out_bin (Filename.concat dir name) in
          output_string oc text;
          if text = "" || text.[String.length text - 1] <> '\n' then
            output_char oc '\n';
          close_out oc;
          [ ("file", Dv.String name) ]
    in
    Dv.Record
      ( Dv.json_record_name,
        [
          ("index", Dv.Int q.Infer.q_index);
          ("format", Dv.String (Diagnostic.format_name d.Diagnostic.format));
          ("line", Dv.Int d.Diagnostic.line);
          ("column", Dv.Int d.Diagnostic.column);
          ("severity", Dv.String (Diagnostic.severity_name d.Diagnostic.severity));
          ("message", Dv.String d.Diagnostic.message);
          ("source", Dv.String (source_of q.Infer.q_index));
        ]
        @ written )
  in
  let report_value =
    Dv.Record
      ( Dv.json_record_name,
        [
          ("total", Dv.Int report.Infer.total);
          ("quarantined", Dv.Int (List.length report.Infer.quarantined));
          ("budget", Dv.String (Diagnostic.budget_to_string budget));
          ("samples", Dv.List (List.map entry report.Infer.quarantined));
        ] )
  in
  let oc = open_out_bin (Filename.concat dir "report.json") in
  output_string oc (Fsdata_data.Json.to_string ~indent:2 report_value);
  output_char oc '\n';
  close_out oc

(* After a successful tolerant run: persist the quarantine if asked, then
   exit 0 on a clean corpus or with the distinct quarantine code. *)
let finish_tolerant ~quarantine ~format:f ~paths ~budget
    (report : Infer.report) =
  (match quarantine with
  | Some dir -> write_quarantine ~dir ~format:f ~paths ~budget report
  | None -> ());
  match report.Infer.quarantined with
  | [] -> `Ok ()
  | qs ->
      Printf.eprintf "fsdata: quarantined %d of %d samples%s\n"
        (List.length qs) report.Infer.total
        (match quarantine with
        | Some dir -> Printf.sprintf " (report in %s)" (Filename.concat dir "report.json")
        | None -> "");
      Stdlib.exit quarantine_exit_code

let provider_format = function Json -> `Json | Xml -> `Xml | Csv -> `Csv

(* --- infer --- *)

let infer_cmd =
  let paper_arg =
    Arg.(
      value & flag
      & info [ "paper" ]
          ~doc:
            "Use the paper's core algebra (Figure 3 verbatim): no literal
             classification, homogeneous collections. The default is the
             practical mode the library ships (Sections 6.2, 6.4).")
  in
  let run () format global paper csv_schema jobs max_errors quarantine paths =
    if quarantine <> None && max_errors = None then
      `Error (false, "--quarantine requires --max-errors")
    else if global then
      if max_errors <> None then
        `Error (false, "--max-errors does not apply to --global inference")
      else
        match List.map read_file paths |> Fsdata_core.Xml_global.of_strings with
        | Ok g ->
            Format.printf "%a@." Fsdata_core.Xml_global.pp g;
            `Ok ()
        | Error m -> `Error (false, m)
    else
      match max_errors with
      | Some budget -> (
          let mode = if paper then `Paper else `Practical in
          let paper_ok =
            if not paper then Ok ()
            else
              match resolve_format format paths with
              | Ok Json -> Ok ()
              | Ok _ -> Error "--paper applies to JSON samples"
              | Error (`Msg m) -> Error m
          in
          match paper_ok with
          | Error m -> `Error (false, m)
          | Ok () -> (
              match
                infer_report ~csv_schema ~jobs ~mode ~budget format
                  paths
              with
              | Error (`Msg m) -> `Error (false, m)
              | Ok (f, report) ->
                  print_endline (Shape.to_string report.Infer.shape);
                  finish_tolerant ~quarantine ~format:f ~paths ~budget report))
      | None -> (
          if paper then
            match resolve_format format paths with
            | Error (`Msg m) -> `Error (false, m)
            | Ok Json -> (
                match
                  Infer.run ~mode:`Paper ~jobs Diagnostic.Strict Json
                    (Samples (List.map read_file paths))
                with
                | Ok report ->
                    print_endline (Shape.to_string report.Infer.shape);
                    `Ok ()
                | Error m -> `Error (false, m))
            | Ok _ -> `Error (false, "--paper applies to JSON samples")
          else
            match infer_shape ~csv_schema ~jobs format paths with
            | Ok (_, shape) ->
                print_endline (Shape.to_string shape);
                `Ok ()
            | Error (`Msg m) -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "infer" ~doc:"Infer the shape of sample documents (Figure 3).")
    Term.(
      ret
        (const run $ obs_term $ format_arg $ global_arg $ paper_arg
       $ csv_schema_arg $ jobs_arg $ max_errors_arg $ quarantine_arg
       $ samples_arg))

(* --- provide --- *)

let provide_cmd =
  let code_arg =
    Arg.(
      value & flag
      & info [ "code" ]
          ~doc:
            "Print the full provided classes including the generated member
             bodies (the Foo-calculus code of Figure 8) instead of the
             signature summary.")
  in
  let print_provided ~code ~root_name (p : Provide.t) =
    if code then
      List.iter
        (fun c -> Format.printf "%a@.@." Fsdata_foo.Syntax.pp_class c)
        p.Provide.classes
    else print_endline (Signature.to_string ~root_name p)
  in
  let run () format global code csv_schema root_name paths =
    if global then
      match List.map read_file paths |> Provide.provide_xml_global with
      | Ok p ->
          print_provided ~code ~root_name p;
          `Ok ()
      | Error m -> `Error (false, m)
    else
      match infer_shape ~csv_schema format paths with
      | Ok (f, shape) ->
          let p = Provide.provide ~format:(provider_format f) ~root_name shape in
          if not code then Format.printf "// shape: %a@.@." Shape.pp shape;
          print_provided ~code ~root_name p;
          `Ok ()
      | Error (`Msg m) -> `Error (false, m)
  in
  Cmd.v
    (Cmd.info "provide"
       ~doc:"Show the type a provider generates for the samples (Figure 8).")
    Term.(
      ret
        (const run $ obs_term $ format_arg $ global_arg $ code_arg
       $ csv_schema_arg $ root_name_arg $ samples_arg))

(* --- sample --- *)

let sample_cmd =
  let shape_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "s"; "shape" ] ~docv:"SHAPE"
          ~doc:"Shape expression in the paper notation.")
  in
  let count_arg =
    Arg.(
      value & opt int 1
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of documents to emit.")
  in
  let run shape count =
    match Fsdata_core.Shape_parser.parse_result shape with
    | Error m -> `Error (false, m)
    | Ok s -> (
        match Fsdata_core.Shape_gen.samples ~count s with
        | docs ->
            List.iter
              (fun d ->
                print_endline (Fsdata_data.Json.to_string ~indent:2 d))
              docs;
            `Ok ()
        | exception Invalid_argument m -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "sample"
       ~doc:"Generate representative JSON documents conforming to a shape —
             the inverse of inference.")
    Term.(ret (const run $ shape_arg $ count_arg))

(* --- codegen --- *)

let codegen_cmd =
  let run () format csv_schema root_name jobs max_errors quarantine paths =
    let emit f shape =
      let p = Provide.provide ~format:(provider_format f) ~root_name shape in
      print_string
        (Codegen.generate
           ~module_comment:
             (Printf.sprintf "Generated by fsdata codegen from %s — do not edit."
                (String.concat ", " paths))
           p)
    in
    if quarantine <> None && max_errors = None then
      `Error (false, "--quarantine requires --max-errors")
    else
      match max_errors with
      | Some budget -> (
          match
            infer_report ~csv_schema ~jobs ~budget format paths
          with
          | Ok (f, report) ->
              emit f report.Infer.shape;
              finish_tolerant ~quarantine ~format:f ~paths ~budget report
          | Error (`Msg m) -> `Error (false, m))
      | None -> (
          match
            infer_shape ~csv_schema ~jobs format paths
          with
          | Ok (f, shape) ->
              emit f shape;
              `Ok ()
          | Error (`Msg m) -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Emit an OCaml module giving statically typed access to data of
             the samples' shape.")
    Term.(
      ret
        (const run $ obs_term $ format_arg $ csv_schema_arg $ root_name_arg
       $ jobs_arg $ max_errors_arg $ quarantine_arg $ samples_arg))

(* --- check --- *)

let check_cmd =
  let input_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Document to validate.")
  in
  let shape_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "shape" ] ~docv:"SHAPE"
          ~doc:
            "Check against this shape expression (paper notation, e.g.
             '[• {name: string, age: nullable float}]') instead of
             inferring it from sample files.")
  in
  let run () format shape jobs input paths =
    let sample_shape =
      match shape with
      | Some text -> (
          match Fsdata_core.Shape_parser.parse_result text with
          | Ok s -> Ok (None, s)
          | Error m -> Error (`Msg m))
      | None -> (
          match paths with
          | [] -> Error (`Msg "provide sample files or --shape")
          | _ -> (
              match infer_shape ~jobs format paths with
              | Ok (f, s) -> Ok (Some f, s)
              | Error e -> Error e))
    in
    match sample_shape with
    | Error (`Msg m) -> `Error (false, m)
    | Ok (f, sample_shape) -> (
        match infer_shape (match f with Some f -> Some f | None -> format) [ input ] with
        | Error (`Msg m) -> `Error (false, m)
        | Ok (_, input_shape) ->
            if Preference.is_preferred input_shape sample_shape then begin
              print_endline
                "OK: the input's shape is preferred over the samples' shape;";
              print_endline
                "by relative safety (Theorem 3) all provided accesses are safe.";
              `Ok ()
            end
            else begin
              print_endline "MISMATCH:";
              Format.printf "  input:   %a@." Shape.pp input_shape;
              Format.printf "  samples: %a@." Shape.pp sample_shape;
              List.iter
                (fun m -> Format.printf "  - %a@." Fsdata_core.Explain.pp_mismatch m)
                (Fsdata_core.Explain.explain input_shape sample_shape);
              print_endline "Provided accesses may throw on this input.";
              Stdlib.exit 1
            end)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check that a document conforms to the shape inferred from the
             samples (the premise of relative type safety).")
    Term.(
      ret
        (const run $ obs_term $ format_arg $ shape_arg $ jobs_arg $ input_arg
        $ Arg.(
            value & pos_all file []
            & info [] ~docv:"SAMPLE" ~doc:"Sample document(s).")))

(* --- schema --- *)

let schema_cmd =
  let run () format jobs max_errors quarantine paths =
    if quarantine <> None && max_errors = None then
      `Error (false, "--quarantine requires --max-errors")
    else
      match max_errors with
      | Some budget -> (
          match
            infer_report ~jobs ~budget format paths
          with
          | Ok (f, report) ->
              print_endline
                (Fsdata_codegen.Json_schema.to_string report.Infer.shape);
              finish_tolerant ~quarantine ~format:f ~paths ~budget report
          | Error (`Msg m) -> `Error (false, m))
      | None -> (
          match infer_shape ~jobs format paths with
          | Ok (_, shape) ->
              print_endline (Fsdata_codegen.Json_schema.to_string shape);
              `Ok ()
          | Error (`Msg m) -> `Error (false, m))
  in
  Cmd.v
    (Cmd.info "schema"
       ~doc:"Export the inferred shape of the samples as a JSON Schema
             (draft-07) document.")
    Term.(
      ret
        (const run $ obs_term $ format_arg $ jobs_arg $ max_errors_arg
       $ quarantine_arg $ samples_arg))

(* --- serve --- *)

let serve_cmd =
  let port_arg =
    Arg.(
      value & opt int 8080
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Port to listen on; $(b,0) picks an ephemeral port (printed
                on startup, and written to $(b,--port-file) when given).")
  in
  let host_arg =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains serving connections. Inference itself can
                use further domains per request via the $(b,jobs) query
                parameter.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 10_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Per-connection receive/send timeout in milliseconds; an
                idle keep-alive connection is closed after this long, and
                a half-sent request is answered $(b,408).")
  in
  let cache_arg =
    Arg.(
      value & opt int 64
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Capacity of the LRU response cache for $(b,POST /infer),
                keyed by the digest of (format, jobs, budget, body);
                $(b,0) disables caching. Hits are marked with the
                $(b,X-Fsdata-Cache) response header.")
  in
  let port_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port-file" ] ~docv:"FILE"
          ~doc:"Write the bound port number to $(docv) once listening —
                for scripts that start the server with $(b,--port 0). The
                file is removed on every exit path, crashes included.")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int 0
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Capacity of the bounded connection queue in front of the
                workers; connections beyond it are shed with $(b,503) and
                $(b,Retry-After). $(b,0) (the default) means
                $(i,workers) × 16.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 256
      & info [ "max-inflight-mb" ] ~docv:"MB"
          ~doc:"In-flight request-body budget across all workers, in
                mebibytes. A request whose declared $(b,Content-Length)
                does not fit the remaining budget is shed with $(b,503)
                and $(b,Retry-After) before its body is read, and
                $(b,/healthz) reports $(i,overloaded) once less than an
                eighth of the budget remains.")
  in
  let state_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "state-dir" ] ~docv:"DIR"
          ~doc:"Durable state directory for the live shape registry
                ($(b,/streams/*) endpoints): a checksummed write-ahead
                log plus periodic snapshots, recovered on startup.
                Without it the registry is in-memory only. See
                $(b,docs/REGISTRY.md).")
  in
  let fsync_arg =
    Arg.(
      value
      & opt (enum [ ("always", `Always); ("never", `Never) ]) `Always
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:"WAL durability: $(b,always) fsyncs before a push is
                acknowledged; $(b,never) leaves it to the OS (for
                benchmarks).")
  in
  let snapshot_every_arg =
    Arg.(
      value & opt int 512
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Compact the registry WAL into a snapshot every $(docv)
                records.")
  in
  let history_limit_arg =
    Arg.(
      value & opt int 256
      & info [ "history-limit" ] ~docv:"N"
          ~doc:"Version bumps each stream retains for
                $(b,/streams/NAME/history) and $(b,/diff) (oldest
                evicted first), bounding durable state for
                frequently-growing streams.")
  in
  let cache_ttl_arg =
    Arg.(
      value & opt int 0
      & info [ "cache-ttl-ms" ] ~docv:"MS"
          ~doc:"Time-to-live for cached responses; an expired entry is a
                miss. $(b,0) (the default) means entries never expire —
                eviction and $(b,POST /cache/invalidate) still apply.")
  in
  let max_waiters_arg =
    Arg.(
      value & opt int 64
      & info [ "max-waiters" ] ~docv:"N"
          ~doc:"Concurrent $(b,/streams/NAME/watch) long-polls admitted
                before further watchers are shed with $(b,503); each
                parked watcher occupies a worker domain.")
  in
  let hook_retry_arg =
    Arg.(
      value & opt int 50
      & info [ "hook-retry-ms" ] ~docv:"MS"
          ~doc:"First-retry backoff for webhook delivery; doubles per
                consecutive failure up to the delivery worker's ceiling.
                See $(b,docs/EVOLUTION.md).")
  in
  let run () port host workers timeout_ms cache_entries port_file queue_depth
      max_inflight_mb state_dir state_fsync snapshot_every history_limit
      cache_ttl_ms max_waiters hook_retry_ms =
    if workers < 1 then `Error (false, "--workers must be at least 1")
    else if timeout_ms < 1 then `Error (false, "--timeout-ms must be positive")
    else if queue_depth < 0 then
      `Error (false, "--queue-depth must not be negative")
    else if max_inflight_mb < 1 then
      `Error (false, "--max-inflight-mb must be at least 1")
    else if snapshot_every < 1 then
      `Error (false, "--snapshot-every must be at least 1")
    else if history_limit < 1 then
      `Error (false, "--history-limit must be at least 1")
    else if max_waiters < 1 then
      `Error (false, "--max-waiters must be at least 1")
    else if hook_retry_ms < 1 then
      `Error (false, "--hook-retry-ms must be positive")
    else begin
      match
        Fsdata_serve.Server.run
          {
            Fsdata_serve.Server.default_config with
            Fsdata_serve.Server.port;
            host;
            workers;
            timeout_ms;
            cache_entries;
            port_file;
            queue_depth;
            max_inflight_bytes = max_inflight_mb * 1024 * 1024;
            state_dir;
            state_fsync;
            snapshot_every;
            history_limit;
            cache_ttl_ms;
            max_waiters;
            hook_retry_ms;
          }
      with
      | () -> `Ok ()
      (* a locked --state-dir or corrupt registry state fails startup
         with a clean message, not a backtrace *)
      | exception Failure msg -> `Error (false, msg)
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the HTTP inference service: POST sample corpora to
             $(b,/infer) (with $(b,format), $(b,jobs) and $(b,max-errors)
             query parameters), documents to $(b,/check) and
             $(b,/explain), document batches to the live shape registry
             at $(b,/streams/NAME/push) (durable with $(b,--state-dir)),
             and scrape $(b,/metrics). Repeated corpora are answered
             from a digest-keyed LRU cache of hash-consed shapes. See
             $(b,docs/SERVING.md) and $(b,docs/REGISTRY.md).")
    Term.(
      ret
        (const run $ obs_term $ port_arg $ host_arg $ workers_arg
       $ timeout_arg $ cache_arg $ port_file_arg $ queue_depth_arg
       $ max_inflight_arg $ state_dir_arg $ fsync_arg $ snapshot_every_arg
       $ history_limit_arg $ cache_ttl_arg $ max_waiters_arg
       $ hook_retry_arg))

(* --- migrate --- *)

let migrate_cmd =
  let program_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "e"; "program" ] ~docv:"EXPR"
          ~doc:
            "User program over the old provided type, in the Foo concrete
             syntax, with the free variable $(b,y) standing for the
             provided root value (e.g. 'y.Name = y.Name').")
  in
  let old_arg =
    Arg.(
      required
      & opt (some file) None
      & info [ "old" ] ~docv:"SAMPLE" ~doc:"The original sample document.")
  in
  let new_arg =
    Arg.(
      non_empty
      & opt_all file []
      & info [ "new" ] ~docv:"SAMPLE"
          ~doc:"Additional sample(s) the provider is re-run with.")
  in
  let run format program old_path new_paths =
    match
      ( infer_shape format [ old_path ],
        infer_shape format (old_path :: new_paths) )
    with
    | Error (`Msg m), _ | _, Error (`Msg m) -> `Error (false, m)
    | Ok (f, old_shape), Ok (_, new_shape) -> (
        let old_provided = Provide.provide ~format:(provider_format f) old_shape in
        let new_provided = Provide.provide ~format:(provider_format f) new_shape in
        match Fsdata_foo.Parser.parse_expr_result program with
        | Error m -> `Error (false, m)
        | Ok e -> (
            match
              Fsdata_provider.Migrate.migrate ~old_provided ~new_provided e
            with
            | Ok e' ->
                Format.printf "%a@." Fsdata_foo.Syntax.pp_expr e';
                `Ok ()
            | Error err ->
                `Error (false, Fmt.str "%a" Fsdata_provider.Migrate.pp_error err)))
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:"Rewrite a user program for a provider re-run with additional
             samples, applying the three local transformations of
             Section 6.5 (Remark 1) automatically.")
    Term.(ret (const run $ format_arg $ program_arg $ old_arg $ new_arg))

(* --- watch --- *)

let watch_cmd =
  let stream_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"STREAM" ~doc:"Stream name to watch.")
  in
  let url_arg =
    Arg.(
      value
      & opt string "http://127.0.0.1:8080"
      & info [ "url" ] ~docv:"URL"
          ~doc:"Base URL of the $(b,fsdata serve) instance.")
  in
  let since_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "since" ] ~docv:"V"
          ~doc:"Report version bumps past $(docv); without it the watch
                starts at the stream's current version, i.e. reports the
                next bump.")
  in
  let count_arg =
    Arg.(
      value & opt int 1
      & info [ "count" ] ~docv:"N" ~doc:"Exit after $(docv) version bumps.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 30_000
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Per-poll long-poll budget; a poll that ends without a bump
                ($(b,204)) ends the watch with an error.")
  in
  let run () stream base since count timeout_ms =
    if count < 1 then `Error (false, "--count must be at least 1")
    else if timeout_ms < 1 then `Error (false, "--timeout-ms must be positive")
    else begin
      let module Client = Fsdata_evolve.Client in
      let base =
        let n = String.length base in
        if n > 0 && base.[n - 1] = '/' then String.sub base 0 (n - 1) else base
      in
      (* the socket timeout exceeds the long-poll budget: a healthy
         server always answers (bump or 204) within the budget *)
      let timeout_s = (float_of_int timeout_ms /. 1e3) +. 2. in
      let since = ref since in
      let remaining = ref count in
      let outcome = ref `Continue in
      while !remaining > 0 && !outcome = `Continue do
        let url =
          Printf.sprintf "%s/streams/%s/watch?timeout-ms=%d%s" base stream
            timeout_ms
            (match !since with
            | None -> ""
            | Some v -> Printf.sprintf "&since=%d" v)
        in
        match Client.request ~timeout_s ~meth:"GET" ~url () with
        | Error m -> outcome := `Fail m
        | Ok (204, _) ->
            outcome :=
              `Fail
                (Printf.sprintf
                   "watch timed out after %dms without a version bump"
                   timeout_ms)
        | Ok (200, body) -> (
            match Fsdata_data.Json.parse_result body with
            | Ok (Dv.Record (_, fields)) -> (
                match
                  ( List.assoc_opt "version" fields,
                    List.assoc_opt "shape" fields )
                with
                | Some (Dv.Int v), Some (Dv.String shape) ->
                    Printf.printf "%s v%d %s\n%!" stream v shape;
                    since := Some v;
                    decr remaining
                | _ -> outcome := `Fail ("malformed watch response: " ^ body))
            | Ok _ | Error _ ->
                outcome := `Fail ("malformed watch response: " ^ body))
        | Ok (status, body) ->
            outcome :=
              `Fail
                (Printf.sprintf "watch answered %d: %s" status
                   (String.trim body))
      done;
      match !outcome with `Fail m -> `Error (false, m) | `Continue -> `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:"Long-poll a served stream's $(b,/watch) endpoint and print one
             line per version bump ($(i,stream) $(b,v)$(i,N) $(i,shape))
             until $(b,--count) bumps have been seen. See
             $(b,docs/EVOLUTION.md).")
    Term.(
      ret
        (const run $ obs_term $ stream_arg $ url_arg $ since_arg $ count_arg
       $ timeout_arg))

(* --- query --- *)

let query_cmd =
  let query_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "q"; "query" ] ~docv:"QUERY"
          ~doc:
            "The query pipeline, e.g.
             'where .age >= 30 | select .name, .age | take 10'.
             See $(b,docs/QUERY.md) for the grammar and typing rules.")
  in
  let shape_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "s"; "shape" ] ~docv:"SHAPE"
          ~doc:
            "Check the query against this shape expression (paper
             notation) instead of inferring one from the corpus. With
             $(b,--shape), an ill-typed query is rejected before any
             corpus file is opened.")
  in
  let compiled_arg =
    Arg.(
      value & flag
      & info [ "compiled" ]
          ~doc:
            "Accepted and ignored. Queries always run the compiled
             engine: documents are decoded by a parser compiled from the
             pruned shape straight into the query's projected slots.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print scan statistics (documents scanned, rows, skipped,
             malformed) to standard error after the rows.")
  in
  let corpus_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"CORPUS"
          ~doc:
            "JSON corpus file(s): whitespace-separated top-level
             documents, each one row.")
  in
  let run () qtext shape (_ : bool) stats_flag paths =
    match Fsdata_query.Parser.parse_result qtext with
    | Error m -> `Error (false, m)
    | Ok query -> (
        let sigma =
          match shape with
          | Some text -> (
              match Fsdata_core.Shape_parser.parse_result text with
              | Ok s -> Ok (s, None)
              | Error m -> Error (`Msg m))
          | None -> (
              (* no --shape: infer σ from the corpus first (each file a
                 stream of whitespace-separated documents), keeping the
                 text around for the evaluation pass *)
              match
                try Ok (corpus_text paths)
                with Sys_error m -> Error (`Msg m)
              with
              | Error e -> Error e
              | Ok src -> (
                  match Fsdata_core.Infer.of_json src with
                  | Ok s -> Ok (s, Some src)
                  | Error m -> Error (`Msg m)))
        in
        match sigma with
        | Error (`Msg m) -> `Error (false, m)
        | Ok (sigma, cached_src) -> (
            match Fsdata_query.Check.check sigma query with
            | Error e ->
                (* rejected before reading any corpus byte; exit code 2
                   distinguishes ill-typed queries from CLI errors *)
                Format.eprintf "query rejected: %a@."
                  Fsdata_query.Check.pp_error e;
                Stdlib.exit 2
            | Ok checked -> (
                match
                  match cached_src with
                  | Some src -> Ok src
                  | None -> (
                      try Ok (corpus_text paths)
                      with Sys_error m -> Error m)
                with
                | Error m -> `Error (false, m)
                | Ok src ->
                    let result =
                      Fsdata_query.Eval_fast.eval
                        (Fsdata_query.Eval_fast.compile checked)
                        src
                    in
                    (* one flush for all rows, before the stats line *)
                    List.iter
                      (fun r ->
                        print_string (Fsdata_query.Value.render r);
                        print_char '\n')
                      result.Fsdata_query.Value.rows;
                    flush stdout;
                    let st = result.Fsdata_query.Value.stats in
                    if stats_flag then
                      Format.eprintf
                        "query: scanned %d, rows %d, skipped %d, malformed %d@."
                        st.Fsdata_query.Value.scanned
                        st.Fsdata_query.Value.matched
                        st.Fsdata_query.Value.skipped
                        st.Fsdata_query.Value.malformed;
                    `Ok ())))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Run a typed query over a JSON corpus: the query is shape-checked
          against the inferred (or given) shape before execution, then
          streamed over the documents — one JSON row per output line.
          Ill-typed queries are rejected with the offending path and
          expected shape (exit code 2).")
    Term.(
      ret
        (const run $ obs_term $ query_arg $ shape_arg $ compiled_arg $ stats_arg
       $ corpus_arg))

let main =
  Cmd.group
    (Cmd.info "fsdata" ~version:"1.0.0"
       ~doc:"Types from data: shape inference and type providers for JSON, \
             XML and CSV (PLDI 2016 reproduction).")
    [
      infer_cmd; provide_cmd; codegen_cmd; check_cmd; schema_cmd; sample_cmd;
      query_cmd; serve_cmd; migrate_cmd; watch_cmd;
    ]

let () = exit (Cmd.eval main)

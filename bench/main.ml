(* Benchmark harness — regenerates every experiment of the evaluation
   index in DESIGN.md (the paper has no empirical tables; its "evaluation"
   is the formal development plus the practicality claims of Sections 1,
   2 and 6, each of which maps to a group below):

   fig1   the preferred-shape relation over the Figure 1 diagram
   fig2   the csh join table (Figures 2 and 4), as executable output
   loc    Section 1's conciseness claim: hand-written vs provided access
   infer  inference scalability: S(d) and multi-sample csh folding (B2)
   parse  parser throughput for JSON / XML / CSV (B3)
   access provided-access overhead: raw match vs generated code vs the
          Foo-interpreted provider (B4)
   shape  hasShape / validation cost (B5)
   par    sequential vs parallel (domain-chunked) multi-sample inference

   Usage: main.exe [--smoke] [group ...] — no arguments runs everything.
   --smoke shrinks the corpora and iteration counts so the run fits a CI
   budget (it is wired into `dune runtest` for the par group). *)

open Bechamel
open Toolkit
module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module Csh = Fsdata_core.Csh
module P = Fsdata_core.Preference
module Provide = Fsdata_provider.Provide
module Typed = Fsdata_runtime.Typed
module Ops = Fsdata_runtime.Ops

(* ----- tiny driver around bechamel ----- *)

let run_group name tests =
  let tests = Test.make_grouped ~name ~fmt:"%s/%s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~stabilize:true ~quota:(Time.second 0.5) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let pretty ns =
    if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
    else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
    else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
    else Printf.sprintf "%8.2f ns" ns
  in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-58s %s/run\n%!" name (pretty est)
      | _ -> Printf.printf "  %-58s (no estimate)\n%!" name)
    rows

let stage = Staged.stage

(* ----- fig1: the preferred-shape relation table ----- *)

let fig1 () =
  print_endline "== fig1: the preferred shape relation (Figure 1) ==";
  print_endline
    "   rows \xe2\x8a\x91 columns; the matrix reproduces the diagram's edges\n\
    \   (plus transitive closure), bit/date from Section 6.2 included.";
  let shapes =
    [
      ("bot", Shape.Bottom);
      ("bit0", Shape.Primitive Shape.Bit0);
      ("bit", Shape.Primitive Shape.Bit);
      ("int", Shape.Primitive Shape.Int);
      ("float", Shape.Primitive Shape.Float);
      ("bool", Shape.Primitive Shape.Bool);
      ("date", Shape.Primitive Shape.Date);
      ("string", Shape.Primitive Shape.String);
      ("rec", Shape.record "p" [ ("x", Shape.Primitive Shape.Int) ]);
      ("null", Shape.Null);
      ("int?", Shape.Nullable (Shape.Primitive Shape.Int));
      ("float?", Shape.Nullable (Shape.Primitive Shape.Float));
      ("rec?", Shape.Nullable (Shape.record "p" [ ("x", Shape.Primitive Shape.Int) ]));
      ("[int]", Shape.collection (Shape.Primitive Shape.Int));
      ("any", Shape.any);
    ]
  in
  Printf.printf "  %8s" "";
  List.iter (fun (n, _) -> Printf.printf "%7s" n) shapes;
  print_newline ();
  List.iter
    (fun (rn, rs) ->
      Printf.printf "  %8s" rn;
      List.iter
        (fun (_, cs) -> Printf.printf "%7s" (if P.is_preferred rs cs then "x" else "."))
        shapes;
      print_newline ())
    shapes;
  print_newline ()

(* ----- fig2: the csh join table ----- *)

let fig2 () =
  print_endline "== fig2: common preferred shapes (Figures 2 and 4) ==";
  let s = Shape.to_string in
  let cases =
    [
      (Shape.Primitive Shape.Int, Shape.Primitive Shape.Float);
      (Shape.Primitive Shape.Bit0, Shape.Primitive Shape.Bit1);
      (Shape.Primitive Shape.Bit, Shape.Primitive Shape.Bool);
      (Shape.Primitive Shape.Date, Shape.Primitive Shape.String);
      (Shape.Null, Shape.Primitive Shape.Int);
      (Shape.Bottom, Shape.Primitive Shape.String);
      (Shape.Primitive Shape.Int, Shape.Primitive Shape.Bool);
      ( Shape.record "p" [ ("x", Shape.Primitive Shape.Int) ],
        Shape.record "p" [ ("y", Shape.Primitive Shape.Bool) ] );
      (Shape.collection (Shape.Primitive Shape.Int), Shape.collection Shape.Null);
      ( Shape.top [ Shape.Primitive Shape.Int; Shape.Primitive Shape.Bool ],
        Shape.Primitive Shape.Float );
      (Shape.top [ Shape.Primitive Shape.Int ], Shape.record "p" []);
    ]
  in
  List.iter
    (fun (a, b) ->
      Printf.printf "  csh(%s, %s) = %s\n" (s a) (s b) (s (Csh.csh a b)))
    cases;
  print_newline ()

(* ----- loc: Section 1's conciseness claim ----- *)

let weather_sample =
  {|{ "coord": {"lon": 14.42, "lat": 50.09},
     "main": { "temp": 5, "pressure": 1010, "humidity": 100 },
     "name": "Prague", "cod": 200 }|}

let hand_written_temp doc =
  (* the Section 1 triple pattern match, 9 lines of matching logic *)
  match doc with
  | Dv.Record (_, root) -> (
      match List.assoc_opt "main" root with
      | Some (Dv.Record (_, main)) -> (
          match List.assoc_opt "temp" main with
          | Some (Dv.Int n) -> float_of_int n
          | Some (Dv.Float n) -> n
          | _ -> failwith "Incorrect format")
      | _ -> failwith "Incorrect format")
  | _ -> failwith "Incorrect format"

let loc () =
  print_endline "== loc: Section 1, hand-written vs provided (B1) ==";
  print_endline
    "   code size: hand-written matcher = 9 lines of matching logic;\n\
    \   provided access = 2 lines (provider invocation + member access).\n\
    \   Run-time cost of each alternative on the same document:";
  let doc = Fsdata_data.Primitive.normalize (Fsdata_data.Json.parse weather_sample) in
  let p = Result.get_ok (Provide.provide_json ~root_name:"W" weather_sample) in
  let w = Typed.load p doc in
  let generated_temp doc =
    (* generated-code style: Ops composition, what fsdata codegen emits *)
    Ops.conv_float
      (Ops.conv_field ~record:Dv.json_record_name ~field:"temp"
         (Ops.conv_field ~record:Dv.json_record_name ~field:"main" doc))
  in
  run_group "loc"
    [
      Test.make ~name:"hand-written match" (stage (fun () -> hand_written_temp doc));
      Test.make ~name:"generated code (static Ops)"
        (stage (fun () -> generated_temp doc));
      Test.make ~name:"typed runtime (Foo interpreter)"
        (stage (fun () -> Typed.(get_float (member (member w "Main") "Temp"))));
      Test.make ~name:"provider invocation (compile-time analogue)"
        (stage (fun () -> Provide.provide_json ~root_name:"W" weather_sample));
    ];
  print_newline ()

(* ----- infer: inference scalability (B2) ----- *)

let infer () =
  print_endline "== infer: shape inference scalability (B2) ==";
  let sizes = [ 10; 100; 1000 ] in
  let tests_rows =
    List.map
      (fun n ->
        let d = Workloads.people_array n in
        Test.make ~name:(Printf.sprintf "S(people array), n=%4d" n)
          (stage (fun () -> Infer.shape_of_value ~mode:`Practical d)))
      sizes
  in
  let tests_width =
    List.map
      (fun w ->
        let d = Workloads.wide_record w in
        Test.make ~name:(Printf.sprintf "S(wide record), width=%4d" w)
          (stage (fun () -> Infer.shape_of_value ~mode:`Practical d)))
      [ 10; 100; 1000 ]
  in
  let tests_depth =
    List.map
      (fun dep ->
        let d = Workloads.deep_record dep in
        Test.make ~name:(Printf.sprintf "S(deep record), depth=%4d" dep)
          (stage (fun () -> Infer.shape_of_value ~mode:`Practical d)))
      [ 10; 100; 1000 ]
  in
  let tests_samples =
    List.map
      (fun k ->
        let samples = Workloads.sample_set k 50 in
        Test.make ~name:(Printf.sprintf "csh fold over %2d samples of 50 rows" k)
          (stage (fun () -> Infer.shape_of_samples ~mode:`Practical samples)))
      [ 2; 8; 32 ]
  in
  let hetero =
    let d = Workloads.worldbank_like 200 in
    [
      Test.make ~name:"S(worldbank-like), 200 rows, hetero"
        (stage (fun () -> Infer.shape_of_value ~mode:`Practical d));
      Test.make ~name:"S(worldbank-like), 200 rows, paper mode"
        (stage (fun () -> Infer.shape_of_value ~mode:`Paper d));
    ]
  in
  run_group "infer" (tests_rows @ tests_width @ tests_depth @ tests_samples @ hetero);
  print_newline ()

(* ----- parse: parser throughput (B3) ----- *)

let parse () =
  print_endline "== parse: parser throughput (B3) ==";
  let sizes = [ 10; 100; 1000 ] in
  let json_tests =
    List.map
      (fun n ->
        let text = Workloads.json_text (Workloads.people_array n) in
        Test.make
          ~name:
            (Printf.sprintf "JSON parse, %4d records (%6d B)" n (String.length text))
          (stage (fun () -> Fsdata_data.Json.parse text)))
      sizes
  in
  let xml_tests =
    List.map
      (fun n ->
        let text = Workloads.xml_text n in
        Test.make
          ~name:
            (Printf.sprintf "XML parse, %4d elements (%6d B)" n (String.length text))
          (stage (fun () -> Fsdata_data.Xml.parse text)))
      sizes
  in
  let csv_tests =
    List.map
      (fun n ->
        let text = Workloads.csv_text n in
        Test.make
          ~name:(Printf.sprintf "CSV parse, %4d rows (%6d B)" n (String.length text))
          (stage (fun () -> Fsdata_data.Csv.parse text)))
      sizes
  in
  let print_tests =
    let d = Workloads.people_array 100 in
    [
      Test.make ~name:"JSON print, 100 records"
        (stage (fun () -> Fsdata_data.Json.to_string d));
    ]
  in
  run_group "parse" (json_tests @ xml_tests @ csv_tests @ print_tests);
  print_newline ()

(* ----- access: provided-access overhead (B4) ----- *)

let access () =
  print_endline "== access: provided access overhead (B4) ==";
  let n = 100 in
  let data = Workloads.people_array n in
  let text = Workloads.json_text data in
  let p = Result.get_ok (Provide.provide_json text) in
  let v = Typed.load p data in
  let raw_sum doc =
    match doc with
    | Dv.List items ->
        List.fold_left
          (fun acc item ->
            match item with
            | Dv.Record (_, fields) -> (
                match List.assoc_opt "age" fields with
                | Some (Dv.Int a) -> acc +. float_of_int a
                | Some (Dv.Float a) -> acc +. a
                | _ -> acc)
            | _ -> acc)
          0. items
    | _ -> 0.
  in
  let ops_sum doc =
    List.fold_left
      (fun acc item ->
        match
          Ops.conv_null Ops.conv_float
            (Ops.conv_field ~record:Dv.json_record_name ~field:"age" item)
        with
        | Some a -> acc +. a
        | None -> acc)
      0.
      (Ops.conv_elements (fun d -> d) doc)
  in
  let typed_sum root =
    List.fold_left
      (fun acc item ->
        match Typed.get_option (Typed.member item "Age") with
        | Some a -> acc +. Typed.get_float a
        | None -> acc)
      0. (Typed.get_list root)
  in
  (* the big-step evaluator over the same provided classes *)
  let module Fast = Fsdata_foo.Eval_fast in
  let fast_root = Fast.eval p.Provide.classes [] (Provide.apply p data) in
  let fast_sum root =
    let rec go acc = function
      | Fast.VNil -> acc
      | Fast.VCons (item, rest) ->
          let acc =
            match Fast.member p.Provide.classes item "Age" with
            | Fast.VSome (Fast.VData (Dv.Float a)) -> acc +. a
            | Fast.VSome (Fast.VData (Dv.Int a)) -> acc +. float_of_int a
            | _ -> acc
          in
          go acc rest
      | _ -> acc
    in
    go 0. root
  in
  run_group "access"
    [
      Test.make ~name:(Printf.sprintf "raw pattern match, %d rows" n)
        (stage (fun () -> raw_sum data));
      Test.make ~name:(Printf.sprintf "generated code (Ops), %d rows" n)
        (stage (fun () -> ops_sum data));
      Test.make ~name:(Printf.sprintf "big-step Foo evaluator, %d rows" n)
        (stage (fun () -> fast_sum fast_root));
      Test.make ~name:(Printf.sprintf "small-step Foo interpreter, %d rows" n)
        (stage (fun () -> typed_sum v));
    ];
  print_newline ()

(* ----- shape: hasShape / validation cost (B5) ----- *)

let shape_bench () =
  print_endline "== shape: runtime shape tests (B5) ==";
  let tests =
    List.concat_map
      (fun n ->
        let d = Workloads.people_array n in
        let s = Infer.shape_of_value ~mode:`Practical d in
        [
          Test.make ~name:(Printf.sprintf "hasShape(S(d), d), %4d rows" n)
            (stage (fun () -> Fsdata_core.Shape_check.has_shape s d));
          Test.make ~name:(Printf.sprintf "is_preferred(S(d), S(d)), %4d rows" n)
            (stage (fun () -> P.is_preferred s s));
        ])
      [ 10; 100; 1000 ]
  in
  let top =
    Shape.top
      [ Shape.Primitive Shape.Int; Shape.record "p" [ ("x", Shape.Primitive Shape.Int) ] ]
  in
  let hit = Dv.Record ("p", [ ("x", Dv.Int 1) ]) in
  let miss = Dv.String "unknown" in
  let tests =
    tests
    @ [
        Test.make ~name:"labelled-top test, matching record"
          (stage (fun () -> Fsdata_core.Shape_check.has_shape top hit));
        Test.make ~name:"labelled-top test, unknown value"
          (stage (fun () -> Fsdata_core.Shape_check.has_shape top miss));
      ]
  in
  run_group "shape" tests;
  print_newline ()

(* ----- par: sequential vs parallel multi-sample inference ----- *)

let smoke = ref false

(* Wall-clock timing (best of [repeats]) rather than bechamel: a single
   10k-100k-sample inference run is far above bechamel's per-run
   granularity, and the quantity of interest is the seq/par ratio. *)
(* Shapes agree when they render the same bytes: csh keeps its left
   operand's field order, so no shape depends on how work was divided *)
let same_bytes a b = String.equal (Shape.to_string a) (Shape.to_string b)

(* minor-heap words [f ()] allocates: a count, so a gate on it cannot
   flake *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let time_best ~repeats f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

(* [f] and [g] measured interleaved, round-robin, rotating which goes
   first, each keeping its best of [repeats] and its last result: run
   one after the other, a slow phase of the shared host or heap drift
   from the first side lands on one side only (see obs_bench). *)
let time_interleaved ~repeats f g =
  let t_f = ref infinity and t_g = ref infinity in
  let r_f = ref None and r_g = ref None in
  let timed best result h =
    let t0 = Unix.gettimeofday () in
    result := Some (h ());
    best := Float.min !best (Unix.gettimeofday () -. t0)
  in
  for rep = 0 to repeats - 1 do
    for j = 0 to 1 do
      if (j + rep) mod 2 = 0 then timed t_f r_f f else timed t_g r_g g
    done
  done;
  ((Option.get !r_f, !t_f), (Option.get !r_g, !t_g))

(* Run [f] once with tracing on and print where the time went, using the
   inclusive per-name totals of {!Fsdata_obs.Trace.aggregate}. Restores
   the previous enabled states and clears the buffers afterwards, so the
   breakdown never contaminates a timed measurement. *)
let stage_breakdown label f =
  let module T = Fsdata_obs.Trace in
  let was_t = T.enabled () and was_m = Fsdata_obs.Metrics.enabled () in
  T.reset ();
  T.set_enabled true;
  let r = f () in
  T.set_enabled was_t;
  Printf.printf "  stage breakdown, %s (inclusive):\n%!" label;
  List.iter
    (fun (name, count, total_ns) ->
      Printf.printf "    %-14s %6d span%s %10.2f ms\n%!" name count
        (if count = 1 then " " else "s")
        (Int64.to_float total_ns /. 1e6))
    (T.aggregate ());
  T.reset ();
  Fsdata_obs.Metrics.set_enabled was_m;
  r

(* Strict inference of a JSON text or sample list at [jobs]. *)
let infer_json ?jobs ?chunk_size source =
  Result.map
    (fun (r : Infer.report) -> r.Infer.shape)
    (Infer.run ?jobs ?chunk_size Fsdata_data.Diagnostic.Strict Json source)

let par_bench () =
  let recommended = Domain.recommended_domain_count () in
  print_endline "== par: sequential vs parallel multi-sample inference ==";
  Printf.printf "   recommended domain count: %d%s\n%!" recommended
    (if !smoke then "  (smoke mode: reduced corpus and iterations)" else "");
  let sizes = if !smoke then [ 2_000 ] else [ 10_000; 100_000 ] in
  let repeats = if !smoke then 1 else 3 in
  let jobs_list =
    List.sort_uniq compare [ 2; 4; recommended ]
    |> List.filter (fun j -> j > 1)
  in
  List.iter
    (fun n ->
      let samples = List.map Workloads.json_text (Workloads.sample_corpus n) in
      let row label t = function
        | None -> Printf.printf "  %6d samples: %-26s %8.1f ms\n%!" n label (t *. 1e3)
        | Some (t_seq, agree) ->
            Printf.printf "  %6d samples: %-26s %8.1f ms  %5.2fx speedup, agree=%b\n%!"
              n label (t *. 1e3) (t_seq /. t) agree
      in
      (* a sample list: each domain parses and infers its share *)
      let seq_shape, t_seq =
        time_best ~repeats (fun () -> infer_json ~jobs:1 (Samples samples))
      in
      row "samples sequential" t_seq None;
      List.iter
        (fun jobs ->
          let par_shape, t_par =
            time_best ~repeats (fun () -> infer_json ~jobs (Samples samples))
          in
          row
            (Printf.sprintf "samples --jobs %d" jobs)
            t_par
            (Some
               ( t_seq,
                 match (seq_shape, par_shape) with
                 | Ok a, Ok b -> same_bytes a b
                 | _ -> false )))
        jobs_list;
      (* streaming: batched parse, batches inferred in worker domains.
         Both granularities are measured: the historical fixed
         512-document batches, and the adaptive default that targets a
         corpus-sized slice of bytes per batch (EXPERIMENTS.md B7) — the
         fix for the regime where tiny batches made --jobs > 1 slower
         than the sequential fold. *)
      let text = Workloads.corpus_text n in
      let seq_stream, t_seq_stream =
        time_best ~repeats (fun () -> Infer.of_json text)
      in
      row "parse+infer sequential" t_seq_stream None;
      let stream_row label result t =
        row label t
          (Some
             ( t_seq_stream,
               match (seq_stream, result) with
               | Ok a, Ok b -> same_bytes a b
               | _ -> false ))
      in
      List.iter
        (fun jobs ->
          let fixed, t_fixed =
            time_best ~repeats (fun () ->
                infer_json ~jobs ~chunk_size:512 (String text))
          in
          stream_row
            (Printf.sprintf "parse+infer -j %d, 512/chunk" jobs)
            fixed t_fixed;
          let adaptive, t_adaptive =
            time_best ~repeats (fun () -> infer_json ~jobs (String text))
          in
          stream_row
            (Printf.sprintf "parse+infer -j %d, adaptive" jobs)
            adaptive t_adaptive;
          if !smoke then begin
            let agree =
              match (seq_stream, fixed, adaptive) with
              | Ok a, Ok b, Ok c -> same_bytes a b && same_bytes a c
              | _ -> false
            in
            if not agree then begin
              Printf.eprintf
                "par: smoke assertion failed: fixed/adaptive chunking \
                 disagrees with the sequential fold (jobs %d)\n"
                jobs;
              exit 1
            end
          end)
        jobs_list;
      match jobs_list with
      | [] -> ()
      | jobs :: _ ->
          ignore
            (stage_breakdown
               (Printf.sprintf "parse+infer --jobs %d, %d docs, adaptive" jobs n)
               (fun () -> infer_json ~jobs (String text))))
    sizes;
  print_newline ()

(* ----- faults: diagnostics overhead and recovering ingestion ----- *)

(* Four questions, mirroring the robustness work:
   1. What does a tolerant budget cost when nothing goes wrong? (target:
      <= 3% on the clean path — a 5% budget vs the strict budget; one
      engine runs both, and only a strict run stops at its first fault)
   2. What does a corrupt document cost under a budget? (resync +
      quarantine vs the same corpus cleaned)
   3. Does the sequential fold cost less than the parse alone on a
      homogeneous corpus, as it reads absorbed documents on their
      tokens?
   4. Does a document fed in fragments cost what it costs fed whole?
   In smoke mode the run asserts the agreement facts (clean-path shape
   identity, exact quarantine counts), the fold below the parse and the
   fragmented feed below twice the whole one, and exits non-zero on
   violation, so `dune runtest` pins them. *)
let faults_bench () =
  let module Diagnostic = Fsdata_data.Diagnostic in
  print_endline "== faults: diagnostics overhead and recovering ingestion ==";
  let n = if !smoke then 2_000 else 50_000 in
  let stride = 50 in
  let repeats = if !smoke then 1 else 3 in
  let clean = Workloads.corpus_text n in
  let faulty = Workloads.faulty_corpus_text ~stride n in
  let expected_faults = (n + stride - 1) / stride in
  let fail msg =
    Printf.eprintf "faults: smoke assertion failed: %s\n" msg;
    exit 1
  in
  let budget = Diagnostic.Percent 5.0 in
  (* 1. the clean path: strict vs a tolerant budget *)
  let strict_shape, t_strict =
    time_best ~repeats (fun () -> Infer.of_json clean)
  in
  let tol_report, t_tol =
    time_best ~repeats (fun () -> Infer.run budget Json (String clean))
  in
  Printf.printf "  %6d docs: strict streaming infer        %8.1f ms\n%!" n
    (t_strict *. 1e3);
  Printf.printf "  %6d docs: tolerant, budget 5%%, clean    %8.1f ms  overhead %+5.1f%%\n%!"
    n (t_tol *. 1e3)
    ((t_tol -. t_strict) /. t_strict *. 100.);
  let clean_agree =
    match (strict_shape, tol_report) with
    | Ok s, Ok r -> same_bytes s r.Fsdata_core.Infer.shape && r.quarantined = []
    | _ -> false
  in
  Printf.printf "                clean-path agreement: %b\n%!" clean_agree;
  if !smoke && not clean_agree then
    fail "tolerant (budget 5%) disagrees with strict on a clean corpus";
  (* 2. a corrupt corpus under budget: resync + quarantine, seq and par *)
  let check label = function
    | Error e -> if !smoke then fail (label ^ ": " ^ e) else ()
    | Ok (r : Fsdata_core.Infer.report) ->
        if !smoke && List.length r.quarantined <> expected_faults then
          fail
            (Printf.sprintf "%s: quarantined %d, expected %d" label
               (List.length r.quarantined) expected_faults)
  in
  let rep_seq, t_seq =
    time_best ~repeats (fun () -> Infer.run budget Json (String faulty))
  in
  check "sequential recovering" rep_seq;
  Printf.printf
    "  %6d docs: tolerant, %d faults, seq     %8.1f ms  (%d quarantined)\n%!" n
    expected_faults (t_seq *. 1e3)
    (match rep_seq with Ok r -> List.length r.quarantined | Error _ -> -1);
  List.iter
    (fun jobs ->
      let rep_par, t_par =
        time_best ~repeats (fun () ->
            Infer.run ~jobs ~chunk_size:512 budget Json (String faulty))
      in
      check (Printf.sprintf "parallel recovering (jobs %d)" jobs) rep_par;
      let agree =
        match (rep_seq, rep_par) with
        | Ok a, Ok b ->
            same_bytes a.Fsdata_core.Infer.shape b.Fsdata_core.Infer.shape
            && List.map (fun q -> q.Fsdata_core.Infer.q_index) a.quarantined
               = List.map (fun q -> q.Fsdata_core.Infer.q_index) b.quarantined
        | _ -> false
      in
      if !smoke && not agree then
        fail (Printf.sprintf "parallel (jobs %d) disagrees with sequential" jobs);
      Printf.printf
        "  %6d docs: tolerant, %d faults, -j %-2d   %8.1f ms  %5.2fx speedup, agree=%b\n%!"
        n expected_faults jobs (t_par *. 1e3) (t_seq /. t_par) agree)
    (if !smoke then [ 2; 7 ] else [ 2; 4; Domain.recommended_domain_count () ]);
  (* 3. the sequential fold against the parse alone: once σ holds a
     corpus's variants, every document is walked against σ on its
     tokens and never parsed, its string literals classified where they
     lie and its lists an element at a time. On records of one wide
     shape inferring costs less than parsing. Event records, with a
     date on each and a tag list on a fifth, still infer at 1.1 to 1.2
     times their parse, so they are timed outside --smoke only, with
     no bound *)
  let wide = Workloads.wide_corpus_text ~width:200 (1024 * 1024) in
  List.iter
    (fun (name, text) ->
      let (_, t_parse), (report, t_fold) =
        time_interleaved ~repeats:5
          (fun () -> Fsdata_data.Json.fold_many (fun k ds -> k + List.length ds) 0 text)
          (fun () -> Infer.run (Diagnostic.Percent 1.) Json (String text))
      in
      let ratio = t_fold /. t_parse in
      Printf.printf
        "  %.1f MiB %s: parse %8.1f ms, infer (budget 1%%) %8.1f ms, \
         infer/parse %.2f\n%!"
        (float_of_int (String.length text) /. (1024. *. 1024.))
        name (t_parse *. 1e3) (t_fold *. 1e3) ratio;
      if !smoke then begin
        if Result.is_error report then fail (Printf.sprintf "the %s failed to infer" name);
        if ratio >= 1. then
          fail (Printf.sprintf "fold below parse: infer/parse %.2f, not below 1" ratio)
      end)
    (("wide records", wide)
    :: (if !smoke then [] else [ ("event records", Workloads.events_corpus_text (1024 * 1024)) ]));
  (* 4. a feed read like a text: one ~1 MiB document costs about the
     same fed in 8 KiB fragments (an HTTP socket read each) as fed in
     one, since the reader scans each fed byte once for the document's
     end and reads the document once *)
  let array =
    "[" ^ String.concat ",\n" (String.split_on_char '\n' (String.trim wide)) ^ "]"
  in
  (* [text] in [size]-byte fragments, as a [Feed] pull *)
  let fed size text =
    let i = ref 0 in
    fun () ->
      let n = min size (String.length text - !i) in
      let s = String.sub text !i n in
      i := !i + n;
      s
  in
  let infer_json source =
    Result.map
      (fun (r : Infer.report) -> (Shape.to_string r.shape, r.total))
      (Infer.run (Diagnostic.Percent 1.) Json source)
  in
  let infer_fed size = infer_json (Feed (fed size array)) in
  let (whole, t_whole), (fragmented, t_fragmented) =
    time_interleaved ~repeats:5
      (fun () -> infer_fed (String.length array))
      (fun () -> infer_fed 8192)
  in
  let feed_ratio = t_fragmented /. t_whole in
  Printf.printf
    "  %.1f MiB array: fed whole %8.1f ms, in 8 KiB fragments %8.1f ms, \
     fragmented/whole %.2f\n%!"
    (float_of_int (String.length array) /. (1024. *. 1024.))
    (t_whole *. 1e3) (t_fragmented *. 1e3) feed_ratio;
  if !smoke then begin
    if Result.is_error whole || whole <> fragmented then
      fail "the array fed in fragments infers otherwise than fed whole";
    if feed_ratio >= 2. then
      fail
        (Printf.sprintf "feed like a text: fragmented/whole %.2f, not below 2"
           feed_ratio)
  end;
  (* 5. documents with no separator between them: the boundary scan a
     document's read leaves behind is the next one's, so 1 MiB of
     top-level 0s costs about the same fed in 8 KiB fragments as read
     as a text *)
  let zeros = String.make (1024 * 1024) '0' ^ "\n" in
  let (as_text, t_text), (as_feed, t_feed) =
    time_interleaved ~repeats:5
      (fun () -> infer_json (String zeros))
      (fun () -> infer_json (Feed (fed 8192 zeros)))
  in
  let run_ratio = t_feed /. t_text in
  Printf.printf
    "  1 MiB of 0s: as a text %8.1f ms, fed in 8 KiB fragments %8.1f ms, \
     fed/text %.2f\n%!"
    (t_text *. 1e3) (t_feed *. 1e3) run_ratio;
  if !smoke then begin
    if Result.is_error as_text || as_text <> as_feed then
      fail "the 0s fed in fragments infer otherwise than as a text";
    if run_ratio >= 2. then
      fail
        (Printf.sprintf "unseparated documents: fed/text %.2f, not below 2"
           run_ratio)
  end;
  ignore
    (stage_breakdown
       (Printf.sprintf "tolerant parse+infer -j 2, %d docs, %d faults" n
          expected_faults)
       (fun () ->
         Infer.run ~jobs:2 ~chunk_size:512 budget Json (String faulty)));
  print_newline ()

(* ----- obs: observability overhead (B9) ----- *)

(* Two measurements, backing the zero-cost-when-disabled claim:
   1. micro: the per-call-site price of an instrument that is compiled
      in but switched off — one atomic load and a branch — via bechamel;
   2. macro: the same streaming parse+infer pipeline timed with
      observability disabled, with metrics on, and with trace+metrics
      on. In smoke mode the run additionally asserts that enabling
      observability does not change the inferred shape. *)
let obs_bench () =
  let module T = Fsdata_obs.Trace in
  let module M = Fsdata_obs.Metrics in
  print_endline "== obs: observability overhead (B9) ==";
  T.set_enabled false;
  M.set_enabled false;
  let n = if !smoke then 2_000 else 50_000 in
  let repeats = if !smoke then 1 else 5 in
  let text = Workloads.corpus_text n in
  (* The three configurations are measured interleaved, round-robin,
     taking the best repeat per configuration. The OCaml 5.1 major heap
     never shrinks between runs (no compaction), so measuring the
     configurations one after the other bills whichever runs later for
     heap drift that has nothing to do with instrumentation — sequential
     ordering here once reported a fictitious +140% for counters that
     cost nanoseconds. *)
  let configs =
    [|
      ("observability off", false, false);
      ("metrics on", true, false);
      ("trace + metrics on", true, true);
    |]
  in
  let k = Array.length configs in
  let best = Array.make k infinity in
  let shapes = Array.make k None in
  for rep = 0 to repeats - 1 do
    (* rotate the starting configuration per round so heap drift within
       a round doesn't always land on the same configuration *)
    for j = 0 to k - 1 do
      let i = (j + rep) mod k in
      let _, metrics_on, trace_on = configs.(i) in
      M.set_enabled metrics_on;
      T.set_enabled trace_on;
      M.reset ();
      T.reset ();
      let t0 = Unix.gettimeofday () in
      let r = Infer.of_json text in
      let dt = Unix.gettimeofday () -. t0 in
      M.set_enabled false;
      T.set_enabled false;
      M.reset ();
      T.reset ();
      shapes.(i) <- Some r;
      if dt < best.(i) then best.(i) <- dt
    done
  done;
  Array.iteri
    (fun i (label, _, _) ->
      Printf.printf "  %6d docs: parse+infer, %-22s %8.1f ms\n%!" n label
        (best.(i) *. 1e3))
    configs;
  let t_off = best.(0) and t_m = best.(1) and t_tm = best.(2) in
  Printf.printf
    "                metrics overhead %+5.1f%%, trace+metrics %+5.1f%%\n%!"
    ((t_m -. t_off) /. t_off *. 100.)
    ((t_tm -. t_off) /. t_off *. 100.);
  let agree =
    match (shapes.(0), shapes.(1), shapes.(2)) with
    | Some (Ok a), Some (Ok b), Some (Ok c) ->
        same_bytes a b && same_bytes b c
    | _ -> false
  in
  Printf.printf "                shapes unchanged by observability: %b\n%!" agree;
  if !smoke && not agree then begin
    Printf.eprintf "obs: enabling observability changed the inferred shape\n";
    exit 1
  end;
  (* The bechamel micro group runs last: its stabilization loop bloats
     the major heap, which would otherwise contaminate the macro
     numbers above. *)
  let c = M.counter "bench.obs_probe" in
  run_group "obs"
    [
      Test.make ~name:"baseline closure (no instrument)" (stage (fun () -> 42));
      Test.make ~name:"with_span, disabled"
        (stage (fun () -> T.with_span "bench.noop" (fun () -> 42)));
      Test.make ~name:"counter incr, disabled" (stage (fun () -> M.incr c));
    ];
  print_newline ()

(* ----- hetero: §6.4 heterogeneous collections ----- *)

(* How much do labelled tops with multiplicities cost, and how often
   does csh saturate primitive labels when collections genuinely mix
   tag families? Three workloads: the worldbank nested pair (§2.3), a
   six-way mixed-tag collection, and a stream of worldbank-style
   documents through the parallel driver (smoke asserts seq ≡ par on
   it). The csh.merges / csh.top_label_saturations counters are read
   around one inference of each document to report saturation rates. *)
let hetero_bench () =
  let module M = Fsdata_obs.Metrics in
  print_endline "== hetero: heterogeneous collections (Section 6.4) ==";
  let rows = if !smoke then 500 else 20_000 in
  let wb = Workloads.worldbank_like rows in
  let mixed = Workloads.mixed_tags_array rows in
  (* counter deltas around a single practical-mode inference *)
  let merges = M.counter "csh.merges" in
  let saturations = M.counter "csh.top_label_saturations" in
  let count_one label d =
    let was = M.enabled () in
    M.set_enabled true;
    let m0 = M.value merges and s0 = M.value saturations in
    let shape = Infer.shape_of_value ~mode:`Practical d in
    let dm = M.value merges - m0 and ds = M.value saturations - s0 in
    M.set_enabled was;
    Printf.printf "  %-28s %7d csh merges, %5d top-label saturations\n%!"
      label dm ds;
    (shape, ds)
  in
  let _, _ = count_one (Printf.sprintf "worldbank, %d rows" rows) wb in
  let mixed_shape, mixed_sat =
    count_one (Printf.sprintf "mixed tags, %d elements" rows) mixed
  in
  if !smoke then begin
    let printed = Shape.to_string mixed_shape in
    (* the six tag families must each land in their own entry of one
       heterogeneous collection, and joining int into the existing
       labels must have saturated at least once *)
    let is_hetero_collection =
      match mixed_shape with
      | Shape.Collection entries -> List.length entries >= 3
      | _ -> false
    in
    if not is_hetero_collection then begin
      Printf.eprintf
        "hetero: smoke assertion failed: mixed-tag collection did not \
         infer to a heterogeneous collection (got %s)\n"
        printed;
      exit 1
    end;
    if mixed_sat <= 0 then begin
      Printf.eprintf
        "hetero: smoke assertion failed: no top-label saturations on the \
         mixed-tag collection\n";
      exit 1
    end
  end;
  (* a worldbank-style document stream through the parallel driver *)
  let docs = if !smoke then 50 else 2_000 in
  let text = Workloads.hetero_corpus_text docs in
  let repeats = if !smoke then 1 else 3 in
  let seq, t_seq = time_best ~repeats (fun () -> Infer.of_json text) in
  Printf.printf "  %6d worldbank docs: parse+infer sequential %8.1f ms\n%!"
    docs (t_seq *. 1e3);
  let par, t_par =
    time_best ~repeats (fun () -> infer_json ~jobs:2 (String text))
  in
  let agree =
    match (seq, par) with Ok a, Ok b -> same_bytes a b | _ -> false
  in
  Printf.printf
    "  %6d worldbank docs: parse+infer -j 2       %8.1f ms  agree=%b\n%!"
    docs (t_par *. 1e3) agree;
  if !smoke && not agree then begin
    Printf.eprintf
      "hetero: smoke assertion failed: parallel inference disagrees with \
       sequential on the worldbank stream\n";
    exit 1
  end;
  (* timing: practical (multiplicities) vs paper mode on the same data *)
  run_group "hetero"
    [
      Test.make ~name:(Printf.sprintf "S(worldbank), %d rows, hetero" rows)
        (stage (fun () -> Infer.shape_of_value ~mode:`Practical wb));
      Test.make ~name:(Printf.sprintf "S(worldbank), %d rows, paper" rows)
        (stage (fun () -> Infer.shape_of_value ~mode:`Paper wb));
      Test.make ~name:(Printf.sprintf "S(mixed tags), %d elements" rows)
        (stage (fun () -> Infer.shape_of_value ~mode:`Practical mixed));
      Test.make ~name:"hasShape over the mixed top"
        (stage
           (let s = Infer.shape_of_value ~mode:`Practical mixed in
            fun () -> Fsdata_core.Shape_check.has_shape s mixed));
    ];
  print_newline ()

(* ----- serve: the /infer response cache ----- *)

(* The acceptance criterion for the serving subsystem: a repeated corpus
   must be answered from the digest-keyed LRU at least 10x faster than
   the initial parse+infer, with a byte-identical body. Measured at the
   handler level ({!Fsdata_serve.Server.handle} on a synthetic request),
   so the number isolates cache lookup + digest from socket noise. *)
let serve_bench () =
  let module Server = Fsdata_serve.Server in
  let module Http = Fsdata_serve.Http in
  let module M = Fsdata_obs.Metrics in
  print_endline "== serve: /infer response cache ==";
  let was = M.enabled () in
  M.set_enabled true;
  let n = if !smoke then 2_000 else 50_000 in
  let repeats = if !smoke then 3 else 5 in
  let body = Workloads.corpus_text n in
  let req =
    {
      Http.meth = "POST";
      path = "/infer";
      query = [ ("format", "json") ];
      version = `Http_1_1;
      headers = [];
      body;
    }
  in
  let cache_header resp =
    List.assoc_opt "x-fsdata-cache" resp.Http.resp_headers
  in
  (* how far [f ()] moves the document and sample counters: a count,
     so a gate on it cannot flake *)
  let moved f =
    let docs = M.counter "parse.json.documents"
    and samples = M.counter "ingest.samples_total" in
    let d0 = M.value docs and s0 = M.value samples in
    let r = f () in
    (r, (M.value docs - d0, M.value samples - s0))
  in
  (* cold: a fresh server per repeat, so every run is a miss *)
  let (miss_resp, t_miss), miss_moved =
    moved (fun () ->
        time_best ~repeats (fun () ->
            let t = Server.create Server.default_config in
            Server.handle t req))
  in
  (* warm: one server, first request populates, the rest hit *)
  let t = Server.create Server.default_config in
  let first = Server.handle t req in
  let (hit_resp, t_hit), hit_moved =
    moved (fun () -> time_best ~repeats (fun () -> Server.handle t req))
  in
  let identical = miss_resp.Http.resp_body = hit_resp.Http.resp_body in
  let speedup = t_miss /. t_hit in
  Printf.printf
    "  %6d docs (%d KiB): miss %8.1f ms   hit %8.3f ms   %6.0fx speedup\n%!"
    n
    (String.length body / 1024)
    (t_miss *. 1e3) (t_hit *. 1e3) speedup;
  Printf.printf
    "                cache headers: first=%s repeat=%s; bodies identical: %b\n%!"
    (Option.value ~default:"?" (cache_header first))
    (Option.value ~default:"?" (cache_header hit_resp))
    identical;
  Printf.printf
    "                parse.json.documents, ingest.samples_total moved by \
     %d misses: %d, %d; by %d hits: %d, %d\n%!"
    repeats (fst miss_moved) (snd miss_moved) repeats (fst hit_moved)
    (snd hit_moved);
  M.set_enabled was;
  let fail msg =
    Printf.eprintf "serve: smoke assertion failed: %s\n" msg;
    exit 1
  in
  if !smoke then begin
    if not identical then fail "hit body differs from miss body";
    if cache_header miss_resp <> Some "miss" then fail "expected a miss header";
    if cache_header hit_resp <> Some "hit" then fail "expected a hit header";
    if miss_resp.Http.status <> 200 || hit_resp.Http.status <> 200 then
      fail "expected 200s";
    (* a hit answers from the cache: it parses and infers nothing *)
    if hit_moved <> (0, 0) then
      fail
        (Printf.sprintf
           "cached hits moved parse.json.documents by %d and \
            ingest.samples_total by %d, not 0"
           (fst hit_moved) (snd hit_moved));
    (* the acceptance bar is 10x; assert half of it so CI noise on the
       shared container can't flake the build *)
    if speedup < 5. then
      fail (Printf.sprintf "cache speedup %.1fx below the 5x smoke bar" speedup)
  end;
  print_newline ()

(* ----- provider: the "compile-time" pipeline costs ----- *)

let provider_bench () =
  print_endline "== provider: provision, codegen and schema export ==";
  let shapes =
    List.map
      (fun w ->
        let d = Workloads.wide_record w in
        (w, Infer.shape_of_value ~mode:`Practical d))
      [ 10; 100; 1000 ]
  in
  let provide_tests =
    List.map
      (fun (w, s) ->
        Test.make ~name:(Printf.sprintf "provide, %4d-field record" w)
          (stage (fun () -> Provide.provide s)))
      shapes
  in
  let codegen_tests =
    List.map
      (fun (w, s) ->
        let p = Provide.provide s in
        Test.make ~name:(Printf.sprintf "codegen, %4d-field record" w)
          (stage (fun () -> Fsdata_codegen.Codegen.generate p)))
      shapes
  in
  let schema_tests =
    List.map
      (fun (w, s) ->
        Test.make ~name:(Printf.sprintf "json-schema export, %4d fields" w)
          (stage (fun () -> Fsdata_codegen.Json_schema.to_string s)))
      shapes
  in
  let parser_tests =
    let p =
      Provide.provide
        (Infer.shape_of_value ~mode:`Practical (Workloads.worldbank_like 10))
    in
    let printed =
      String.concat "\n"
        (List.map (Fmt.str "%a" Fsdata_foo.Syntax.pp_class) p.Provide.classes)
    in
    [
      Test.make ~name:"parse provided classes back (Foo parser)"
        (stage (fun () -> Fsdata_foo.Parser.parse_classes printed));
      Test.make ~name:"shape notation round-trip"
        (stage (fun () ->
             Fsdata_core.Shape_parser.parse (Shape.to_string p.Provide.shape)));
    ]
  in
  run_group "provider" (provide_tests @ codegen_tests @ schema_tests @ parser_tests);
  print_newline ()

(* ----- B12: shape-compiled parsing vs generic parse+convert ----- *)

let compile_bench () =
  let module Sc = Fsdata_core.Shape_compile in
  let module Json = Fsdata_data.Json in
  let module Prim = Fsdata_data.Primitive in
  print_endline "== compile: shape-specialized parsing (B12) ==";
  let n = if !smoke then 2_000 else 50_000 in
  let text = Workloads.corpus_text n in
  let shape =
    Shape.hcons (Infer.shape_of_samples ~mode:`Practical (Json.parse_many text))
  in
  (* the interpreted reference pipeline: parse to Data_value, normalize
     string literals, convert through the shape *)
  let generic () =
    List.map (fun d -> Sc.convert shape (Prim.normalize d)) (Json.parse_many text)
  in
  let compiled = Sc.compile shape in
  let direct () = Sc.parse_corpus compiled text in
  (* one sample runs a side [k] times, so the faster side's sample lasts
     at least 20 ms, and the best of 9 interleaved rounds is kept: a
     single few-millisecond decode, best of five, spread 1.9-3.7x across
     fresh processes on one noisy core *)
  let k =
    let _, once = time_best ~repeats:3 direct in
    max 1 (int_of_float (Float.ceil (0.020 /. once)))
  in
  let times f () =
    for _ = 2 to k do
      ignore (Sys.opaque_identity (f ()))
    done;
    f ()
  in
  let (generic_vals, t_gen), ((compiled_vals, stats), t_comp) =
    time_interleaved ~repeats:9 (times generic) (times direct)
  in
  let t_gen = t_gen /. float_of_int k and t_comp = t_comp /. float_of_int k in
  let mib = float_of_int (String.length text) /. (1024. *. 1024.) in
  let speedup = t_gen /. t_comp in
  Printf.printf
    "  %6d docs (%.1f MiB): generic %8.1f ms (%6.1f MiB/s)   compiled %8.1f \
     ms (%6.1f MiB/s)   %.1fx speedup\n\
     %!"
    n mib (t_gen *. 1e3) (mib /. t_gen) (t_comp *. 1e3) (mib /. t_comp) speedup;
  let identical =
    List.length generic_vals = List.length compiled_vals
    && List.for_all2 Sc.equal_tvalue generic_vals compiled_vals
  in
  let render vs =
    String.concat "\n" (List.map (fun v -> Json.to_string (Sc.to_data v)) vs)
  in
  let bytes_identical = render generic_vals = render compiled_vals in
  (* compiled decoding reads through Json.Reader, which counts every
     document it reads (a malformed one it skips is not read); a
     private document loop would leave the counter where it was *)
  let docs_read =
    let module M = Fsdata_obs.Metrics in
    let read = M.counter "parse.json.documents" and was = M.enabled () in
    M.set_enabled true;
    let before = M.value read in
    ignore (Sc.parse_corpus compiled text);
    M.set_enabled was;
    M.value read - before
  in
  Printf.printf
    "                direct %d, fallback %d, skipped %d, documents read %d; \
     values identical: %b; rendered bytes identical: %b\n\
     %!"
    stats.Sc.direct stats.Sc.fallback stats.Sc.skipped docs_read identical
    bytes_identical;
  (* the compiled fold builds typed values straight from the tokens; the
     generic parse builds a [Data_value] tree for the same documents *)
  let w_compiled = minor_words direct
  and w_parse = minor_words (fun () -> Json.parse_many text) in
  let per_byte w = w /. float_of_int (String.length text) in
  Printf.printf
    "                minor words: compiled %.0f (%.3f/B), Json.parse_many %.0f \
     (%.3f/B)\n\
     %!"
    w_compiled (per_byte w_compiled) w_parse (per_byte w_parse);
  let fail msg =
    Printf.eprintf "compile: smoke assertion failed: %s\n" msg;
    exit 1
  in
  if !smoke then begin
    if not identical then fail "compiled values differ from generic convert";
    if not bytes_identical then fail "rendered bodies differ";
    if stats.Sc.direct <> n || stats.Sc.fallback <> 0 then
      fail
        (Printf.sprintf "expected %d direct decodes, got %d (fallback %d)" n
           stats.Sc.direct stats.Sc.fallback);
    if w_compiled > w_parse then
      fail
        (Printf.sprintf
           "the compiled fold allocates %.0f minor words, above the generic \
            parse's %.0f"
           w_compiled w_parse);
    if stats.Sc.skipped <> 0 then fail "clean corpus reported skipped docs";
    if docs_read <> stats.Sc.direct + stats.Sc.fallback then
      fail
        (Printf.sprintf
           "parse.json.documents moved by %d, not direct + fallback = %d: \
            compiled decoding must read through Json.Reader"
           docs_read (stats.Sc.direct + stats.Sc.fallback));
    (* the acceptance bar is 5x; pin a 2x floor so CI noise on the shared
       container can't flake the build *)
    if speedup < 2. then
      fail (Printf.sprintf "compiled speedup %.1fx below the 2x smoke floor" speedup)
  end;
  (* generic parse cost against object width: one 2000-field object
     against one 200-field object. Collecting members in linear time
     makes the wider object 10-20x dearer (10x the work; the rest is the
     minor GC promoting more of a larger live object), a per-member scan
     of the members so far about 100x. Smoke asserts less than 30x. *)
  let object_text width =
    "{"
    ^ String.concat ","
        (List.init width (fun i -> Printf.sprintf {|"f%05d": %d|} i i))
    ^ "}"
  in
  (* seconds per parse over a batch of [100_000 / width] parses *)
  let per_parse text width =
    let reps = 100_000 / width in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Json.parse text)
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  (* best of five, interleaved, so a slow phase of the shared host
     rarely lands on one width only *)
  let narrow_text = object_text 200 and wide_text = object_text 2_000 in
  let narrow = ref infinity and wide = ref infinity in
  for _ = 1 to 5 do
    narrow := Float.min !narrow (per_parse narrow_text 200);
    wide := Float.min !wide (per_parse wide_text 2_000)
  done;
  let narrow = !narrow and wide = !wide in
  let ratio = wide /. narrow in
  Printf.printf
    "  generic parse, 2000-field / 200-field object: %.1fx (linear 10-20x; \
     %.1f / %.1f us)\n\
     %!"
    ratio (wide *. 1e6) (narrow *. 1e6);
  if !smoke && ratio >= 30. then
    fail
      (Printf.sprintf
         "parsing a 10x wider object costs %.1fx (bar: 30x); object members \
          are no longer collected in linear time"
         ratio);
  print_newline ()

(* ----- loadgen: keep-alive load against a live server ----- *)

(* Socket-level load generation (B11's serving-path companion): boot a
   real server on an ephemeral port, then drive it with [conns]
   concurrent keep-alive connections, each issuing [reqs] requests — a
   pinned mix of cache hits, per-connection unique corpora (forced
   inference) and health checks. Reports throughput and the status mix;
   in smoke mode additionally asserts that this light load produces not
   a single 5xx — the server must never shed or fail under load it can
   trivially absorb. *)
let loadgen_bench () =
  let module Server = Fsdata_serve.Server in
  print_endline "== loadgen: keep-alive load against a live server ==";
  let conns = if !smoke then 4 else 16 in
  let reqs = if !smoke then 25 else 400 in
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~stop
          ~on_ready:(fun p -> Atomic.set port p)
          {
            Server.default_config with
            Server.port = 0;
            Server.host = "127.0.0.1";
            Server.workers = 4;
          })
  in
  while Atomic.get port = 0 do
    Unix.sleepf 0.005
  done;
  let port = Atomic.get port in
  let hot = Workloads.corpus_text 50 in
  let post body =
    Printf.sprintf "POST /infer HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
      (String.length body) body
  in
  let healthz = "GET /healthz HTTP/1.1\r\n\r\n" in
  let send_all fd s =
    let len = String.length s in
    let pos = ref 0 in
    while !pos < len do
      match Unix.write_substring fd s !pos (len - !pos) with
      | n -> pos := !pos + n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  in
  let find_sub sub s =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  (* read one keep-alive response: headers to the blank line, then
     content-length body bytes; returns the status *)
  let recv_status fd buf bytes =
    Buffer.clear buf;
    let read_more () =
      match Unix.read fd bytes 0 (Bytes.length bytes) with
      | 0 -> failwith "loadgen: server closed a keep-alive connection"
      | n -> Buffer.add_subbytes buf bytes 0 n
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    in
    let rec header_end () =
      match find_sub "\r\n\r\n" (Buffer.contents buf) with
      | Some i -> i
      | None ->
          read_more ();
          header_end ()
    in
    let hdr_end = header_end () in
    let head = String.lowercase_ascii (String.sub (Buffer.contents buf) 0 hdr_end) in
    let status =
      match String.split_on_char ' ' head with
      | _ :: code :: _ -> int_of_string (String.trim code)
      | _ -> failwith "loadgen: malformed status line"
    in
    let clen =
      match find_sub "content-length:" head with
      | None -> 0
      | Some i ->
          let rest = String.sub head (i + 15) (String.length head - i - 15) in
          int_of_string (String.trim (List.hd (String.split_on_char '\r' rest)))
    in
    let total = hdr_end + 4 + clen in
    while Buffer.length buf < total do
      read_more ()
    done;
    status
  in
  let client id =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    let buf = Buffer.create 65536 in
    let bytes = Bytes.create 65536 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    let counts = [| 0; 0; 0 |] in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    for i = 1 to reqs do
      let raw =
        match i mod 4 with
        | 0 -> healthz
        | 1 -> post (Printf.sprintf "{\"conn\": %d, \"req\": %d}\n" id i)
        | _ -> post hot
      in
      send_all fd raw;
      let status = recv_status fd buf bytes in
      let bucket =
        if status < 300 then 0 else if status < 500 then 1 else 2
      in
      counts.(bucket) <- counts.(bucket) + 1
    done;
    counts
  in
  let t0 = Unix.gettimeofday () in
  let domains = List.init conns (fun id -> Domain.spawn (fun () -> client id)) in
  let totals = [| 0; 0; 0 |] in
  List.iter
    (fun d ->
      let c = Domain.join d in
      Array.iteri (fun i n -> totals.(i) <- totals.(i) + n) c)
    domains;
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set stop true;
  Domain.join srv;
  let total = totals.(0) + totals.(1) + totals.(2) in
  Printf.printf
    "  %2d conns x %4d reqs: %6d answered in %6.2f s (%7.0f req/s)   2xx %d   \
     4xx %d   5xx %d\n\
     %!"
    conns reqs total elapsed
    (float_of_int total /. elapsed)
    totals.(0) totals.(1) totals.(2);
  let fail msg =
    Printf.eprintf "loadgen: smoke assertion failed: %s\n" msg;
    exit 1
  in
  if !smoke then begin
    if total <> conns * reqs then
      fail
        (Printf.sprintf "expected %d responses, got %d" (conns * reqs) total);
    if totals.(2) <> 0 then
      fail (Printf.sprintf "%d 5xx responses under a light pinned load" totals.(2));
    if totals.(1) <> 0 then
      fail (Printf.sprintf "%d unexpected 4xx responses" totals.(1))
  end;
  print_newline ()

(* ----- registry: incremental inference vs re-inferring the corpus ----- *)

(* The registry's claim is O(merge) per push: folding a delta into the
   accumulated shape costs one csh, independent of how many documents
   the stream has seen. The baseline it replaces re-infers the whole
   corpus on every arrival — quadratic in stream length. Also measured:
   the WAL tax under both fsync policies, and recovery (replay) time
   against WAL length. In smoke mode the run asserts that the
   incremental fold equals re-inference of the full corpus and that a
   close/reopen recovers the stream byte-identically. *)
let registry_bench () =
  let module R = Fsdata_registry.Registry in
  let module Csh = Fsdata_core.Csh in
  print_endline "== registry: incremental shape accumulation ==";
  let n = if !smoke then 200 else 2_000 in
  let repeats = if !smoke then 1 else 3 in
  let fail msg =
    Printf.eprintf "registry: smoke assertion failed: %s\n" msg;
    exit 1
  in
  (* per-document deltas: a stable core plus a rotating field, so the
     shape grows for a while and then saturates — the live-stream
     profile the registry is built for *)
  let deltas =
    List.init n (fun i ->
        Fsdata_core.Shape_parser.parse
          (Printf.sprintf "{name: string, v: int, f%d: nullable float}"
             (i mod 17)))
  in
  let temp_dir () =
    let path = Filename.temp_file "fsdata-bench-registry" "" in
    Sys.remove path;
    path
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let push_all t = List.fold_left (fun _ d -> R.push t ~stream:"s" d) (R.push t ~stream:"s" (List.hd deltas)) (List.tl deltas) in
  (* incremental, in memory: the pure O(merge) fold *)
  let mem_state, t_mem =
    time_best ~repeats (fun () -> push_all (R.open_ ~dir:None ()))
  in
  Printf.printf "  %6d pushes: incremental, in-memory %10.1f ms  (%6.2f us/push)\n%!"
    n (t_mem *. 1e3)
    (t_mem /. float_of_int n *. 1e6);
  (* the re-infer baseline: every arrival re-folds the whole prefix *)
  let base_shape, t_base =
    time_best ~repeats (fun () ->
        let seen = ref [] in
        let last = ref Fsdata_core.Shape.Bottom in
        List.iter
          (fun d ->
            seen := d :: !seen;
            last :=
              List.fold_left Csh.csh Fsdata_core.Shape.Bottom (List.rev !seen))
          deltas;
        !last)
  in
  Printf.printf
    "  %6d pushes: re-infer corpus baseline %10.1f ms  (%6.2f us/push, %5.1fx)\n%!"
    n (t_base *. 1e3)
    (t_base /. float_of_int n *. 1e6)
    (t_base /. t_mem);
  if !smoke && not (Shape.equal mem_state.R.shape base_shape) then
    fail "incremental fold differs from re-inferring the corpus";
  (* the WAL tax, both fsync policies (fewer pushes under `Always: each
     one is a real fsync) *)
  List.iter
    (fun (label, fsync, m) ->
      let dir = temp_dir () in
      let t = R.open_ ~fsync ~snapshot_every:max_int ~dir:(Some dir) () in
      let _, dt =
        time_best ~repeats:1 (fun () ->
            List.iteri
              (fun i d -> if i < m then ignore (R.push t ~stream:"s" d))
              deltas)
      in
      R.close t;
      rm_rf dir;
      Printf.printf "  %6d pushes: durable, fsync %-6s %12.1f ms  (%6.2f us/push)\n%!"
        m label (dt *. 1e3)
        (dt /. float_of_int m *. 1e6))
    [ ("never", `Never, n); ("always", `Always, min n (if !smoke then 50 else 500)) ];
  (* recovery: replay time against WAL length, and the round-trip pin *)
  let lengths = if !smoke then [ n ] else [ 1_000; 10_000 ] in
  List.iter
    (fun len ->
      let dir = temp_dir () in
      let t = R.open_ ~fsync:`Never ~snapshot_every:max_int ~dir:(Some dir) () in
      let live = ref None in
      for i = 0 to len - 1 do
        live := Some (R.push t ~stream:"s" (List.nth deltas (i mod n)))
      done;
      R.close t;
      let t2, t_recover =
        time_best ~repeats:1 (fun () ->
            R.open_ ~fsync:`Never ~snapshot_every:max_int ~dir:(Some dir) ())
      in
      Printf.printf "  %6d-record WAL: recovery (replay) %10.1f ms\n%!" len
        (t_recover *. 1e3);
      (match (R.find t2 "s", !live) with
      | Some recovered, Some live ->
          if !smoke then begin
            if
              Shape.to_string recovered.R.shape <> Shape.to_string live.R.shape
            then fail "recovered shape not byte-identical to the live one";
            if recovered.R.version <> live.R.version then
              fail "recovered version differs from the live one"
          end
      | _ -> if !smoke then fail "stream lost across close/reopen");
      R.close t2;
      rm_rf dir)
    lengths;
  (* push cost against stream width: a push that does not grow the shape
     (every fourth field of a stream of nullable fields, so the delta
     widens with the stream) must cost O(width), not O(width x delta).
     A 10x wider stream makes a linear merge about 10x dearer and a
     quadratic one about 100x; smoke asserts the ratio stays below 30x. *)
  let name i = Printf.sprintf "f%05d" i in
  let int = Shape.Primitive Shape.Int in
  let wide_push width =
    let stream =
      Shape.record "row"
        (List.init width (fun i -> (name i, Shape.Nullable int)))
    in
    let delta =
      Shape.record "row"
        (List.filter_map
           (fun i -> if i mod 4 = 0 then Some (name i, int) else None)
           (List.init width Fun.id))
    in
    let t = R.open_ ~dir:None () in
    let version = (R.push t ~stream:"w" stream).R.version in
    let pushes = max 1 (20_000 / width) in
    let st, dt =
      time_best ~repeats:3 (fun () ->
          let st = ref (R.push t ~stream:"w" delta) in
          for _ = 2 to pushes do
            st := R.push t ~stream:"w" delta
          done;
          !st)
    in
    if !smoke && st.R.version <> version then
      fail "a push that does not grow the stream bumped its version";
    let per_push = dt /. float_of_int pushes in
    Printf.printf "  %6d-field stream: non-growing push %10.1f us\n%!" width
      (per_push *. 1e6);
    per_push
  in
  let narrow = wide_push 1_000 in
  let wide = wide_push 10_000 in
  let ratio = wide /. narrow in
  Printf.printf "  10k-field push / 1k-field push: %.1fx (linear ~10x)\n%!"
    ratio;
  if !smoke && ratio >= 30. then
    fail
      (Printf.sprintf
         "a push into a 10x wider stream costs %.1fx (bar: 30x); the csh \
          record merge is no longer linear"
         ratio);
  (* push cost against stream width for a fixed batch: the same 30
     fields (the stream's only non-nullable ones, so the batch must
     carry them all) into a 1k- and a 10k-field stream. Once the
     stream's field index exists the batch is absorbed in O(batch)
     lookups, so the two cost about the same; a merge over the stream's
     fields would cost ~10x. Smoke asserts the ratio stays below 3x. *)
  let fixed_batch width =
    let stream =
      Shape.record "row"
        (List.init width (fun i ->
             (name i, if i < 30 then int else Shape.Nullable int)))
    in
    let batch =
      Shape.record "row"
        (List.init 30 (fun i ->
             (name i, if i mod 2 = 0 then Shape.Primitive Shape.Bit0 else int)))
    in
    let t = R.open_ ~dir:None () in
    let version = (R.push t ~stream:"b" stream).R.version in
    (* the first push against a shape merges, the second builds the index *)
    ignore (R.push t ~stream:"b" batch);
    ignore (R.push t ~stream:"b" batch);
    let pushes = 20_000 in
    fun () ->
      let t0 = Unix.gettimeofday () in
      let st = ref (R.push t ~stream:"b" batch) in
      for _ = 2 to pushes do
        st := R.push t ~stream:"b" batch
      done;
      let dt = Unix.gettimeofday () -. t0 in
      if !smoke && !st.R.version <> version then
        fail "an absorbed batch bumped the stream's version";
      dt /. float_of_int pushes
  in
  (* best of five, interleaved, rotating which width goes first *)
  let runs = [| fixed_batch 1_000; fixed_batch 10_000 |] in
  let best = [| infinity; infinity |] in
  for rep = 0 to 4 do
    for j = 0 to 1 do
      let i = (j + rep) mod 2 in
      best.(i) <- Float.min best.(i) (runs.(i) ())
    done
  done;
  Printf.printf "  %6d-field stream: absorbed 30-field batch %7.2f us\n%!" 1_000
    (best.(0) *. 1e6);
  Printf.printf "  %6d-field stream: absorbed 30-field batch %7.2f us\n%!" 10_000
    (best.(1) *. 1e6);
  let ratio = best.(1) /. best.(0) in
  Printf.printf "  10k-field batch push / 1k-field batch push: %.1fx (O(batch) ~1x)\n%!"
    ratio;
  if !smoke && ratio >= 3. then
    fail
      (Printf.sprintf
         "a fixed batch into a 10x wider stream costs %.1fx (bar: 3x); \
          absorbed pushes are no longer O(batch)"
         ratio);
  (* rendering a 1000-field stream shape, as every WAL record, snapshot
     and /shape response renders one: Shape.to_string prints Format's
     bytes without the Format engine. Smoke asserts the bytes are
     Format's and that it allocates at most 1/20 of Format's minor
     words (a count, so the gate cannot flake). *)
  let kinds =
    Shape.
      [| Nullable int; Nullable (Primitive String); Primitive Float; Nullable (Primitive Date) |]
  in
  let stream =
    Shape.record "row" (List.init 1_000 (fun i -> (name i, kinds.(i mod 4))))
  in
  let direct () = Shape.to_string stream in
  let format () = Fmt.str "%a" Shape.pp stream in
  let text = direct () in
  let w_direct = minor_words direct in
  let w_format = minor_words format in
  let renders = 200 in
  let timed f () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to renders do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int renders
  in
  (* best of five, interleaved, rotating which printer goes first *)
  let runs = [| timed direct; timed format |] in
  let best = [| infinity; infinity |] in
  for rep = 0 to 4 do
    for j = 0 to 1 do
      let i = (j + rep) mod 2 in
      best.(i) <- Float.min best.(i) (runs.(i) ())
    done
  done;
  Printf.printf
    "  1000-field shape (%d bytes, %d lines): to_string %7.1f us (%.0f minor \
     words), Format %7.1f us (%.0f)\n%!"
    (String.length text)
    (List.length (String.split_on_char '\n' text))
    (best.(0) *. 1e6) w_direct (best.(1) *. 1e6) w_format;
  if !smoke && not (String.equal text (format ())) then
    fail "Shape.to_string differs from Format's rendering";
  if !smoke && w_direct *. 20. > w_format then
    fail
      (Printf.sprintf
         "Shape.to_string allocates %.0f minor words, over 1/20 of Format's %.0f"
         w_direct w_format);
  print_newline ()

(* ----- query: typed pushdown, reference vs compiled (B14) ----- *)

(* The two query engines over a corpus whose documents are mostly
   payload the query never touches: the reference engine parses every
   byte generically, the compiled engine decodes against the pruned σ
   and reads the payload on its tokens (its keys in place, its values by
   [Json.Raw.skip_value]) without building it. Smoke asserts
   byte-identical rows and stats, rejection of an ill-typed query
   before any corpus work, early stop under [take], eval_fast at least
   matching eval, and eval_fast allocating at most a quarter of the
   minor words [Json.parse_many] allocates on the same text (a count,
   so it repeats exactly).

   A second corpus holds events whose [where .kind == "kind3"] keeps
   about one row in seven. A slot that only the [select] after it reads
   is checked where it lies for every row and built for the kept ones,
   so adding a select-only date slot ([select .id, .at] against
   [select .id]) costs few minor words. Smoke asserts at most a third
   of what it cost at 84495654, when every touched slot was built for
   every document: 155 082 words on this corpus (19.45 a document),
   measured once with this group's code on that commit. *)
let parent_date_words = 155_082.

let query_bench () =
  let module Q = Fsdata_query in
  print_endline "== query: typed pushdown, eval vs eval_fast ==";
  let fail msg =
    Printf.eprintf "query: smoke assertion failed: %s\n" msg;
    exit 1
  in
  let n = if !smoke then 500 else 20_000 in
  let repeats = 3 in
  let text = Workloads.query_corpus_text n in
  let sigma =
    match Infer.of_json text with Ok s -> s | Error e -> fail e
  in
  let parse q =
    match Q.Parser.parse_result q with Ok q -> q | Error e -> fail e
  in
  let check q =
    match Q.Check.check sigma (parse q) with
    | Ok c -> c
    | Error e -> fail (Format.asprintf "%a" Q.Check.pp_error e)
  in
  let render (r : Q.Value.result) =
    String.concat "\n" (List.map Q.Value.render r.Q.Value.rows)
  in
  let checked = check "where .age >= 40 | select .name, .age" in
  let ref_r, t_ref = time_best ~repeats (fun () -> Q.Eval.eval checked text) in
  let plan = Q.Eval_fast.compile checked in
  let fast_r, t_fast =
    time_best ~repeats (fun () -> Q.Eval_fast.eval plan text)
  in
  let identical =
    render ref_r = render fast_r && ref_r.Q.Value.stats = fast_r.Q.Value.stats
  in
  let w_fast = minor_words (fun () -> Q.Eval_fast.eval plan text) in
  let w_parse = minor_words (fun () -> Fsdata_data.Json.parse_many text) in
  let alloc_ratio = w_fast /. w_parse in
  Printf.printf
    "  %6d docs (%d KiB): eval %8.1f ms   eval_fast %8.1f ms   %5.1fx  \
     rows=%d identical=%b\n\
     %!"
    n
    (String.length text / 1024)
    (t_ref *. 1e3) (t_fast *. 1e3) (t_ref /. t_fast)
    (List.length ref_r.Q.Value.rows)
    identical;
  Printf.printf
    "  minor words: eval_fast %.0f (%.3f/B)   Json.parse_many %.0f (%.3f/B)   \
     ratio %.3f\n\
     %!"
    w_fast
    (w_fast /. float_of_int (String.length text))
    w_parse
    (w_parse /. float_of_int (String.length text))
    alloc_ratio;
  (* a select-only date slot on events a [where] mostly drops: checked
     in place for every row, built for the kept ones *)
  let events = Workloads.events_corpus_text (512 * 1024) in
  let ev_sigma =
    match Infer.of_json events with Ok s -> s | Error e -> fail e
  in
  let ev_plan q =
    match Q.Check.check ev_sigma (parse q) with
    | Ok c -> (c, Q.Eval_fast.compile c)
    | Error e -> fail (Format.asprintf "%a" Q.Check.pp_error e)
  in
  let ev_words q =
    let c, plan = ev_plan q in
    let r = Q.Eval_fast.eval plan events in
    let r' = Q.Eval.eval c events in
    if render r <> render r' || r.Q.Value.stats <> r'.Q.Value.stats then
      fail ("engines disagree on events: " ^ q);
    (minor_words (fun () -> Q.Eval_fast.eval plan events), r.Q.Value.stats)
  in
  let w_id, ev_stats = ev_words {|where .kind == "kind3" | select .id|} in
  let w_id_at, _ = ev_words {|where .kind == "kind3" | select .id, .at|} in
  let date_words = w_id_at -. w_id in
  Printf.printf
    "  events: %d docs, %d kept; a select-only date slot costs %.0f minor words \
     (%.2f/doc; %.0f at 84495654)\n\
     %!"
    ev_stats.Q.Value.scanned ev_stats.Q.Value.matched date_words
    (date_words /. float_of_int ev_stats.Q.Value.scanned)
    parent_date_words;
  (* take pushdown: the scan must stop once the bound is met *)
  let ct = check "where .age >= 40 | select .name | take 5" in
  let tr = Q.Eval.eval ct text in
  let tf = Q.Eval_fast.eval (Q.Eval_fast.compile ct) text in
  Printf.printf "  take 5: scanned %d/%d docs (early stop), engines agree=%b\n%!"
    tr.Q.Value.stats.Q.Value.scanned n
    (render tr = render tf && tr.Q.Value.stats = tf.Q.Value.stats);
  if !smoke then begin
    if not identical then fail "eval and eval_fast disagree";
    (match Q.Check.check sigma (parse "where .nope == 1") with
    | Ok _ -> fail "ill-typed query was accepted"
    | Error _ -> ());
    if render tr <> render tf || tr.Q.Value.stats <> tf.Q.Value.stats then
      fail "take: engines disagree";
    if tr.Q.Value.stats.Q.Value.scanned >= n then
      fail "take did not stop the scan early";
    if t_fast > t_ref then
      fail
        (Printf.sprintf "eval_fast (%.2f ms) slower than eval (%.2f ms)"
           (t_fast *. 1e3) (t_ref *. 1e3));
    if date_words > parent_date_words /. 3. then
      fail
        (Printf.sprintf
           "a select-only date slot costs %.0f minor words, above a third of \
            the %.0f it cost before slots were deferred"
           date_words parent_date_words);
    if alloc_ratio > 0.25 then
      fail
        (Printf.sprintf
           "eval_fast allocates %.3f of Json.parse_many's minor words, above \
            the 0.25 bound: untouched members must not be built"
           alloc_ratio)
  end;
  print_newline ()

(* ----- B15: schema evolution — push->notify latency, /migrate ----- *)

(* Two costs of the evolution service: how fast a parked long-poll
   watcher learns about a version bump (Registry.push -> listener ->
   Notify wake, the same path /watch rides), and /migrate throughput as
   the submitted program grows. Smoke asserts every watcher saw exactly
   the bumped version, that rewriting under a nullable-field growth is
   the identity on the program text, and that repeated migrations are
   byte-identical (the rewriter renumbers its fresh binders). *)
let evolve_bench () =
  let module Registry = Fsdata_registry.Registry in
  let module Notify = Fsdata_evolve.Notify in
  let module Service = Fsdata_evolve.Service in
  let module Syntax = Fsdata_foo.Syntax in
  print_endline "== evolve: push->notify latency, /migrate throughput (B15) ==";
  let fail msg =
    Printf.eprintf "evolve: smoke assertion failed: %s\n" msg;
    exit 1
  in
  let sh = Fsdata_core.Shape_parser.parse in
  (* push->notify: park a waiter, bump the stream, measure the wake *)
  let rounds = if !smoke then 25 else 500 in
  let reg = Registry.open_ ~dir:None () in
  let notify = Notify.create ~capacity:4 in
  Registry.set_listener reg (fun st -> Notify.notify notify st.Registry.name);
  let field k = Printf.sprintf "f%d: int" k in
  let shape_upto k =
    sh ("{" ^ String.concat ", " (List.init (k + 1) field) ^ "}")
  in
  ignore (Registry.push reg ~stream:"s" (shape_upto 0));
  let latencies = Array.make rounds 0. in
  for i = 1 to rounds do
    let want = i + 1 in
    let waiter =
      Domain.spawn (fun () ->
          let r =
            Notify.wait notify ~key:"s" ~seconds:10. ~poll:(fun () ->
                match Registry.find reg "s" with
                | Some st when st.Registry.version >= want ->
                    Some st.Registry.version
                | _ -> None)
          in
          (r, Unix.gettimeofday ()))
    in
    let rec parked tries =
      if Notify.waiting notify = 0 && tries < 10_000 then begin
        Unix.sleepf 0.0002;
        parked (tries + 1)
      end
    in
    parked 0;
    let t0 = Unix.gettimeofday () in
    ignore (Registry.push reg ~stream:"s" (shape_upto i));
    (match Domain.join waiter with
    | `Ready v, t1 ->
        if v <> want then
          fail (Printf.sprintf "watcher saw v%d, expected v%d" v want);
        latencies.(i - 1) <- t1 -. t0
    | (`Timeout | `Capacity), _ -> fail "parked watcher was not woken")
  done;
  Array.sort compare latencies;
  let mean = Array.fold_left ( +. ) 0. latencies /. float_of_int rounds in
  let pct p = latencies.(min (rounds - 1) (rounds * p / 100)) in
  Printf.printf
    "  push->notify over %4d bumps: mean %7.1f us   p50 %7.1f us   p99 \
     %7.1f us\n\
     %!"
    rounds (mean *. 1e6)
    (pct 50 *. 1e6)
    (pct 99 *. 1e6);
  (* /migrate throughput vs program size over a two-version stream *)
  let mreg = Registry.open_ ~dir:None () in
  ignore (Registry.push mreg ~stream:"people" (sh "{name: string}"));
  ignore
    (Registry.push mreg ~stream:"people" (sh "{name: string, age: int}"));
  let program_of_depth k =
    let rec go k acc =
      if k = 0 then acc
      else go (k - 1) ("if y.Name = y.Name then y.Name else (" ^ acc ^ ")")
    in
    go k "y.Name"
  in
  let repeats = if !smoke then 1 else 3 in
  let sizes = if !smoke then [ 1; 16 ] else [ 1; 16; 128; 1024 ] in
  List.iter
    (fun depth ->
      let program = program_of_depth depth in
      let iters = if !smoke then 50 else 500 in
      let results = ref [] in
      let (), dt =
        time_best ~repeats (fun () ->
            results := [];
            for _ = 1 to iters do
              results :=
                Service.migrate mreg ~stream:"people" ~since:1 ~program
                :: !results
            done)
      in
      let out =
        match !results with
        | Ok r :: _ -> Syntax.expr_to_string r.Service.program
        | Error e :: _ ->
            fail (Format.asprintf "migrate failed: %a" Service.pp_error e)
        | [] -> fail "no migration ran"
      in
      if !smoke then begin
        let canonical =
          Syntax.expr_to_string (Fsdata_foo.Parser.parse_expr program)
        in
        if out <> canonical then
          fail "nullable-growth rewrite was not the identity";
        List.iter
          (fun r ->
            match r with
            | Ok r ->
                if Syntax.expr_to_string r.Service.program <> out then
                  fail "repeated migrations are not byte-identical"
            | Error _ -> fail "a repeat migration failed")
          !results
      end;
      Printf.printf
        "  migrate %7d-byte program: %8.1f us/req  (%7.0f req/s)\n%!"
        (String.length program)
        (dt /. float_of_int iters *. 1e6)
        (float_of_int iters /. dt))
    sizes;
  print_newline ()

let groups =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("loc", loc);
    ("infer", infer);
    ("parse", parse);
    ("access", access);
    ("shape", shape_bench);
    ("provider", provider_bench);
    ("par", par_bench);
    ("faults", faults_bench);
    ("obs", obs_bench);
    ("hetero", hetero_bench);
    ("serve", serve_bench);
    ("compile", compile_bench);
    ("loadgen", loadgen_bench);
    ("registry", registry_bench);
    ("query", query_bench);
    ("evolve", evolve_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> a = "--smoke") args in
  if flags <> [] then smoke := true;
  let requested =
    match names with [] -> List.map fst groups | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name groups with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown bench group %s (available: %s)\n" name
            (String.concat ", " (List.map fst groups));
          exit 1)
    requested

(* Parallel chunked shape inference ([Infer.run ~jobs]).

   A parallel run folds contiguous batches in worker domains and joins
   their shapes in corpus order, so it renders the bytes of the
   sequential left fold of {!Infer.shape_of_samples} only because csh
   is associative on representations: every rule keeps its left
   operand's field order. The properties here pin that down, comparing
   rendered shapes, over shapes that actually arise from data — where
   the labelled-top (Figure 4) and multiplicity (Section 6.4) extensions
   live, and where a merge-order bug would hide — and check the
   sequential ≡ parallel agreement directly for several job counts in
   all three inference modes. Commutativity holds only up to
   [Shape.equal], as swapping operands can reorder fields. Each corpus
   reaches the engine twice: as the generated values themselves, which
   keep every record name, and as their JSON texts, parsed where they
   are folded. *)

module Shape = Fsdata_core.Shape
module Csh = Fsdata_core.Csh
module Infer = Fsdata_core.Infer
module Json = Fsdata_data.Json
module Trace = Fsdata_obs.Trace
module Metrics = Fsdata_obs.Metrics
module Dv = Fsdata_data.Data_value
open Generators

let tc = Alcotest.test_case
let check = Alcotest.check

let modes : (string * Infer.mode) list =
  [ ("paper", `Paper); ("practical", `Practical); ("xml", `Xml) ]

let shape_of mode d = Infer.shape_of_value ~mode d

(* ----- csh algebra properties, over inferred shapes ----- *)

let prop_associative (name, mode) =
  let cmode = Infer.csh_mode mode in
  QCheck2.Test.make
    ~name:(Printf.sprintf "csh associative on inferred shapes (%s)" name)
    ~count:1000
    ~print:(fun (a, b, c) ->
      String.concat " | " (List.map print_data [ a; b; c ]))
    QCheck2.Gen.(triple gen_data gen_data gen_data)
    (fun (a, b, c) ->
      let sa = shape_of mode a
      and sb = shape_of mode b
      and sc = shape_of mode c in
      let csh = Csh.csh ~mode:cmode in
      String.equal
        (Shape.to_string (csh (csh sa sb) sc))
        (Shape.to_string (csh sa (csh sb sc))))

let prop_commutative (name, mode) =
  let cmode = Infer.csh_mode mode in
  QCheck2.Test.make
    ~name:(Printf.sprintf "csh commutative on inferred shapes (%s)" name)
    ~count:1000
    ~print:(fun (a, b) -> String.concat " | " (List.map print_data [ a; b ]))
    QCheck2.Gen.(pair gen_data gen_data)
    (fun (a, b) ->
      let sa = shape_of mode a and sb = shape_of mode b in
      Shape.equal (Csh.csh ~mode:cmode sa sb) (Csh.csh ~mode:cmode sb sa))

let prop_idempotent (name, mode) =
  let cmode = Infer.csh_mode mode in
  QCheck2.Test.make
    ~name:(Printf.sprintf "csh idempotent on inferred shapes (%s)" name)
    ~count:1000
    ~print:(fun (a, b) -> String.concat " | " (List.map print_data [ a; b ]))
    QCheck2.Gen.(pair gen_data gen_data)
    (fun (a, b) ->
      (* Both a bare inferred shape and a csh-composite (which is where
         labelled tops and widened multiplicities appear). *)
      let sa = shape_of mode a in
      let sab = Csh.csh ~mode:cmode sa (shape_of mode b) in
      Shape.equal (Csh.csh ~mode:cmode sa sa) sa
      && Shape.equal (Csh.csh ~mode:cmode sab sab) sab)

(* ----- sequential ≡ parallel ----- *)

(* A corpus of data values as the engine reads it: one JSON text per
   value, and the values the sequential fold sees after parsing them. *)
let texts_of ds = List.map Json.to_string ds
let parsed texts = List.map Json.parse texts

let prop_seq_eq_par (name, mode) =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "shape_of_samples ~jobs:k ≡ sequential fold (%s)" name)
    ~count:1000
    ~print:(fun ds -> String.concat " | " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 0 12) gen_data)
    (fun ds ->
      let texts = texts_of ds in
      let agrees source seq k =
        match infer_strict ~mode ~jobs:k Json source with
        | Ok s -> String.equal (Shape.to_string s) (Shape.to_string seq)
        | Error e -> QCheck2.Test.fail_reportf "jobs %d: %s" k e
      in
      List.for_all
        (fun (source, seq) -> List.for_all (agrees source seq) [ 1; 2; 7 ])
        [
          (Infer.Values ds, Infer.shape_of_samples ~mode ds);
          (Samples texts, Infer.shape_of_samples ~mode (parsed texts));
        ])

(* [text] pushed in the fragments that [cuts] (positions, taken modulo
   the text's length plus one) cut it into. *)
let feed_at text cuts =
  let cuts =
    List.sort_uniq compare (List.map (fun c -> c mod (String.length text + 1)) cuts)
  in
  let rec go from = function
    | [] -> [ String.sub text from (String.length text - from) ]
    | cut :: cuts -> String.sub text from (cut - from) :: go cut cuts
  in
  pull (go 0 cuts)

(* At one job the engine is one left fold over the documents in corpus
   order, so its output is byte-identical however the corpus arrives:
   one stream cut into batches of any size, fragments split anywhere,
   or separate samples. A strict run compares shapes over well-formed
   texts; a faulty text is run at every budget, fed in random fragments
   and byte by byte, so that cuts fall inside numbers, escapes and the
   span a fault's resynchronization skips, and compared whole: the
   report, or the error, and the [ingest.*] counters, which count what
   a strict run folded before it stopped. A feed read at jobs 2 and 7
   goes through the same reader, so it agrees with the text at one job
   too. *)
let prop_batching_invariant =
  QCheck2.Test.make ~name:"sequential output does not depend on batching"
    ~count:300
    ~print:(fun (ds, cuts, faulty) ->
      String.concat " | " (List.map print_data ds)
      ^ " / cuts " ^ String.concat "," (List.map string_of_int cuts)
      ^ " / faulty " ^ faulty)
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 12) gen_data)
        (list_size (int_range 0 8) (int_bound 10_000))
        gen_faulty_text)
    (fun (ds, cuts, faulty) ->
      let texts = texts_of ds in
      let s = String.concat "\n" texts in
      let strict =
        List.for_all
          (fun (_, mode) ->
            let render r = Result.map Shape.to_string r in
            let expect = render (Infer.of_json ~mode s) in
            List.for_all
              (fun chunk_size ->
                render (infer_strict ~mode ?chunk_size Json (String s)) = expect)
              [ Some 1; Some 2; Some 3; None ]
            && List.for_all
                 (fun jobs ->
                   render (infer_strict ~mode ~jobs Json (Feed (feed_at s cuts)))
                   = expect)
                 [ 1; 2; 7 ]
            && render (infer_strict ~mode Json (Samples texts)) = expect)
          modes
      in
      let bytes () = pull (List.init (String.length faulty) (fun i -> String.sub faulty i 1)) in
      let counter name = Metrics.value (Metrics.counter ("ingest.samples_" ^ name)) in
      let tolerant =
        List.for_all
          (fun (_, mode) ->
            List.for_all
              (fun budget ->
                let run ?jobs source =
                  Metrics.reset ();
                  Metrics.set_enabled true;
                  let r = Infer.run ~mode ?jobs budget Json source in
                  Metrics.set_enabled false;
                  let counts = List.map counter [ "total"; "clean"; "quarantined" ] in
                  Metrics.reset ();
                  (report_text r, counts)
                in
                let expect = run (String faulty) in
                List.for_all
                  (fun jobs -> run ~jobs (Feed (feed_at faulty cuts)) = expect)
                  [ 1; 2; 7 ]
                && run (Feed (bytes ())) = expect
                && run ~jobs:2 (Feed (bytes ())) = expect)
              [ Fsdata_data.Diagnostic.Strict; Count 3; Percent 100. ])
          modes
      in
      strict && tolerant)

(* Shapes must come from the inference mode that matches the merge mode
   (as Infer.csh_mode pairs them in the pipeline): e.g. `Core collapses
   collection multiplicities to [Multiple] when it merges two
   collections, so feeding it `Practical-inferred shapes (which carry
   [Single]) breaks representation-level associativity through the (eq)
   short-circuit — a mix that never occurs in the pipeline. *)
(* A balanced bracketing of the fold: adjacent shapes joined pairwise,
   left before right, until one remains *)
let csh_tree ~mode shapes =
  let rec round = function
    | a :: b :: rest -> Csh.csh ~mode a b :: round rest
    | short -> short
  in
  let rec reduce = function
    | [] -> Shape.Bottom
    | [ s ] -> s
    | ss -> reduce (round ss)
  in
  reduce shapes

let prop_csh_tree_eq_fold (name, imode, cmode) =
  QCheck2.Test.make
    ~name:(Printf.sprintf "csh_tree ≡ left csh fold (%s)" name)
    ~count:1000
    ~print:(fun ds -> String.concat " | " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 0 10) gen_data)
    (fun ds ->
      let shapes = List.map (Infer.shape_of_value ~mode:imode) ds in
      String.equal
        (Shape.to_string (csh_tree ~mode:cmode shapes))
        (Shape.to_string (Csh.csh_all ~mode:cmode shapes)))

(* ----- regressions ----- *)

let result = Alcotest.(result shape_testable string)

let test_empty () =
  List.iter
    (fun (name, mode) ->
      check shape_testable
        (name ^ ": no samples infer bottom, sequentially")
        Shape.Bottom
        (Infer.shape_of_samples ~mode []);
      check result
        (name ^ ": no samples infer bottom, in parallel")
        (Ok Shape.Bottom)
        (infer_strict ~mode ~jobs:4 Json (Samples [])))
    modes

let test_single_sample () =
  let d =
    Dv.Record
      (Dv.json_record_name, [ ("a", Dv.Int 1); ("b", Dv.List [ Dv.Null ]) ])
  in
  List.iter
    (fun (name, mode) ->
      check result
        (name ^ ": one sample, many jobs")
        (Ok (Infer.shape_of_samples ~mode [ d ]))
        (infer_strict ~mode ~jobs:4 Json (Samples (texts_of [ d ]))))
    modes

let test_more_jobs_than_samples () =
  let ds = [ Dv.Int 1; Dv.Float 2.5; Dv.Null ] in
  List.iter
    (fun (name, mode) ->
      check result
        (name ^ ": jobs exceed sample count")
        (Ok (Infer.shape_of_samples ~mode ds))
        (infer_strict ~mode ~jobs:64 Json (Samples (texts_of ds))))
    modes

(* Every chunk infers a different labelled-top arm, so joining the
   chunks adds a label at every step rather than meeting (eq). *)
let test_chunks_hit_distinct_top_arms () =
  let ds =
    [
      Dv.Int 3;
      Dv.Bool true;
      Dv.String "text";
      Dv.Record (Dv.json_record_name, [ ("a", Dv.Int 1) ]);
      Dv.List [ Dv.Int 1; Dv.Int 2 ];
    ]
  in
  List.iter
    (fun (name, mode) ->
      let seq = Infer.shape_of_samples ~mode ds in
      match infer_strict ~mode ~jobs:5 Json (Samples (texts_of ds)) with
      | Error e -> Alcotest.failf "%s: %s" name e
      | Ok par -> (
          check shape_testable (name ^ ": five one-sample chunks") seq par;
          match par with
          | Shape.Top labels ->
              Alcotest.(check int)
                (name ^ ": all five arms present")
                5 (List.length labels)
          | s ->
              Alcotest.failf "%s: expected a labelled top, got %s" name
                (Shape.to_string s)))
    modes

(* The (offset, size) of every chunk a run over [n] samples at [jobs]
   folds, read off its [infer.chunk] spans. *)
let layout jobs n =
  Trace.reset ();
  Trace.set_enabled true;
  let r = Infer.run ~jobs Fsdata_data.Diagnostic.Strict Json
      (Samples (List.init n string_of_int))
  in
  Trace.set_enabled false;
  let spans = Trace.spans () in
  Trace.reset ();
  Alcotest.(check bool) "run succeeds" true (Result.is_ok r);
  List.filter_map
    (fun (s : Trace.span) ->
      if s.Trace.name <> "infer.chunk" then None
      else
        let arg k = int_of_string (List.assoc k s.Trace.args) in
        Some (arg "offset", arg "size"))
    spans
  |> List.sort compare

let test_chunk () =
  let c = Alcotest.(check (list (pair int int))) in
  c "one job: the whole list" [ (0, 3) ] (layout 1 3);
  c "no samples: no chunks" [] (layout 4 0);
  c "remainder spreads over the first chunks" [ (0, 3); (3, 2) ] (layout 2 5);
  c "more jobs than samples: singleton chunks" [ (0, 1); (1, 1) ] (layout 5 2);
  let l = layout 7 97 in
  Alcotest.(check int) "seven contiguous chunks" 7 (List.length l);
  Alcotest.(check bool) "contiguous, covering the list" true
    (List.fold_left (fun next (o, n) -> if o = next then o + n else -1) 0 l = 97);
  let recommended = max 1 (Domain.recommended_domain_count ()) in
  c "zero jobs: the recommended count"
    (layout (min recommended 4) 4)
    (layout 0 4)

(* Parallel parsing reports the same (earliest) error as the sequential
   run, even when a later chunk also fails. *)
let test_error_semantics () =
  let texts = [ "{\"a\": 1}"; "nope"; "{\"b\": 2}"; "]" ] in
  let seq = infer_strict Json (Samples texts) in
  (match seq with
  | Error _ -> ()
  | Ok s -> Alcotest.failf "sequential run accepted bad corpus: %s"
              (Shape.to_string s));
  List.iter
    (fun jobs ->
      check result
        (Printf.sprintf "earliest parse error wins at jobs=%d" jobs)
        seq
        (infer_strict ~jobs Json (Samples texts)))
    [ 1; 2; 4; 64 ];
  (* a good corpus round-trips identically *)
  let good = [ "{\"a\": 1}"; "{\"a\": null, \"b\": [1, 2]}"; "3.5" ] in
  check result "good corpus agrees with the sequential run"
    (infer_strict Json (Samples good))
    (infer_strict ~jobs:3 Json (Samples good))

(* A JSON stream: batched parse + parallel inference agrees with the
   sample list, across chunk sizes that do and do not divide the
   document count. *)
let test_streaming_of_json () =
  let docs =
    List.init 53 (fun i ->
        match i mod 4 with
        | 0 -> Printf.sprintf "{\"id\": %d, \"v\": %d}" i i
        | 1 -> Printf.sprintf "{\"id\": %d, \"v\": %d.5}" i i
        | 2 -> Printf.sprintf "{\"id\": %d, \"note\": null}" i
        | _ -> Printf.sprintf "[%d, true]" i)
  in
  let src = String.concat "\n" docs in
  let seq = infer_strict Json (Samples docs) in
  List.iter
    (fun (jobs, chunk_size) ->
      check result
        (Printf.sprintf "of_json jobs=%d chunk_size=%d" jobs chunk_size)
        seq
        (infer_strict ~jobs ~chunk_size Json (String src)))
    [ (1, 7); (2, 10); (4, 5); (4, 100) ];
  check result "empty stream is an error"
    (Error "no JSON sample documents found")
    (infer_strict ~jobs:4 Json (String "  \n "))

let suite =
  [
    tc "no samples" `Quick test_empty;
    tc "single sample" `Quick test_single_sample;
    tc "more jobs than samples" `Quick test_more_jobs_than_samples;
    tc "distinct top arms per chunk" `Quick test_chunks_hit_distinct_top_arms;
    tc "chunking" `Quick test_chunk;
    tc "parse error semantics" `Quick test_error_semantics;
    tc "streaming of_json" `Quick test_streaming_of_json;
    QCheck_alcotest.to_alcotest prop_batching_invariant;
  ]
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_associative m)) modes
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_commutative m)) modes
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_idempotent m)) modes
  @ List.map (fun m -> QCheck_alcotest.to_alcotest (prop_seq_eq_par m)) modes
  @ List.map
      (fun m -> QCheck_alcotest.to_alcotest (prop_csh_tree_eq_fold m))
      [ ("core", `Paper, `Core); ("hetero", `Practical, `Hetero); ("xml", `Xml, `Xml) ]

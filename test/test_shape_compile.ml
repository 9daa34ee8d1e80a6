(* Differential harness for shape-specialized parser compilation.

   The interpreted pipeline — [Json.parse] → [Primitive.normalize] →
   [Shape_compile.convert] guarded by [Shape_check.has_shape] — is the
   executable specification; the compiled decoders of
   {!Fsdata_core.Shape_compile} must be observationally identical to it:

   - a document decodes directly iff it (normalized) has the shape, and
     the direct result equals [convert] byte-for-byte once rendered;
   - a parseable non-conforming document falls back to the normalized
     generic value with exactly the [diagnose] diagnostic;
   - a malformed document raises / is quarantined with exactly the
     interpreted parser's diagnostic, and stream decoding resynchronizes
     at the same top-level boundaries as [Json.fold_many], so a
     mid-document mismatch never desynchronizes its successors.

   Corpora come from two directions: [Shape_gen] samples *of* the
   compiled shape (mostly-conforming, exercising the direct path) and
   independent (shape, document) pairs (mostly non-conforming,
   exercising fallback). Quarantine parity over fault-injected streams
   runs at jobs 1 and 7. *)

module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
module Prim = Fsdata_data.Primitive
module Diagnostic = Fsdata_data.Diagnostic
module Shape = Fsdata_core.Shape
module Shape_check = Fsdata_core.Shape_check
module Shape_gen = Fsdata_core.Shape_gen
module Infer = Fsdata_core.Infer
module Sc = Fsdata_core.Shape_compile
open Generators
open Fault_inject

let render tv = Json.to_string (Sc.to_data tv)
let tvalue = Alcotest.testable (fun ppf tv -> Json.pp ppf (Sc.to_data tv)) Sc.equal_tvalue

(* [Sc.parse] on a malformed document must raise the interpreted
   parser's legacy exception with identical position and message. *)
let legacy_parity compiled t =
  match Sc.parse compiled t with
  | exception Json.Parse_error { line; column; message } -> (
      match Json.parse t with
      | exception Json.Parse_error { line = l'; column = c'; message = m' } ->
          line = l' && column = c' && String.equal message m'
      | _ -> false)
  | _ -> false

(* The specification of [Sc.parse] on a parseable document: direct iff
   the normalized value has the shape, fallback with the [diagnose]
   diagnostic otherwise. Returns [true] when the compiled outcome agrees
   field-by-field and byte-for-byte. *)
let outcome_agrees sigma compiled text =
  let n = Prim.normalize (Json.parse text) in
  match (Sc.parse compiled text, Sc.diagnose sigma n) with
  | Sc.Direct v, None ->
      let r = Sc.convert sigma n in
      Sc.equal_tvalue v r && String.equal (render v) (render r)
  | Sc.Fallback (v, d), Some d' ->
      Sc.equal_tvalue v (Sc.Vany n) && diag_equal d d'
  | Sc.Direct _, Some _ ->
      QCheck2.Test.fail_reportf "direct decode of a non-conforming document:\n%s"
        text
  | Sc.Fallback (_, d), None ->
      QCheck2.Test.fail_reportf "fallback on a conforming document (%s):\n%s"
        d.Diagnostic.message text

(* ----- Conforming corpora: shapes drive their own witnesses ----- *)

(* [Shape_gen] samples conform to the shape they were generated from, so
   after a JSON round-trip most documents take the direct path (record
   names and normalization corner cases send a few through fallback —
   which the differential check covers just as well). The corpus-level
   decode must agree with the per-document one, and the stats must
   account for every document. *)
let prop_corpus_differential =
  QCheck2.Test.make ~count:1000
    ~name:"compiled corpus ≡ generic parse+convert (byte-for-byte)"
    ~print:print_shape gen_core_shape
    (fun s ->
      let sigma = Shape.hcons s in
      match Shape_gen.samples ~count:3 sigma with
      | exception Invalid_argument _ -> true (* ⊥-shaped: no witness *)
      | docs ->
          let texts = List.map Json.to_string docs in
          let compiled = Sc.compile sigma in
          List.for_all (outcome_agrees sigma compiled) texts
          &&
          let fallbacks = ref [] in
          let vs, st =
            Sc.parse_corpus
              ~on_fallback:(fun d -> fallbacks := d :: !fallbacks)
              compiled
              (String.concat "\n" texts)
          in
          let per_doc = List.map (Sc.parse compiled) texts in
          let expected_fb =
            List.mapi
              (fun i o ->
                match o with
                | Sc.Direct _ -> None
                | Sc.Fallback (_, d) -> Some (Diagnostic.with_index i d))
              per_doc
            |> List.filter_map Fun.id
          in
          List.length vs = List.length texts
          && st.Sc.direct + st.Sc.fallback = List.length texts
          && st.Sc.skipped = 0
          && List.for_all2
               (fun v o ->
                 match o with
                 | Sc.Direct r | Sc.Fallback (r, _) -> Sc.equal_tvalue v r)
               vs per_doc
          && st.Sc.fallback = List.length expected_fb
          && List.for_all2 diag_equal (List.rev !fallbacks) expected_fb)

(* ----- Arbitrary (shape, document) pairs: the fallback path ----- *)

let prop_arbitrary_differential =
  QCheck2.Test.make ~count:1000
    ~name:"compiled ≡ generic on arbitrary (shape, document) pairs"
    ~print:(fun (s, d) -> print_shape s ^ "  ⊢?  " ^ print_data d)
    QCheck2.Gen.(pair gen_core_shape gen_data)
    (fun (s, d) ->
      let sigma = Shape.hcons s in
      outcome_agrees sigma (Sc.compile sigma) (Json.to_string d))

(* ----- The interpreted reference is internally coherent ----- *)

let prop_convert_iff_has_shape =
  QCheck2.Test.make ~count:1000
    ~name:"convert succeeds ⟺ hasShape ⟺ diagnose = None"
    ~print:(fun (s, d) -> print_shape s ^ "  ⊢?  " ^ print_data d)
    QCheck2.Gen.(pair gen_core_shape gen_data)
    (fun (s, d) ->
      let n = Prim.normalize d in
      let ok = Shape_check.has_shape s n in
      (match Sc.convert s n with
      | (_ : Sc.tvalue) -> ok
      | exception Sc.Mismatch -> not ok)
      && Option.is_none (Sc.diagnose s n) = ok)

(* ----- Quarantine parity on fault-injected streams (jobs 1 and 7) ----- *)

let prop_quarantine_parity =
  QCheck2.Test.make ~count:100
    ~name:"malformed docs quarantine ≡ fold_many / tolerant (jobs 1/7)"
    ~print:print_corpus
    (gen_corpus ~faults:stream_safe_faults ())
    (fun c ->
      let src = String.concat "\n" c.texts in
      let sigma =
        Shape.hcons (Infer.shape_of_samples (List.map Json.parse c.clean))
      in
      let compiled = Sc.compile sigma in
      (* interpreted reference: recovering fold_many *)
      let gen_errs = ref [] in
      let docs =
        Json.fold_many
          ~on_error:(fun d ~skipped -> gen_errs := (d, skipped) :: !gen_errs)
          (fun acc ds -> acc @ ds)
          [] src
      in
      let comp_errs = ref [] in
      let vs, st =
        Sc.parse_corpus
          ~on_error:(fun d ~skipped -> comp_errs := (d, skipped) :: !comp_errs)
          compiled src
      in
      let comp_errs = List.rev !comp_errs and gen_errs = List.rev !gen_errs in
      (* same skipped documents, same diagnostics, same raw text *)
      List.length comp_errs = List.length gen_errs
      && List.for_all2
           (fun (d1, s1) (d2, s2) -> diag_equal d1 d2 && String.equal s1 s2)
           comp_errs gen_errs
      && List.map (fun (d, _) -> d.Diagnostic.index) comp_errs
         = List.map Option.some c.faulty
      && st.Sc.skipped = List.length c.faulty
      (* survivors decode to the interpreted survivors' values, in order *)
      && List.length vs = List.length docs
      && List.for_all2
           (fun v d ->
             let n = Prim.normalize d in
             let r =
               match Sc.convert sigma n with
               | v -> v
               | exception Sc.Mismatch -> Sc.Vany n
             in
             Sc.equal_tvalue v r)
           vs docs
      (* a faulty sample raises exactly the interpreted parser's legacy
         exception when decoded standalone *)
      && List.for_all (fun i -> legacy_parity compiled (List.nth c.texts i)) c.faulty
      (* the budgeted tolerant drivers quarantine the same documents *)
      && (let budget =
            match c.faulty with
            | [] -> Diagnostic.Strict
            | l -> Diagnostic.Count (List.length l)
          in
          List.for_all
            (fun jobs ->
              match Infer.run ~jobs ~chunk_size:3 budget Json (String src) with
              | Error e -> QCheck2.Test.fail_reportf "tolerant failed: %s" e
              | Ok r ->
                  List.map (fun q -> q.Infer.q_index) r.Infer.quarantined
                  = c.faulty
                  && r.Infer.total = List.length c.texts)
            [ 1; 7 ]))

(* ----- Reader parity on any faulty text ----- *)

(* The compiled fold reads a text as [Json.fold_many] does, whatever its
   faults: openings and strings that never close, pretty-printed
   documents, faults of every kind. It skips the same documents with the
   same diagnostics and texts, keeps the same survivors, and decodes each
   to its conversion, or falls back to the normalized value with the
   [diagnose] diagnostic at the survivor's index. The shape is the
   survivors' own (most decode directly) or an arbitrary one (most fall
   back). *)
let prop_reader_parity =
  QCheck2.Test.make ~count:300
    ~name:"compiled fold ≡ fold_many on faulty texts"
    ~print:(fun (text, s) ->
      Printf.sprintf "%S against %s" text
        (Option.fold ~none:"the survivors' shape" ~some:print_shape s))
    QCheck2.Gen.(pair gen_faulty_text (opt gen_core_shape))
    (fun (text, s) ->
      let collect () =
        let l = ref [] in
        (l, fun d ~skipped -> l := (d, skipped) :: !l)
      in
      let gen_errs, on_gen = collect () and comp_errs, on_comp = collect () in
      let docs = Json.fold_many ~on_error:on_gen (fun acc ds -> acc @ ds) [] text in
      let sigma =
        Shape.hcons (match s with Some s -> s | None -> Infer.shape_of_samples docs)
      in
      let outcomes, st =
        Sc.fold_corpus ~on_error:on_comp (Sc.compile sigma)
          (fun acc o -> `Continue (o :: acc))
          [] text
      in
      let gen_errs = List.rev !gen_errs and comp_errs = List.rev !comp_errs in
      let skipped_at = List.map (fun (d, _) -> d.Diagnostic.index) gen_errs in
      let survivors_at =
        List.init (List.length docs + List.length gen_errs) Option.some
        |> List.filter (fun i -> not (List.mem i skipped_at))
      in
      List.length comp_errs = List.length gen_errs
      && List.for_all2
           (fun (d1, s1) (d2, s2) -> diag_equal d1 d2 && String.equal s1 s2)
           comp_errs gen_errs
      && st.Sc.skipped = List.length gen_errs
      && List.length outcomes = List.length docs
      && st.Sc.direct + st.Sc.fallback = List.length docs
      && List.for_all2
           (fun (o, d) at ->
             let n = Prim.normalize d in
             let r = try Some (Sc.convert sigma n) with Sc.Mismatch -> None in
             match (o, r, Sc.diagnose sigma n) with
             | Sc.Direct v, Some r, None -> Sc.equal_tvalue v r
             | Sc.Fallback (v, d), None, Some d' ->
                 Sc.equal_tvalue v (Sc.Vany n)
                 && diag_equal d { d' with Diagnostic.index = at }
             | _ -> false)
           (List.combine (List.rev outcomes) docs)
           survivors_at)

(* ----- Pinned corner cases ----- *)

let int_record = Shape.record Dv.json_record_name [ ("a", Shape.Primitive Shape.Int) ]

(* A mid-document *shape* mismatch aborts the compiled descent partway
   into the document; the driver must rewind, fall back, and leave the
   cursor at the document's end so the successors still decode directly
   — the same resynchronization discipline as [Json.Reader]'s
   recovering mode. *)
let test_mid_document_mismatch_resyncs () =
  let compiled = Sc.compile (Shape.hcons int_record) in
  let fallbacks = ref [] in
  let vs, st =
    Sc.parse_corpus
      ~on_fallback:(fun d -> fallbacks := d :: !fallbacks)
      compiled
      "{\"a\": 1}\n{\"a\": [true, {\"deep\": 0}]}\n{\"a\": 3}"
  in
  Alcotest.(check int) "two direct" 2 st.Sc.direct;
  Alcotest.(check int) "one fallback" 1 st.Sc.fallback;
  Alcotest.(check int) "nothing skipped" 0 st.Sc.skipped;
  Alcotest.(check (list tvalue))
    "successor documents decode directly after the aborted descent"
    [
      Sc.Vrecord (Dv.json_record_name, [| ("a", Sc.Vint 1) |]);
      Sc.Vany (Json.parse "{\"a\": [true, {\"deep\": 0}]}");
      Sc.Vrecord (Dv.json_record_name, [| ("a", Sc.Vint 3) |]);
    ]
    vs;
  match !fallbacks with
  | [ d ] ->
      Alcotest.(check (option int)) "stream index" (Some 1) d.Diagnostic.index
  | fbs -> Alcotest.failf "expected one fallback, got %d" (List.length fbs)

(* A mid-document *parse* fault resynchronizes at the re-balancing
   brace, exactly like [Json.fold_many] — same skipped text, same
   diagnostic, and the following document survives. *)
let test_mid_document_fault_resyncs () =
  let src = "{\"a\": 1}\n{\"a\" 2}\n{\"a\": 3}" in
  let gen_errs = ref [] in
  let _ =
    Json.fold_many
      ~on_error:(fun d ~skipped -> gen_errs := (d, skipped) :: !gen_errs)
      (fun acc ds -> acc @ ds)
      [] src
  in
  let comp_errs = ref [] in
  let compiled = Sc.compile (Shape.hcons int_record) in
  let vs, st =
    Sc.parse_corpus
      ~on_error:(fun d ~skipped -> comp_errs := (d, skipped) :: !comp_errs)
      compiled src
  in
  Alcotest.(check (list tvalue))
    "clean documents survive"
    [
      Sc.Vrecord (Dv.json_record_name, [| ("a", Sc.Vint 1) |]);
      Sc.Vrecord (Dv.json_record_name, [| ("a", Sc.Vint 3) |]);
    ]
    vs;
  Alcotest.(check int) "one skipped" 1 st.Sc.skipped;
  match (!comp_errs, !gen_errs) with
  | [ (d, skipped) ], [ (d', skipped') ] ->
      Alcotest.(check string) "skipped text" "{\"a\" 2}" skipped;
      Alcotest.(check string) "same skipped text as fold_many" skipped' skipped;
      Alcotest.(check bool) "same diagnostic as fold_many" true
        (diag_equal d d')
  | _ -> Alcotest.fail "expected exactly one skip on each path"

let test_legacy_exception_parity () =
  let compiled = Sc.compile (Shape.hcons int_record) in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Printf.sprintf "same legacy exception on %s" t)
        true
        (legacy_parity compiled t))
    [
      "{\"a\" 2}" (* missing separator *);
      "{\"a\": 1" (* truncated *);
      "{\"a\": 1} {\"a\": 2}" (* trailing content *);
      "{\"a\": 01}" (* leading zero *);
      "\xff\xfe{\"a\": 1}" (* garbage prefix *);
    ]

let test_duplicate_keys_last_wins () =
  let compiled = Sc.compile (Shape.hcons int_record) in
  let t = "{\"a\": 1, \"a\": 2}" in
  match Sc.parse compiled t with
  | Sc.Direct v ->
      Alcotest.check tvalue "last binding wins, as in Json.parse"
        (Sc.convert int_record (Prim.normalize (Json.parse t)))
        v
  | Sc.Fallback _ -> Alcotest.fail "conforming document fell back"

(* A repeated key: the survivor is the last binding, at the position of
   its last occurrence, on the interpreted and the compiled path alike,
   whether the shape lists the fields in that order or the other. *)
let test_duplicate_key_position () =
  let t = {|{"a":1,"b":2,"a":3}|} in
  let generic = Prim.normalize (Json.parse t) in
  List.iter
    (fun sigma ->
      match Sc.parse (Sc.compile (Shape.hcons sigma)) t with
      | Sc.Direct v ->
          Alcotest.check tvalue "compiled = convert of Json.parse"
            (Sc.convert sigma generic) v;
          Alcotest.(check string) "rendered" (render (Sc.convert sigma generic))
            (render v)
      | Sc.Fallback _ -> Alcotest.fail "conforming document fell back")
    [
      Infer.shape_of_value generic;
      Shape.record Dv.json_record_name
        [ ("a", Shape.Primitive Shape.Int); ("b", Shape.Primitive Shape.Int) ];
    ];
  Alcotest.(check string) "inferred field order"
    (Dv.json_record_name ^ " {b: int, a: int}")
    (Shape.to_string (Infer.shape_of_value generic))

let test_missing_optional_field_defaults () =
  let sigma =
    Shape.record Dv.json_record_name
      [
        ("a", Shape.Primitive Shape.Int);
        ("b", Shape.nullable (Shape.Primitive Shape.String));
        ("c", Shape.collection (Shape.Primitive Shape.Int));
      ]
  in
  match Sc.parse (Sc.compile (Shape.hcons sigma)) "{\"a\": 7, \"z\": [0]}" with
  | Sc.Direct v ->
      Alcotest.check tvalue "absent nullable/collection fields get defaults"
        (Sc.Vrecord
           ( Dv.json_record_name,
             [| ("a", Sc.Vint 7); ("b", Sc.Vnull); ("c", Sc.Vlist [||]) |] ))
        v
  | Sc.Fallback _ -> Alcotest.fail "conforming document fell back"

(* The exact text [diagnose] gives for one violation of each kind: the
   path from the root, what was expected there and what was found. *)
let test_pinned_diagnostics () =
  let int = Shape.Primitive Shape.Int and str = Shape.Primitive Shape.String in
  let json = Dv.json_record_name in
  let once = Shape.hetero [ (int, Multiplicity.Single); (str, Multiplicity.Single) ] in
  List.iter
    (fun (what, sigma, text, expected) ->
      let message =
        Option.map
          (fun (d : Diagnostic.t) -> d.message)
          (Sc.diagnose sigma (Prim.normalize (Json.parse text)))
      in
      Alcotest.(check (option string)) what (Some expected) message)
    [
      ( "wrong primitive", int_record, {|{"a": true}|},
        "document does not have the expected shape at $.a: expected int, \
         found a boolean" );
      ( "missing required field", int_record, {|{"b": 1}|},
        "document does not have the expected shape at $.a: expected int, \
         found a missing field" );
      ( "record name", Shape.record "row" [ ("a", int) ], {|{"a": 1}|},
        "document does not have the expected shape at $: expected a record \
         named row, found a record" );
      ( "null element, non-nullable entry",
        Shape.record json [ ("xs", Shape.collection int_record) ],
        {|{"xs": [{"a": 1}, null]}|},
        "document does not have the expected shape at $.xs[1]: expected \
         • {a: int}, found null" );
      ( "bad element", Shape.record json [ ("xs", Shape.collection int) ],
        {|{"xs": [1, 2, "two"]}|},
        "document does not have the expected shape at $.xs[2]: expected int, \
         found the string \"two\"" );
      ( "unmatched exactly-once entry", Shape.record json [ ("xs", once) ],
        {|{"xs": [1]}|},
        "document does not have the expected shape at $.xs: expected exactly \
         one element of shape string, found a collection with none" );
      ( "null against a Single entry", Shape.record json [ ("xs", once) ],
        {|{"xs": null}|},
        "document does not have the expected shape at $.xs: expected [int, 1 | \
         string, 1], found null (an exactly-once entry cannot be supplied)" );
    ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_corpus_differential;
    QCheck_alcotest.to_alcotest prop_arbitrary_differential;
    QCheck_alcotest.to_alcotest prop_convert_iff_has_shape;
    QCheck_alcotest.to_alcotest prop_quarantine_parity;
    Alcotest.test_case "mid-document mismatch resyncs" `Quick
      test_mid_document_mismatch_resyncs;
    Alcotest.test_case "mid-document fault resyncs like fold_many" `Quick
      test_mid_document_fault_resyncs;
    Alcotest.test_case "legacy exception parity" `Quick
      test_legacy_exception_parity;
    Alcotest.test_case "duplicate keys: last binding wins" `Quick
      test_duplicate_keys_last_wins;
    Alcotest.test_case "duplicate keys: survivor at the last position" `Quick
      test_duplicate_key_position;
    Alcotest.test_case "missing optional fields default" `Quick
      test_missing_optional_field_defaults;
    Alcotest.test_case "diagnostics pinned, one per kind" `Quick
      test_pinned_diagnostics;
    QCheck_alcotest.to_alcotest prop_reader_parity;
  ]

(* QCheck generators shared by the property-based suites.

   Two regimes matter for the paper's theorems:
   - arbitrary data values (parser round-trips, inference totality);
   - the *core algebra* of Section 3 (paper-mode shapes: int/float/bool/
     string primitives, homogeneous collections) on which Lemma 1 and
     Theorem 3 are stated and property-tested. *)

module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
module Shape = Fsdata_core.Shape
module Multiplicity = Fsdata_core.Multiplicity
open QCheck2

let field_names = [ "a"; "b"; "c"; "name"; "age"; "value"; "temp" ]
let record_names = [ Dv.json_record_name; "item"; "row"; "node" ]

(* A random subset of the known field names, in a fixed order so records
   never have duplicate fields. *)
let gen_field_subset : string list Gen.t =
  let open Gen in
  let* mask = list_size (return (List.length field_names)) bool in
  return
    (List.filteri (fun i _ -> List.nth mask i) field_names
    |> fun l -> List.filteri (fun i _ -> i < 4) l)

let gen_fields gen_value =
  let open Gen in
  let* names = gen_field_subset in
  let rec build acc = function
    | [] -> return (List.rev acc)
    | n :: rest ->
        let* v = gen_value in
        build ((n, v) :: acc) rest
  in
  build [] names

let gen_string_literal =
  Gen.oneofl
    [ ""; "x"; "hello"; "2012-05-01"; "0"; "1"; "35.14"; "true"; "#N/A";
      "some text"; "May 3"; "GC.DOD" ]

let gen_data : Dv.t Gen.t =
  let open Gen in
  sized
  @@ fix (fun self size ->
         let primitive =
           oneof
             [
               return Dv.Null;
               (bool >|= fun b -> Dv.Bool b);
               (int_range (-1000) 1000 >|= fun i -> Dv.Int i);
               (float_range (-1e6) 1e6 >|= fun f -> Dv.Float f);
               (gen_string_literal >|= fun s -> Dv.String s);
             ]
         in
         if size <= 1 then primitive
         else
           frequency
             [
               (3, primitive);
               ( 2,
                 let* items = list_size (int_range 0 4) (self (size / 2)) in
                 return (Dv.List items) );
               ( 2,
                 let* name = oneofl record_names in
                 let* fields = gen_fields (self (size / 2)) in
                 return (Dv.Record (name, fields)) );
             ])

(* JSON-ish data whose strings classify as plain strings, so paper-mode
   and practical-mode inference mostly agree. *)
let gen_plain_data : Dv.t Gen.t =
  let open Gen in
  sized
  @@ fix (fun self size ->
         let primitive =
           oneof
             [
               return Dv.Null;
               (bool >|= fun b -> Dv.Bool b);
               (int_range (-1000) 1000 >|= fun i -> Dv.Int i);
               (float_range (-1e6) 1e6 >|= fun f -> Dv.Float f);
               (oneofl [ "x"; "hello"; "world" ] >|= fun s -> Dv.String s);
             ]
         in
         if size <= 1 then primitive
         else
           frequency
             [
               (3, primitive);
               ( 2,
                 let* items = list_size (int_range 0 4) (self (size / 2)) in
                 return (Dv.List items) );
               ( 2,
                 let* name = oneofl record_names in
                 let* fields = gen_fields (self (size / 2)) in
                 return (Dv.Record (name, fields)) );
             ])

(* Ground shapes of the core algebra, built with smart constructors so
   the representation invariants hold:
   - nullable only wraps primitives and records,
   - collections are homogeneous,
   - tops are label-free (labels are exercised by dedicated csh tests). *)
let gen_core_shape_sized : Shape.t Gen.sized =
  let open Gen in
  fix (fun self size ->
         let leaf =
           oneofl
             [
               Shape.Bottom;
               Shape.Null;
               Shape.Primitive Shape.Int;
               Shape.Primitive Shape.Float;
               Shape.Primitive Shape.Bool;
               Shape.Primitive Shape.String;
               Shape.any;
             ]
         in
         if size <= 1 then leaf
         else
           frequency
             [
               (3, leaf);
               ( 2,
                 let* name = oneofl record_names in
                 let* fields = gen_fields (self (size / 2)) in
                 return (Shape.record name fields) );
               ( 1,
                 let* inner = self (size / 2) in
                 return (Shape.nullable (Shape.strip_nullable inner)) );
               ( 1,
                 let* elem = self (size / 2) in
                 return (Shape.collection (Shape.strip_nullable elem)) );
             ])

let gen_core_shape = Gen.sized gen_core_shape_sized

(* Pairs of same-named records for the field-alignment code (the csh
   record join, Shape.equal): the right record lists the left one's
   fields in the same order, shuffled (with the same or fresh values, so
   that both the (eq) rule and a join are hit), with one field fewer or
   one more, or lists fields that overlap the left ones or are disjoint
   from them. Field values are
   small core shapes, nested same-named records included. *)
let gen_record_pair : (Shape.record * Shape.record) Gen.t =
  let open Gen in
  let subset prefix =
    let* mask = list_repeat 10 bool in
    shuffle_l
      (List.concat
         (List.mapi
            (fun i keep -> if keep then [ prefix ^ string_of_int i ] else [])
            mask))
  in
  let value = sized_size (int_bound 8) gen_core_shape_sized in
  let with_values names =
    flatten_l (List.map (fun n -> map (fun s -> (n, s)) value) names)
  in
  let* left = subset "f" >>= with_values in
  let names = List.map fst left in
  let* right =
    oneof
      [
        return left;
        shuffle_l left;
        (let* i = int_bound (List.length left) in
         return (List.filteri (fun j _ -> j <> i) left));
        map (fun extra -> left @ extra) (with_values [ "g0" ]);
        with_values names;
        shuffle_l names >>= with_values;
        subset "f" >>= with_values;
        subset "g" >>= with_values;
      ]
  in
  let* name = oneofl record_names in
  return ({ Shape.name; fields = left }, { Shape.name; fields = right })

(* Accumulator / batch pairs for the absorption check (does csh σ δ
   leave σ as it is?). σ is a record of up to a dozen fields drawn from
   every shape kind — the Section 6.2 primitives, nullables, labelled
   tops, homogeneous and heterogeneous collections, nested records of the
   same or another name. δ is derived from σ the way a batch that adds
   nothing looks: a subset of σ's fields, shuffled or not, each kept
   equal, narrowed (bit0 under int, a stripped nullable, a label of a
   top, a sub-record), or replaced by ⊥ or null. A third of the pairs
   then take one edit that usually makes δ grow σ: a non-nullable field
   dropped, a field added, a primitive widened, the record renamed. *)

let prim p = Shape.Primitive p

let gen_absorb_leaf =
  Gen.oneofl
    Shape.
      [
        Bottom;
        Null;
        prim Bit0;
        prim Bit1;
        prim Bit;
        prim Bool;
        prim Int;
        prim Float;
        prim String;
        prim Date;
        Nullable (prim Int);
        Nullable (prim String);
        any;
        top [ prim Int; prim String ];
        Collection [];
        collection (prim Int);
        collection (Nullable (prim Int));
        hetero [ (prim Int, Multiplicity.Single); (prim String, Multiplicity.Multiple) ];
        hetero [ (prim Bool, Multiplicity.Optional_single) ];
      ]

let absorb_field_names = List.init 12 (Printf.sprintf "f%d")

let gen_absorb_record_sized : Shape.t Gen.sized =
  let open Gen in
  fix (fun self size ->
      let value =
        if size <= 1 then gen_absorb_leaf
        else
          frequency
            [
              (6, gen_absorb_leaf);
              (1, self (size / 3));
              (1, map Shape.nullable (self (size / 3)));
              (1, map Shape.collection (self (size / 3)));
            ]
      in
      let* n = int_bound (List.length absorb_field_names) in
      let names = List.filteri (fun i _ -> i < n) absorb_field_names in
      let* values = flatten_l (List.map (fun _ -> value) names) in
      let* name = frequency [ (3, return "row"); (1, oneofl record_names) ] in
      return (Shape.record name (List.combine names values)))

(* narrower primitives within the same tag (so collection entries keep
   their tags), and across tags *)
let narrower_in_tag = function
  | Shape.Int -> Shape.[ Bit0; Bit1; Bit ]
  | Float -> [ Int; Bit0 ]
  | Bit -> [ Bit0; Bit1 ]
  | _ -> []

let narrower p =
  narrower_in_tag p
  @ match p with Shape.Bool -> Shape.[ Bit; Bit1 ] | String -> [ Date ] | _ -> []

let rec gen_narrowed (s : Shape.t) : Shape.t Gen.t =
  let open Gen in
  match s with
  | Primitive p -> oneofl (List.map prim (p :: narrower p))
  | Nullable a -> oneof [ gen_narrowed a; map Shape.nullable (gen_narrowed a) ]
  | Record r -> gen_sub_record r
  | Top labels ->
      let fewer = match labels with [] -> [] | _ :: rest -> rest in
      oneofl (s :: Shape.top fewer :: Shape.Null :: labels)
  | Collection [] -> return s
  | Collection entries ->
      let entry (e : Shape.entry) =
        let* shape =
          match e.shape with
          | Primitive p -> oneofl (List.map prim (p :: narrower_in_tag p))
          | Record r -> gen_sub_record r
          | shape -> return shape
        in
        let* mult =
          match e.mult with
          | Multiple -> oneofl Multiplicity.[ Multiple; Optional_single; Single ]
          | Optional_single -> oneofl Multiplicity.[ Optional_single; Single ]
          | Single -> return Multiplicity.Single
        in
        let* keep = frequency [ (4, return true); (1, return false) ] in
        return (if keep then [ (shape, mult) ] else [])
      in
      let* kept = flatten_l (List.map entry entries) in
      frequency
        [ (3, return (Shape.hetero (List.concat kept))); (1, return (Shape.Collection [])) ]
  | Bottom | Null -> return s

(* a batch of [r]'s fields that adds nothing to it (mostly) *)
and gen_sub_record (r : Shape.record) : Shape.t Gen.t =
  let open Gen in
  (* a field that an absence or a null would change is rarely dropped or
     nulled here; the near misses do that on purpose *)
  let field (name, s) =
    let drop = if Shape.is_non_nullable s || s = Shape.Bottom then 1 else 6 in
    frequency
      [
        (10, return [ (name, s) ]);
        (10, map (fun d -> [ (name, d) ]) (gen_narrowed s));
        (2, return [ (name, Shape.Bottom) ]);
        (drop, return [ (name, Shape.Null) ]);
        (drop, return []);
      ]
  in
  let* fields = map List.concat (flatten_l (List.map field r.fields)) in
  let* fields = frequency [ (3, return fields); (1, shuffle_l fields) ] in
  return (Shape.record r.name fields)

let widen = function
  | Shape.Bit0 | Bit1 -> Shape.Int
  | Bit -> Bool
  | Int -> Float
  | Float | Date -> String
  | Bool | String -> Int

(* one edit that (usually) makes [delta] grow [sigma] *)
let gen_near_miss (sigma : Shape.record) (delta : Shape.record) =
  let open Gen in
  let required =
    List.filter
      (fun (n, s) -> Shape.is_non_nullable s && List.mem_assoc n delta.fields)
      sigma.fields
  in
  let prims =
    List.filter_map
      (function n, Shape.Primitive p -> Some (n, p) | _ -> None)
      delta.fields
  in
  let set n s = List.map (fun (m, d) -> if m = n then (m, s) else (m, d)) in
  oneof
    ((if required = [] then []
      else
        [
          (let* n, _ = oneofl required in
           return (List.remove_assoc n delta.fields, delta.name));
        ])
    @ (if prims = [] then []
       else
         [
           (let* n, p = oneofl prims in
            return (set n (prim (widen p)) delta.fields, delta.name));
         ])
    @ [
        (let* s = gen_absorb_leaf in
         return (delta.fields @ [ ("extra", s) ], delta.name));
        (let* name = oneofl (List.filter (( <> ) delta.name) ("row" :: record_names)) in
         return (delta.fields, name));
      ])
  |> map (fun (fields, name) -> Shape.record name fields)

let gen_absorb_pair : (Shape.t * Shape.t) Gen.t =
  let open Gen in
  let* sigma = sized_size (int_range 1 12) gen_absorb_record_sized in
  let r = match sigma with Shape.Record r -> r | _ -> assert false in
  let* delta = gen_sub_record r in
  let d = match delta with Shape.Record d -> d | _ -> assert false in
  let* delta = frequency [ (2, return delta); (1, gen_near_miss r d) ] in
  return (sigma, delta)

let print_data = Dv.to_string
let print_shape = Shape.to_string

(* Alcotest testables. *)
let data_testable = Alcotest.testable Dv.pp Dv.equal
let shape_testable = Alcotest.testable Shape.pp Shape.equal

(* The shape strict inference gives a source. *)
let infer_strict ?mode ?jobs ?chunk_size format source =
  Result.map
    (fun (r : Fsdata_core.Infer.report) -> r.Fsdata_core.Infer.shape)
    (Fsdata_core.Infer.run ?mode ?jobs ?chunk_size Fsdata_data.Diagnostic.Strict
       format source)

(* A run's whole report as text: the shape, the total, and each
   quarantined sample's index, diagnostic (line, column, message) and
   skipped text. *)
let report_text = function
  | Error e -> "error: " ^ e
  | Ok (r : Fsdata_core.Infer.report) ->
      String.concat "\n"
        (Shape.to_string r.shape
        :: string_of_int r.total
        :: List.map
             (fun (q : Fsdata_core.Infer.quarantined) ->
               let d = q.q_diagnostic in
               Printf.sprintf "%d %d:%d %s %S" q.q_index d.line d.column
                 d.message
                 (Option.value ~default:"-" q.q_text))
             r.quarantined)

(* A fed JSON reader's documents: [feed_docs r s] feeds [s] and
   answers the documents then read, until the reader awaits more input;
   [finish_docs r] ends the input and answers the rest. *)
let rec drain r =
  match Fsdata_data.Json.Reader.next r with
  | Fsdata_data.Json.Reader.Doc v -> v :: drain r
  | End | Await | Absorbed -> []

let feed_docs r s =
  Fsdata_data.Json.Reader.feed r s;
  drain r

let finish_docs r =
  Fsdata_data.Json.Reader.finish r;
  drain r

(* An [Infer.Feed] pull answering [fragments] in turn, empty ones left
   out, as [""] ends a feed. Once it has answered [""] it starts over,
   so one source can be run again. *)
let pull fragments =
  let fragments = List.filter (fun s -> s <> "") fragments in
  let rest = ref fragments in
  fun () ->
    match !rest with
    | [] ->
        rest := fragments;
        ""
    | s :: more ->
        rest := more;
        s

(* Random XML trees for the XML-pipeline safety properties. Element and
   attribute names come from small pools so same-named elements recur
   (exercising unification); literal values cover the classification
   space (bits, numbers, dates, missing markers, text). *)
let xml_names = [ "doc"; "item"; "entry"; "meta" ]
let xml_attrs = [ "id"; "kind"; "when" ]

let gen_xml_literal =
  Gen.oneofl
    [ "0"; "1"; "42"; "3.5"; "true"; "2012-05-01"; "hello"; "#N/A"; "x y" ]

let gen_xml_tree : Fsdata_data.Xml.tree Gen.t =
  let open Gen in
  let gen_attr_set =
    let* mask = list_size (return (List.length xml_attrs)) bool in
    let names = List.filteri (fun i _ -> List.nth mask i) xml_attrs in
    let rec build acc = function
      | [] -> return (List.rev acc)
      | n :: rest ->
          let* v = gen_xml_literal in
          build ((n, v) :: acc) rest
    in
    build [] names
  in
  sized
  @@ fix (fun self size ->
         let* name = oneofl xml_names in
         let* attributes = gen_attr_set in
         let* children =
           if size <= 1 then
             (* leaf: empty or text body *)
             let* text = opt gen_xml_literal in
             return
               (match text with
               | None -> []
               | Some t -> [ Fsdata_data.Xml.Text t ])
           else
             let* n = int_range 0 3 in
             let* kids = list_size (return n) (self (size / 2)) in
             return (List.map (fun k -> Fsdata_data.Xml.Element k) kids)
         in
         return { Fsdata_data.Xml.name; attributes; children })

let print_xml t = Fsdata_data.Xml.to_string t

(* ----- Faulty JSON texts ----- *)

(* JSON faults, each unparseable by construction ([Fault_inject] builds
   its corpora on them). *)
module Json_fault = struct
  type fault =
    | Truncated  (** drop the closing brace: unterminated document *)
    | Invalid_utf8  (** prepend bytes that are not valid JSON (or UTF-8) *)
    | Unbalanced  (** append a stray closing bracket: trailing content *)
    | Garbage  (** blank the first field separator: balanced but invalid *)

  let fault_name = function
    | Truncated -> "truncated"
    | Invalid_utf8 -> "invalid-utf8"
    | Unbalanced -> "unbalanced"
    | Garbage -> "garbage"

  let all_faults = [ Truncated; Invalid_utf8; Unbalanced; Garbage ]

  (* Faults that are safe to inject mid-stream: the corrupt text still ends
     at its own closing brace, so [Json.fold_many]'s resynchronization
     skips exactly the corrupted document. (A truncated document would
     swallow its successor; a stray trailing ']' would be skipped as a
     document of its own.) *)
  let stream_safe_faults = [ Invalid_utf8; Garbage ]

  (* Wrap every corpus document in a one-field object so its text starts
     with '{' and ends with '}' — the precondition for the corruptions
     above to guarantee a parse failure. *)
  let doc_text v =
    Json.to_string (Dv.Record (Dv.json_record_name, [ ("v", v) ]))

  let corrupt fault text =
    match fault with
    | Truncated -> String.sub text 0 (String.length text - 1)
    | Invalid_utf8 -> "\xff\xfe" ^ text
    | Unbalanced -> text ^ "]"
    | Garbage -> (
        (* the first ':' is the wrapper's field separator, before any
           value text, so blanking it never touches a string literal *)
        match String.index_opt text ':' with
        | Some i -> String.mapi (fun j c -> if j = i then ' ' else c) text
        | None -> "{\"bad\" 0}")
end

(* A faulty JSON text: documents, some printed with each nested value
   on a line of its own at column 1, documents with a fault of each
   kind, openings and strings that never close, and top-level scalars
   whose numbers and escapes a cut can split. *)
let gen_faulty_text =
  let open QCheck2.Gen in
  let scalar =
    oneofl
      [ "-12.5e+3"; "123456789012345678901"; "0"; "true"; "null"; "tru";
        {|"a\"b\\\u00e9\ud83d\ude00"|}; {|{"a": 1|}; {|{"a": [1,|}; "["; {|{"k":|};
        {|"ab|} ]
  in
  let* docs =
    list_size (int_range 1 10)
      (frequency
         [
           (3, map Json.to_string gen_data);
           (1, map (Json.to_string ~indent:0) gen_data);
           ( 2,
             map2
               (fun fault d -> Json_fault.corrupt fault (Json_fault.doc_text d))
               (oneofl Json_fault.all_faults) gen_data );
           (1, scalar);
         ])
  in
  let+ seps = list_repeat (List.length docs) (oneofl [ "\n"; " "; "\n\n"; "" ]) in
  String.concat "" (List.concat (List.map2 (fun d sep -> [ d; sep ]) docs seps))

(* Shapes that exercise the line breaking of the paper notation:
   records up to 300 fields wide, field and record names of 0 to 90
   bytes (multi-byte UTF-8 included, counted in bytes as the printer
   counts them), nesting deep enough to open boxes past column 68,
   heterogeneous collections with every multiplicity and labelled tops,
   plus the shapes inferred from [gen_data]. *)

let gen_layout_name : string Gen.t =
  let open Gen in
  let* k = frequency [ (4, int_bound 6); (2, int_range 7 20); (1, int_range 21 30) ] in
  let piece =
    frequency
      [
        (8, oneofl [ "a"; "b"; "x"; "_"; "1" ]);
        (1, oneofl [ "\xc3\xa9"; "\xc3\x9f" ]);
        (1, oneofl [ "\xe2\x80\xa2"; "\xe2\x8a\xa5"; "\xe5\x90\x8d" ]);
      ]
  in
  map (String.concat "") (list_repeat k piece)

(* Up to [n] fields. Most names take their index as a suffix; every
   seventh keeps the drawn name, so empty and short names occur too.
   Duplicates are dropped, so the record is valid. *)
let gen_layout_fields n gen_value =
  let open Gen in
  let* names = list_repeat n gen_layout_name in
  let names = List.mapi (fun i n -> if i mod 7 = 6 then n else n ^ string_of_int i) names in
  let names = List.sort_uniq String.compare names in
  let* names = shuffle_l names in
  flatten_l (List.map (fun n -> map (fun v -> (n, v)) gen_value) names)

(* the first item of each tag, so entries and labels stay canonical *)
let distinct_tags shape_of items =
  List.fold_left
    (fun kept x ->
      let tag = Shape.tagof (shape_of x) in
      if List.exists (fun k -> Fsdata_core.Tag.equal (Shape.tagof (shape_of k)) tag) kept
      then kept
      else x :: kept)
    [] items

let gen_layout_shape_sized : Shape.t Gen.sized =
  let open Gen in
  fix (fun self size ->
      let leaf = gen_absorb_leaf in
      if size <= 1 then leaf
      else
        let record ~width =
          let* n = width in
          let* name = gen_layout_name in
          let* fields = gen_layout_fields n (self (size / (n + 1))) in
          return (Shape.record name fields)
        in
        let label =
          let* s = self (size / 3) in
          return
            (match Shape.strip_nullable s with
            | Shape.Bottom | Shape.Null | Shape.Top _ -> prim Shape.Int
            | s -> s)
        in
        frequency
          [
            (2, leaf);
            (* narrow and deep: the first field opens its box on the
               line of its parent's *)
            (3, record ~width:(int_range 1 3));
            (2, record ~width:(int_range 0 12));
            (1, record ~width:(int_range 13 300));
            (1, map Shape.nullable (record ~width:(int_range 1 4)));
            (1, map Shape.collection (self (size / 2)));
            ( 2,
              let* shapes = list_size (int_range 1 4) label in
              let* mults =
                list_repeat (List.length shapes)
                  (oneofl Multiplicity.[ Single; Optional_single; Multiple ])
              in
              return (Shape.hetero (distinct_tags fst (List.combine shapes mults))) );
            ( 1,
              let* labels = list_size (int_range 1 4) label in
              return (Shape.top (distinct_tags Fun.id labels)) );
          ])

let gen_layout_shape : Shape.t Gen.t =
  Gen.frequency
    [
      (4, Gen.sized_size (Gen.int_range 1 400) gen_layout_shape_sized);
      (1, Gen.map (Fsdata_core.Infer.shape_of_value ~mode:`Practical) gen_data);
    ]

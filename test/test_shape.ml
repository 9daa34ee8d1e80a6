(* Shape representation tests: constructors, invariants, printing. *)

module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
module Tag = Fsdata_core.Tag
open Generators

let check = Alcotest.check
let tc = Alcotest.test_case

let int_ = Shape.Primitive Shape.Int
let float_ = Shape.Primitive Shape.Float
let bool_ = Shape.Primitive Shape.Bool
let string_ = Shape.Primitive Shape.String

let test_record_dup () =
  Alcotest.check_raises "duplicate fields"
    (Invalid_argument "Shape.record: duplicate field \"x\"") (fun () ->
      ignore (Shape.record "p" [ ("x", int_); ("x", float_) ]));
  (* the reported name is the first field that repeats an earlier one,
     on the pairwise path for narrow records and the hashed one for
     wide records alike *)
  let fields names = List.map (fun n -> (n, int_)) names in
  let wide k = List.init k (Printf.sprintf "f%d") in
  List.iter
    (fun (names, dup) ->
      Alcotest.check_raises dup
        (Invalid_argument (Printf.sprintf "Shape.record: duplicate field %S" dup))
        (fun () -> ignore (Shape.record "p" (fields names))))
    [
      ([ "a"; "b"; "b"; "a" ], "b");
      (wide 30 @ [ "f29"; "f0" ], "f29");
      (wide 40 @ [ "f39"; "f0" ], "f39");
      ("f7" :: wide 200, "f7");
    ];
  Alcotest.(check int) "200 distinct fields" 200
    (match Shape.record "p" (fields (wide 200)) with
    | Shape.Record r -> List.length r.fields
    | _ -> 0)

let test_nullable_ceiling () =
  (* ⌈−⌉ wraps only non-nullable shapes *)
  check shape_testable "primitive wrapped" (Shape.Nullable int_)
    (Shape.nullable int_);
  check shape_testable "record wrapped"
    (Shape.Nullable (Shape.record "p" []))
    (Shape.nullable (Shape.record "p" []));
  check shape_testable "nullable unchanged" (Shape.Nullable int_)
    (Shape.nullable (Shape.Nullable int_));
  check shape_testable "null unchanged" Shape.Null (Shape.nullable Shape.Null);
  check shape_testable "collection unchanged" (Shape.collection int_)
    (Shape.nullable (Shape.collection int_));
  check shape_testable "top unchanged" Shape.any (Shape.nullable Shape.any);
  check shape_testable "bottom unchanged" Shape.Bottom (Shape.nullable Shape.Bottom)

let test_strip_floor () =
  check shape_testable "unwraps" int_ (Shape.strip_nullable (Shape.Nullable int_));
  check shape_testable "identity elsewhere" Shape.any (Shape.strip_nullable Shape.any)

let test_collection_forms () =
  check shape_testable "collection Bottom = []" (Shape.Collection [])
    (Shape.collection Shape.Bottom);
  check (Alcotest.option shape_testable) "element of [int]" (Some int_)
    (Shape.collection_element (Shape.collection int_));
  check (Alcotest.option shape_testable) "element of [⊥]" (Some Shape.Bottom)
    (Shape.collection_element (Shape.collection Shape.Bottom));
  check (Alcotest.option shape_testable) "hetero has no single element" None
    (Shape.collection_element
       (Shape.hetero [ (int_, Mult.Single); (string_, Mult.Single) ]))

let test_hetero_invariants () =
  Alcotest.check_raises "duplicate tags"
    (Invalid_argument "Shape: duplicate tag number in labelled top or collection")
    (fun () -> ignore (Shape.hetero [ (int_, Mult.Single); (float_, Mult.Single) ]));
  Alcotest.check_raises "bottom entry"
    (Invalid_argument "Shape.hetero: bottom entry") (fun () ->
      ignore (Shape.hetero [ (Shape.Bottom, Mult.Single) ]))

let test_hetero_sorted () =
  (* entries are canonically ordered by tag, so construction order does
     not affect equality *)
  let a = Shape.hetero [ (int_, Mult.Single); (string_, Mult.Multiple) ] in
  let b = Shape.hetero [ (string_, Mult.Multiple); (int_, Mult.Single) ] in
  check shape_testable "order canonical" a b

let test_top_invariants () =
  Alcotest.check_raises "null label" (Invalid_argument "Shape.top: invalid label")
    (fun () -> ignore (Shape.top [ Shape.Null ]));
  Alcotest.check_raises "nested top" (Invalid_argument "Shape.top: invalid label")
    (fun () -> ignore (Shape.top [ Shape.any ]));
  Alcotest.check_raises "nullable label"
    (Invalid_argument "Shape.top: invalid label") (fun () ->
      ignore (Shape.top [ Shape.Nullable int_ ]));
  let a = Shape.top [ int_; bool_ ] in
  let b = Shape.top [ bool_; int_ ] in
  check shape_testable "labels canonical" a b

let test_tagof () =
  let t = Alcotest.testable Tag.pp Tag.equal in
  check t "int" Tag.Number (Shape.tagof int_);
  check t "bit" Tag.Number (Shape.tagof (Shape.Primitive Shape.Bit));
  check t "bool" Tag.Bool (Shape.tagof bool_);
  check t "string" Tag.String (Shape.tagof string_);
  check t "date" Tag.Date (Shape.tagof (Shape.Primitive Shape.Date));
  check t "record" (Tag.Record "p") (Shape.tagof (Shape.record "p" []));
  check t "collection" Tag.Collection (Shape.tagof (Shape.collection int_));
  check t "nullable" Tag.Nullable (Shape.tagof (Shape.Nullable int_));
  check t "top" Tag.Top (Shape.tagof Shape.any);
  check t "null" Tag.Null (Shape.tagof Shape.Null);
  Alcotest.check_raises "bottom has no tag"
    (Invalid_argument "Shape.tagof: bottom has no tag") (fun () ->
      ignore (Shape.tagof Shape.Bottom))

let test_equal_mod_field_order () =
  let a = Shape.record "p" [ ("x", int_); ("y", string_) ] in
  let b = Shape.record "p" [ ("y", string_); ("x", int_) ] in
  check shape_testable "field order irrelevant" a b

let test_pp () =
  check Alcotest.string "record"
    "p {x: int, y: nullable string}"
    (Shape.to_string (Shape.record "p" [ ("x", int_); ("y", Shape.Nullable string_) ]));
  check Alcotest.string "homogeneous collection" "[int]"
    (Shape.to_string (Shape.collection int_));
  check Alcotest.string "any" "any" (Shape.to_string Shape.any);
  check Alcotest.string "labelled top" "any\xe2\x9f\xa8bool, string\xe2\x9f\xa9"
    (Shape.to_string (Shape.top [ string_; bool_ ]));
  check Alcotest.string "hetero" "[int, 1 | string, *]"
    (Shape.to_string (Shape.hetero [ (string_, Mult.Multiple); (int_, Mult.Single) ]))

(* A structural deep copy that defeats all physical sharing, including
   string sharing — so [hcons] has real work to do on the copy. The raw
   constructors are safe here because the input is already canonical. *)
let rec copy_shape (s : Shape.t) : Shape.t =
  let copy_string x = String.init (String.length x) (String.get x) in
  match s with
  | Shape.Bottom -> Shape.Bottom
  | Shape.Null -> Shape.Null
  | Shape.Primitive p -> Shape.Primitive p
  | Shape.Record { name; fields } ->
      Shape.Record
        {
          name = copy_string name;
          fields = List.map (fun (f, s) -> (copy_string f, copy_shape s)) fields;
        }
  | Shape.Nullable s -> Shape.Nullable (copy_shape s)
  | Shape.Collection entries ->
      Shape.Collection
        (List.map
           (fun (e : Shape.entry) -> { e with Shape.shape = copy_shape e.Shape.shape })
           entries)
  | Shape.Top labels -> Shape.Top (List.map copy_shape labels)

let test_hcons_identity () =
  let s =
    Shape.record "p"
      [
        ("y", Shape.Nullable string_);
        ("x", Shape.collection int_);
        ("z", Shape.top [ bool_; int_ ]);
      ]
  in
  let a = Shape.hcons s and b = Shape.hcons (copy_shape s) in
  check Alcotest.bool "identical representations intern to one node" true
    (a == b);
  check shape_testable "hcons preserves the shape" s a;
  check Alcotest.string "record field order preserved" (Shape.to_string s)
    (Shape.to_string a);
  (* a distinct field order is a distinct representation: equal shapes,
     different interned nodes *)
  let r = Shape.record "p" [ ("x", int_); ("y", string_) ] in
  let r' = Shape.record "p" [ ("y", string_); ("x", int_) ] in
  check shape_testable "equal mod field order" r r';
  check Alcotest.bool "but separate nodes" false
    (Shape.hcons r == Shape.hcons r')

let test_hcons_table () =
  Shape.hcons_clear ();
  check Alcotest.int "empty after clear" 0 (Shape.hcons_size ());
  let s = Shape.hcons (Shape.collection (Shape.Nullable int_)) in
  let n = Shape.hcons_size () in
  check Alcotest.bool "interning populates the table" true (n > 0);
  ignore (Shape.hcons (Shape.collection (Shape.Nullable int_)));
  check Alcotest.int "re-interning adds nothing" n (Shape.hcons_size ());
  Shape.hcons_clear ();
  check Alcotest.int "clear drops the table" 0 (Shape.hcons_size ());
  (* existing shapes stay valid and can be re-interned *)
  check shape_testable "old node still usable"
    (Shape.collection (Shape.Nullable int_))
    (Shape.hcons s)

let prop_hcons_sound =
  QCheck2.Test.make ~name:"equal (hcons s) s && hcons s == hcons (copy s)"
    ~count:200 ~print:print_shape gen_core_shape (fun s ->
      let a = Shape.hcons s in
      Shape.equal a s && a == Shape.hcons (copy_shape s))

let prop_size_positive =
  QCheck2.Test.make ~name:"size >= 1" ~count:200 ~print:print_shape
    gen_core_shape (fun s -> Shape.size s >= 1)

let prop_equal_refl =
  QCheck2.Test.make ~name:"equal s s" ~count:200 ~print:print_shape
    gen_core_shape (fun s -> Shape.equal s s)

(* [s] with every record's fields reordered at random, at every depth *)
let rec gen_permuted (s : Shape.t) : Shape.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  match s with
  | Shape.Record { name; fields } ->
      let* fields =
        flatten_l
          (List.map
             (fun (f, t) -> map (fun t -> (f, t)) (gen_permuted t))
             fields)
      in
      let* fields = shuffle_l fields in
      return (Shape.Record { name; fields })
  | Shape.Nullable t -> map (fun t -> Shape.Nullable t) (gen_permuted t)
  | Shape.Collection entries ->
      map
        (fun entries -> Shape.Collection entries)
        (flatten_l
           (List.map
              (fun (e : Shape.entry) ->
                map
                  (fun shape -> { e with Shape.shape })
                  (gen_permuted e.shape))
              entries))
  | Shape.Top labels ->
      map
        (fun labels -> Shape.Top labels)
        (flatten_l (List.map gen_permuted labels))
  | s -> return s

(* unrelated shapes; field-permuted copies (equal); same-named records
   that share, overlap or miss each other's fields, one side sometimes
   permuted (so widths and orders both vary) *)
let gen_equality_pair =
  let open QCheck2.Gen in
  oneof
    [
      pair gen_core_shape gen_core_shape;
      (let* a = gen_core_shape in
       let* b = gen_permuted (copy_shape a) in
       return (a, b));
      (let* r1, r2 = gen_record_pair in
       let* b =
         oneof [ return (Shape.Record r2); gen_permuted (Shape.Record r2) ]
       in
       return (Shape.Record r1, b));
    ]

let prop_equal_is_compare =
  QCheck2.Test.make ~name:"equal a b = (compare a b = 0)" ~count:1000
    ~print:(fun (a, b) -> print_shape a ^ " / " ^ print_shape b)
    gen_equality_pair
    (fun (a, b) ->
      Shape.equal a b = (Shape.compare a b = 0)
      && Shape.equal b a = (Shape.compare b a = 0))

(* The serve layer renders a shape once and reuses the text while the
   shape is physically the same value; the reuse must be exactly the
   text a fresh rendering produces, also for the new values that
   interning builds after the table is cleared. *)
let test_render_memo () =
  let render = Fsdata_serve.Server.shape_string in
  let fresh s = Fmt.str "%a" Shape.pp s in
  let build () =
    Shape.hcons
      (Shape.record "row"
         [
           ("a", int_);
           ( "b",
             Shape.collection
               (Shape.nullable (Shape.record "item" [ ("c", string_) ])) );
           ("e", Shape.top [ int_; string_ ]);
         ])
  in
  let s = build () in
  let first = render s in
  check Alcotest.string "first rendering" (fresh s) first;
  check Alcotest.bool "second rendering reused" true (render s == first);
  check Alcotest.string "reused rendering" (fresh s) (render s);
  Shape.hcons_clear ();
  let s' = build () in
  check Alcotest.bool "re-interned after clear is a new value" false (s == s');
  check Alcotest.string "after clear" (fresh s') (render s');
  check Alcotest.string "old value after clear" (fresh s) (render s);
  let other = Shape.hcons (Shape.record "row" [ ("a", float_) ]) in
  check Alcotest.string "different shape" (fresh other) (render other);
  (* more distinct shapes than the memo keeps: evicted ones re-render *)
  List.iter
    (fun i ->
      let t = Shape.record "row" [ (Printf.sprintf "f%d" i, bool_) ] in
      check Alcotest.string "distinct shape" (fresh t) (render t))
    (List.init 64 Fun.id);
  check Alcotest.string "after eviction" (fresh s) (render s)

let suite =
  [
    tc "record: duplicate fields" `Quick test_record_dup;
    tc "nullable ceiling" `Quick test_nullable_ceiling;
    tc "strip (floor)" `Quick test_strip_floor;
    tc "collection forms" `Quick test_collection_forms;
    tc "hetero invariants" `Quick test_hetero_invariants;
    tc "hetero canonical order" `Quick test_hetero_sorted;
    tc "top invariants and order" `Quick test_top_invariants;
    tc "tagof" `Quick test_tagof;
    tc "equality mod field order" `Quick test_equal_mod_field_order;
    tc "printing" `Quick test_pp;
    tc "hash-consing identity" `Quick test_hcons_identity;
    tc "hash-consing table lifecycle" `Quick test_hcons_table;
    QCheck_alcotest.to_alcotest prop_hcons_sound;
    QCheck_alcotest.to_alcotest prop_size_positive;
    QCheck_alcotest.to_alcotest prop_equal_refl;
    QCheck_alcotest.to_alcotest prop_equal_is_compare;
    tc "rendering memo is byte-identical" `Quick test_render_memo;
  ]

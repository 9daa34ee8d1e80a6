(* The common preferred shape function (Definition 2, Figures 2 and 4;
   Lemma 1).

   One unit test per rule of Figure 2 and Figure 4, named after the rule,
   plus the least-upper-bound property of Lemma 1 as qcheck properties
   over the core algebra. *)

module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
module Csh = Fsdata_core.Csh
module P = Fsdata_core.Preference
open Generators

let tc = Alcotest.test_case
let check = Alcotest.check

let int_ = Shape.Primitive Shape.Int
let float_ = Shape.Primitive Shape.Float
let bool_ = Shape.Primitive Shape.Bool
let string_ = Shape.Primitive Shape.String
let bit = Shape.Primitive Shape.Bit
let bit0 = Shape.Primitive Shape.Bit0
let bit1 = Shape.Primitive Shape.Bit1
let date = Shape.Primitive Shape.Date
let csh = Csh.csh ~mode:`Core
let cshh = Csh.csh ~mode:`Hetero

let eq name expected actual = check shape_testable name expected actual

(* (eq) *)
let test_rule_eq () =
  eq "identical shapes" int_ (csh int_ int_);
  let r = Shape.record "p" [ ("x", int_) ] in
  eq "identical records" r (csh r r);
  eq "identical tops" (Shape.top [ int_ ]) (csh (Shape.top [ int_ ]) (Shape.top [ int_ ]))

(* (list) *)
let test_rule_list () =
  eq "[int] ⊔ [float] = [float]"
    (Shape.collection float_)
    (csh (Shape.collection int_) (Shape.collection float_));
  eq "[int] ⊔ [⊥] = [int]"
    (Shape.collection int_)
    (csh (Shape.collection int_) (Shape.collection Shape.Bottom));
  eq "[int] ⊔ [null] = [nullable int]"
    (Shape.collection (Shape.Nullable int_))
    (csh (Shape.collection int_) (Shape.collection Shape.Null))

(* (bot) *)
let test_rule_bot () =
  eq "⊥ ⊔ s = s" int_ (csh Shape.Bottom int_);
  eq "s ⊔ ⊥ = s" int_ (csh int_ Shape.Bottom);
  eq "⊥ ⊔ ⊥ = ⊥" Shape.Bottom (csh Shape.Bottom Shape.Bottom);
  eq "⊥ ⊔ null = null" Shape.Null (csh Shape.Bottom Shape.Null)

(* (null) *)
let test_rule_null () =
  eq "null ⊔ int = nullable int" (Shape.Nullable int_) (csh Shape.Null int_);
  eq "int ⊔ null = nullable int" (Shape.Nullable int_) (csh int_ Shape.Null);
  eq "null ⊔ record" (Shape.Nullable (Shape.record "p" []))
    (csh Shape.Null (Shape.record "p" []));
  eq "null ⊔ collection = collection (already nullable)"
    (Shape.collection int_)
    (csh Shape.Null (Shape.collection int_));
  eq "null ⊔ nullable int = nullable int" (Shape.Nullable int_)
    (csh Shape.Null (Shape.Nullable int_));
  eq "null ⊔ any = any" Shape.any (csh Shape.Null Shape.any);
  eq "null ⊔ null = null" Shape.Null (csh Shape.Null Shape.Null)

(* (top) *)
let test_rule_top () =
  eq "any ⊔ int = any (labels grow)" (Shape.top [ int_ ]) (csh Shape.any int_);
  eq "any ⊔ any = any" Shape.any (csh Shape.any Shape.any)

(* (num) + Section 6.2 lattice *)
let test_rule_num () =
  eq "int ⊔ float = float" float_ (csh int_ float_);
  eq "float ⊔ int = float" float_ (csh float_ int_);
  eq "bit0 ⊔ bit1 = bit" bit (csh bit0 bit1);
  eq "bit0 ⊔ int = int" int_ (csh bit0 int_);
  eq "bit ⊔ int = int" int_ (csh bit int_);
  eq "bit ⊔ bool = bool" bool_ (csh bit bool_);
  eq "bit ⊔ float = float" float_ (csh bit float_);
  eq "bit1 ⊔ bool = bool" bool_ (csh bit1 bool_);
  eq "date ⊔ string = string" string_ (csh date string_)

(* (opt) *)
let test_rule_opt () =
  eq "nullable int ⊔ float = nullable float" (Shape.Nullable float_)
    (csh (Shape.Nullable int_) float_);
  eq "int ⊔ nullable float = nullable float" (Shape.Nullable float_)
    (csh int_ (Shape.Nullable float_));
  eq "nullable int ⊔ nullable float = nullable float" (Shape.Nullable float_)
    (csh (Shape.Nullable int_) (Shape.Nullable float_));
  (* joining through nullable can still reach a top; ⌈−⌉ leaves it alone *)
  eq "nullable int ⊔ record = top"
    (Shape.top [ int_; Shape.record "p" [] ])
    (csh (Shape.Nullable int_) (Shape.record "p" []))

(* (recd) with row variables (Figure 3's θ) *)
let test_rule_recd () =
  let p = Shape.record "p" in
  eq "common fields joined"
    (p [ ("x", float_) ])
    (csh (p [ ("x", int_) ]) (p [ ("x", float_) ]));
  eq "one-sided fields become nullable"
    (p [ ("x", int_); ("y", Shape.Nullable string_) ])
    (csh (p [ ("x", int_); ("y", string_) ]) (p [ ("x", int_) ]));
  eq "both sides contribute"
    (p [ ("x", Shape.Nullable int_); ("y", Shape.Nullable string_) ])
    (csh (p [ ("x", int_) ]) (p [ ("y", string_) ]));
  eq "Point example from Section 3.1"
    (Shape.record "Point" [ ("x", int_); ("y", Shape.Nullable int_) ])
    (csh
       (Shape.record "Point" [ ("x", int_) ])
       (Shape.record "Point" [ ("x", int_); ("y", int_) ]));
  eq "field order follows first appearance"
    (p [ ("y", Shape.Nullable string_); ("x", Shape.Nullable int_) ])
    (csh (p [ ("y", string_) ]) (p [ ("x", int_) ]))

(* (any) / (top-any) *)
let test_rule_any () =
  eq "int ⊔ bool = any⟨int, bool⟩" (Shape.top [ int_; bool_ ]) (csh int_ bool_);
  eq "record ⊔ collection"
    (Shape.top [ Shape.record "p" []; Shape.collection int_ ])
    (csh (Shape.record "p" []) (Shape.collection int_));
  eq "records with different names"
    (Shape.top [ Shape.record "p" []; Shape.record "q" [] ])
    (csh (Shape.record "p" []) (Shape.record "q" []))

(* Figure 4: (top-merge) *)
let test_top_merge () =
  eq "labels grouped by tag"
    (Shape.top [ float_; bool_; string_ ])
    (csh (Shape.top [ int_; string_ ]) (Shape.top [ float_; bool_ ]));
  eq "record labels with same name merge"
    (Shape.top [ Shape.record "p" [ ("x", Shape.Nullable int_) ]; bool_ ])
    (csh
       (Shape.top [ Shape.record "p" [ ("x", int_) ] ])
       (Shape.top [ Shape.record "p" []; bool_ ]))

(* Figure 4: (top-incl) *)
let test_top_incl () =
  eq "joins with the matching label"
    (Shape.top [ float_; bool_ ])
    (csh (Shape.top [ int_; bool_ ]) float_);
  eq "paper example: joins int and float rather than nesting"
    (Shape.top [ float_; bool_ ])
    (csh (csh int_ bool_) float_)

(* Figure 4: (top-add) *)
let test_top_add () =
  eq "adds a label with a new tag"
    (Shape.top [ int_; bool_; string_ ])
    (csh (Shape.top [ int_; bool_ ]) string_);
  eq "nullable label is stripped (⌊−⌋)"
    (Shape.top [ int_; string_ ])
    (csh (Shape.top [ int_ ]) (Shape.Nullable string_))

(* Hetero collections (Section 6.4). *)
let test_hetero_merge () =
  let h = Shape.hetero in
  eq "same tag: shapes join, multiplicities lub"
    (h [ (float_, Mult.Multiple) ])
    (cshh (h [ (int_, Mult.Single) ]) (h [ (float_, Mult.Multiple) ]));
  eq "1 and 1 stay 1"
    (h [ (int_, Mult.Single) ])
    (cshh (h [ (int_, Mult.Single) ]) (h [ (int_, Mult.Single) ]));
  eq "one-sided tag weakens 1 to 1? (paper: turning 1 and 1? into 1?)"
    (h [ (int_, Mult.Single); (string_, Mult.Optional_single) ])
    (cshh
       (h [ (int_, Mult.Single); (string_, Mult.Single) ])
       (h [ (int_, Mult.Single) ]));
  eq "one-sided * stays *"
    (h [ (int_, Mult.Single); (string_, Mult.Multiple) ])
    (cshh
       (h [ (int_, Mult.Single); (string_, Mult.Multiple) ])
       (h [ (int_, Mult.Single) ]));
  eq "empty collection weakens everything"
    (h [ (int_, Mult.Optional_single) ])
    (cshh (h [ (int_, Mult.Single) ]) (Shape.Collection []))

(* csh_all: Figure 3's fold. *)
let test_csh_all () =
  eq "empty fold is bottom" Shape.Bottom (Csh.csh_all ~mode:`Core []);
  eq "singleton" int_ (Csh.csh_all ~mode:`Core [ int_ ]);
  eq "int, float, null" (Shape.Nullable float_)
    (Csh.csh_all ~mode:`Core [ int_; float_; Shape.Null ])

(* ----- Lemma 1: csh is the least upper bound ----- *)

let prop_upper_bound =
  QCheck2.Test.make ~name:"Lemma 1: csh is an upper bound" ~count:800
    ~print:(fun (a, b) -> print_shape a ^ " / " ^ print_shape b)
    QCheck2.Gen.(pair gen_core_shape gen_core_shape)
    (fun (a, b) ->
      let c = csh a b in
      P.is_preferred a c && P.is_preferred b c)

let prop_least =
  QCheck2.Test.make ~name:"Lemma 1: csh is least among upper bounds" ~count:800
    ~print:(fun (a, b, u) ->
      String.concat " / " (List.map print_shape [ a; b; u ]))
    QCheck2.Gen.(triple gen_core_shape gen_core_shape gen_core_shape)
    (fun (a, b, u) ->
      (* whenever u is an upper bound of a and b, csh(a,b) ⊑ u *)
      (not (P.is_preferred a u && P.is_preferred b u))
      || P.is_preferred (csh a b) u)

let prop_commutative =
  QCheck2.Test.make ~name:"csh commutative" ~count:500
    ~print:(fun (a, b) -> print_shape a ^ " / " ^ print_shape b)
    QCheck2.Gen.(pair gen_core_shape gen_core_shape)
    (fun (a, b) -> Shape.equal (csh a b) (csh b a))

let prop_idempotent =
  QCheck2.Test.make ~name:"csh idempotent" ~count:300 ~print:print_shape
    gen_core_shape (fun s -> Shape.equal (csh s s) s)

let prop_associative_up_to_equiv =
  QCheck2.Test.make ~name:"csh associative up to \xe2\x8a\x91-equivalence"
    ~count:500
    ~print:(fun (a, b, c) ->
      String.concat " / " (List.map print_shape [ a; b; c ]))
    QCheck2.Gen.(triple gen_core_shape gen_core_shape gen_core_shape)
    (fun (a, b, c) ->
      let l = csh (csh a b) c and r = csh a (csh b c) in
      P.is_preferred l r && P.is_preferred r l)

let prop_monotone_join =
  QCheck2.Test.make ~name:"a \xe2\x8a\x91 b implies csh a b \xe2\x89\xa1 b"
    ~count:500
    ~print:(fun (a, b) -> print_shape a ^ " / " ^ print_shape b)
    QCheck2.Gen.(pair gen_core_shape gen_core_shape)
    (fun (a, b) ->
      (not (P.is_preferred a b))
      ||
      let c = csh a b in
      P.is_preferred c b && P.is_preferred b c)

(* The record join as it stood before the linear-time merge, one
   [List.assoc_opt] per left field and one [List.mem_assoc] per right
   field, kept as the differential oracle for [Csh.merge_records]. The
   oracle's csh takes the oracle's path on same-named record pairs, at
   every depth where two records meet field to field, and bumps
   [csh.merges] as the real one does. *)
let merges = Fsdata_obs.Metrics.counter "csh.merges"

let rec oracle_csh ~mode s1 s2 =
  match (s1, s2) with
  | Shape.Record r1, Shape.Record r2
    when String.equal r1.name r2.name && Shape.compare s1 s2 <> 0 ->
      Fsdata_obs.Metrics.incr merges;
      Shape.Record (merge_records ~mode r1 r2)
  | _ -> Csh.csh ~mode s1 s2

and merge_records ~mode (r1 : Shape.record) (r2 : Shape.record) :
    Shape.record =
  let open Shape in
  let csh = oracle_csh in
  (* Fields present on both sides are joined recursively; one-sided fields
     become nullable. This realizes Figure 3's minimal ground substitution
     for row variables: the extra fields a record may or may not have are
     exactly the fields its row variable stands for, and [⌈θ(ρ)⌉] makes
     them nullable. Field order: left-to-right first appearance. *)
  (* A one-sided field joins with "absent", which reads as null (that is
     what convField produces for it), so the join is csh(null, s) = ⌈s⌉ —
     in particular a one-sided ⊥ field becomes null, not ⊥. *)
  let absent ~mode s = csh ~mode Null s in
  let fields =
    List.map
      (fun (n, s1) ->
        match List.assoc_opt n r2.fields with
        | Some s2 -> (n, csh ~mode s1 s2)
        | None -> (n, absent ~mode s1))
      r1.fields
    @ List.filter_map
        (fun (n, s2) ->
          if List.mem_assoc n r1.fields then None else Some (n, absent ~mode s2))
        r2.fields
  in
  { name = r1.name; fields }

(* [f ()] and the number of csh merges it performed *)
let counting_merges f =
  let enabled = Fsdata_obs.Metrics.enabled () in
  Fsdata_obs.Metrics.set_enabled true;
  let before = Fsdata_obs.Metrics.value merges in
  let v =
    Fun.protect
      ~finally:(fun () -> Fsdata_obs.Metrics.set_enabled enabled)
      f
  in
  (v, Fsdata_obs.Metrics.value merges - before)

let string_of_mode = function
  | `Core -> "core"
  | `Hetero -> "hetero"
  | `Xml -> "xml"

let prop_record_merge_matches_oracle =
  QCheck2.Test.make
    ~name:"record merge: same bytes and merge count as the assoc oracle"
    ~count:1000
    ~print:(fun (mode, (r1, r2)) ->
      Printf.sprintf "%s: %s / %s" (string_of_mode mode)
        (print_shape (Shape.Record r1))
        (print_shape (Shape.Record r2)))
    QCheck2.Gen.(pair (oneofl [ `Core; `Hetero; `Xml ]) gen_record_pair)
    (fun (mode, (r1, r2)) ->
      let s1 = Shape.Record r1 and s2 = Shape.Record r2 in
      let merged, n = counting_merges (fun () -> Csh.csh ~mode s1 s2) in
      let expected, n_oracle =
        counting_merges (fun () -> oracle_csh ~mode s1 s2)
      in
      String.equal (Shape.to_string merged) (Shape.to_string expected)
      && n = n_oracle)

(* ----- absorption: deciding csh σ δ = σ without the join ----- *)

let prop_absorbs_decides_equality =
  QCheck2.Test.make
    ~name:"absorbs \xcf\x83 \xce\xb4 iff csh \xcf\x83 \xce\xb4 = \xcf\x83, all modes, plain and indexed"
    ~count:1500
    ~print:(fun (s, d) -> print_shape s ^ " / " ^ print_shape d)
    gen_absorb_pair
    (fun (s, d) ->
      let idx = Csh.index s in
      List.for_all
        (fun mode ->
          let expected = Shape.equal (Csh.csh ~mode s d) s in
          Csh.absorbs ~mode s d = expected
          && Csh.absorbs_indexed ~mode idx d = expected)
        [ `Core; `Hetero; `Xml ])

(* the same over arbitrary core shapes, records or not, and over pairs
   whose right side is derived from the left *)
let prop_absorbs_core_shapes =
  QCheck2.Test.make ~name:"absorbs decides csh equality on core shapes"
    ~count:800
    ~print:(fun (s, d) -> print_shape s ^ " / " ^ print_shape d)
    QCheck2.Gen.(
      oneof
        [
          pair gen_core_shape gen_core_shape;
          (gen_core_shape >>= fun s -> map (fun d -> (s, d)) (gen_narrowed s));
        ])
    (fun (s, d) ->
      List.for_all
        (fun mode ->
          let expected = Shape.equal (Csh.csh ~mode s d) s in
          Csh.absorbs ~mode s d = expected
          && Csh.absorbs_indexed ~mode (Csh.index s) d = expected)
        [ `Core; `Hetero; `Xml ])

let test_absorbs_examples () =
  let r fields = Shape.record "row" fields in
  let sigma =
    r [ ("a", int_); ("b", Shape.Nullable string_); ("c", Shape.any) ]
  in
  let yes name d = check Alcotest.bool name true (Csh.absorbs sigma d) in
  let no name d = check Alcotest.bool name false (Csh.absorbs sigma d) in
  yes "itself" sigma;
  yes "bottom" Shape.Bottom;
  yes "bit0 under int, nullable fields absent" (r [ ("a", bit0) ]);
  yes "stripped nullable, shuffled" (r [ ("b", string_); ("a", int_) ]);
  no "required field absent" (r [ ("b", string_) ]);
  no "unknown field" (r [ ("a", int_); ("z", int_) ]);
  no "widened primitive" (r [ ("a", float_) ]);
  no "other record name" (Shape.record "col" [ ("a", int_) ]);
  no "null" Shape.Null;
  let idx = Csh.index sigma in
  check Alcotest.bool "the index remembers its shape" true
    (Csh.indexed idx == sigma);
  check Alcotest.bool "indexed agrees" true
    (Csh.absorbs_indexed idx (r [ ("a", bit1); ("c", Shape.Null) ]));
  check Alcotest.bool "a top's labels grow" false
    (Csh.absorbs_indexed idx (r [ ("a", int_); ("c", bool_) ]));
  let merges, n =
    counting_merges (fun () -> Csh.absorbs_indexed idx (r [ ("a", bit0) ]))
  in
  check Alcotest.bool "absorbed" true merges;
  check Alcotest.int "an absorbed record batch performs no merge" 0 n

(* the index is recursive: nested and nullable nested records are
   checked through their own tables *)
let test_absorbs_nested_index () =
  let inner fields = Shape.record "in" fields in
  let sigma =
    Shape.record "row"
      [
        ("a", int_);
        ("r", inner [ ("x", int_); ("y", Shape.Nullable string_) ]);
        ("o", Shape.Nullable (inner [ ("x", bool_) ]));
      ]
  in
  let idx = Csh.index sigma in
  let row fields = Shape.record "row" fields in
  let agree name expected d =
    check Alcotest.bool name expected (Csh.absorbs_indexed idx d);
    check Alcotest.bool (name ^ " (plain)") expected (Csh.absorbs sigma d)
  in
  agree "nested record absorbed" true
    (row [ ("a", bit0); ("r", inner [ ("x", int_) ]) ]);
  agree "nullable nested record absorbed" true
    (row
       [ ("a", int_); ("r", inner [ ("x", bit1) ]);
         ("o", Shape.Nullable (inner [ ("x", bool_) ])) ]);
  agree "nested required field absent" false
    (row [ ("a", int_); ("r", inner [ ("y", string_) ]) ]);
  agree "nested field widens" false
    (row [ ("a", int_); ("r", inner [ ("x", float_) ]) ]);
  agree "a nullable record under a record" false
    (row [ ("a", int_); ("r", Shape.Nullable (inner [ ("x", int_) ])) ]);
  let _, n =
    counting_merges (fun () ->
        Csh.absorbs_indexed idx
          (row [ ("a", int_); ("r", inner [ ("x", int_) ]);
                 ("o", inner [ ("x", bool_) ]) ]))
  in
  check Alcotest.int "nested records merge nothing" 0 n

let suite =
  [
    tc "rule (eq)" `Quick test_rule_eq;
    tc "rule (list)" `Quick test_rule_list;
    tc "rule (bot)" `Quick test_rule_bot;
    tc "rule (null)" `Quick test_rule_null;
    tc "rule (top)" `Quick test_rule_top;
    tc "rule (num) + Section 6.2 lattice" `Quick test_rule_num;
    tc "rule (opt)" `Quick test_rule_opt;
    tc "rule (recd) + row variables" `Quick test_rule_recd;
    tc "rule (any)" `Quick test_rule_any;
    tc "Figure 4 (top-merge)" `Quick test_top_merge;
    tc "Figure 4 (top-incl)" `Quick test_top_incl;
    tc "Figure 4 (top-add)" `Quick test_top_add;
    tc "hetero merge (Section 6.4)" `Quick test_hetero_merge;
    tc "csh_all fold" `Quick test_csh_all;
    QCheck_alcotest.to_alcotest prop_upper_bound;
    QCheck_alcotest.to_alcotest prop_least;
    QCheck_alcotest.to_alcotest prop_commutative;
    QCheck_alcotest.to_alcotest prop_idempotent;
    QCheck_alcotest.to_alcotest prop_associative_up_to_equiv;
    QCheck_alcotest.to_alcotest prop_monotone_join;
    QCheck_alcotest.to_alcotest prop_record_merge_matches_oracle;
    tc "absorbs: examples" `Quick test_absorbs_examples;
    tc "absorbs: nested records through the index" `Quick test_absorbs_nested_index;
    QCheck_alcotest.to_alcotest prop_absorbs_decides_equality;
    QCheck_alcotest.to_alcotest prop_absorbs_core_shapes;
  ]

(* Relative type safety (Section 5).

   - Lemma 2: for samples d and input d' with S(d') ⊑ S(d), the provided
     conversion reduces to a value, and every member of every provided
     object (recursively) reduces to a value. We test the stronger deep
     walk over the whole provided structure.
   - Theorem 3: random *op-free, Data-free* well-typed user programs over
     the provided type never get stuck on conforming inputs. The program
     generator builds boolean programs from member accesses, option/list
     matches, equality and conditionals — exactly the user fragment of the
     theorem statement.
   - Lemma 4 (preservation): every intermediate expression of the
     reduction sequence has the program's type.
   - Relativeness: a non-conforming input *does* get stuck, which is why
     the safety property is relative. *)

module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Infer = Fsdata_core.Infer
module P = Fsdata_core.Preference
module Provide = Fsdata_provider.Provide
open Fsdata_foo.Syntax
module TC = Fsdata_foo.Typecheck
module Eval = Fsdata_foo.Eval
open Generators

let tc = Alcotest.test_case

(* Deep walk: evaluate every member of every provided object reachable
   from the value; return an error description on any non-value outcome. *)
let rec walk classes (v : expr) (t : ty) : (unit, string) result =
  match t with
  | TInt | TFloat | TBool | TString | TDate | TData | TArrow _ -> Ok ()
  | TOption t' -> (
      match v with
      | ENone _ -> Ok ()
      | ESome v' -> walk classes v' t'
      | _ -> Error "option value expected")
  | TList t' ->
      let rec go = function
        | ENil _ -> Ok ()
        | ECons (x, rest) -> (
            match walk classes x t' with Ok () -> go rest | e -> e)
        | _ -> Error "list value expected"
      in
      go v
  | TClass c -> (
      match find_class classes c with
      | None -> Error ("unknown class " ^ c)
      | Some cls ->
          List.fold_left
            (fun acc (m : member_def) ->
              match acc with
              | Error _ -> acc
              | Ok () -> (
                  match Eval.eval classes (EMember (v, m.member_name)) with
                  | Eval.Value mv -> walk classes mv m.member_ty
                  | o ->
                      Error
                        (Fmt.str "member %s.%s: %a" c m.member_name
                           Eval.pp_outcome o)))
            (Ok ()) cls.members)

(* the conversion of [input] reduces to a value, and the deep walk from
   it succeeds *)
let walk_provided (p : Provide.t) input =
  match Eval.eval p.Provide.classes (Provide.apply p input) with
  | Eval.Value v -> walk p.Provide.classes v p.Provide.root_ty
  | o -> Error (Fmt.str "conversion: %a" Eval.pp_outcome o)

let provide_and_walk ~mode ~format samples input =
  walk_provided (Provide.provide ~format (Infer.shape_of_samples ~mode samples)) input

(* ----- Lemma 2 ----- *)

let prop_lemma2_paper =
  QCheck2.Test.make
    ~name:"Lemma 2 (core): provided code total on the samples" ~count:300
    ~print:(fun ds -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 4) gen_plain_data)
    (fun samples ->
      List.for_all
        (fun input ->
          provide_and_walk ~mode:`Paper ~format:`Json samples input = Ok ())
        samples)

let prop_lemma2_practical =
  QCheck2.Test.make
    ~name:"Lemma 2 (practical): full pipeline incl. bit/date/hetero"
    ~count:300
    ~print:(fun ds -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(list_size (int_range 1 4) gen_data)
    (fun samples ->
      (* Practical-mode shapes classify string literals, so runtime values
         take their normalized representation, as in the real library. *)
      List.for_all
        (fun input ->
          provide_and_walk ~mode:`Practical ~format:`Json samples
            (Fsdata_data.Primitive.normalize input)
          = Ok ())
        samples)

(* Inputs that are subshapes of the merged samples, not samples
   themselves: any sample of a *sublist* of the sample set conforms. *)
let prop_lemma2_sublist =
  QCheck2.Test.make
    ~name:"Lemma 2: inputs from any sample subset conform" ~count:200
    ~print:(fun (ds, _) -> String.concat " ; " (List.map print_data ds))
    QCheck2.Gen.(pair (list_size (int_range 2 4) gen_plain_data) (int_range 0 3))
    (fun (samples, idx) ->
      let input = List.nth samples (idx mod List.length samples) in
      let shape = Infer.shape_of_samples ~mode:`Paper samples in
      (* sanity: the premise S(input) ⊑ σ holds by Lemma 1 *)
      P.is_preferred (Infer.shape_of_value ~mode:`Paper input) shape
      && provide_and_walk ~mode:`Paper ~format:`Json samples input = Ok ())

(* ----- Theorem 3: random user programs ----- *)

(* Generate op-free, Data-free boolean programs over typed sources.
   Sources are (expr, ty) pairs the program may mention; the root source
   is the variable y bound to the provided value. *)
let gen_user_program classes (root_ty : ty) : expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let fresh =
    let n = ref 0 in
    fun base -> incr n; Printf.sprintf "%s%d" base !n
  in
  let rec gen_path sources fuel : (expr * ty) t =
    let* (e, t) = oneofl sources in
    if fuel <= 0 then return (e, t)
    else
      match t with
      | TClass c -> (
          match find_class classes c with
          | Some cls when cls.members <> [] ->
              let* m = oneofl cls.members in
              gen_path ((EMember (e, m.member_name), m.member_ty) :: sources) (fuel - 1)
          | _ -> return (e, t))
      | _ -> return (e, t)
  in
  let rec gen_bool sources fuel : expr t =
    let base =
      let* (e, t) = gen_path sources 3 in
      let* again = bool in
      if again then
        (* compare two paths of the same type when we can find one *)
        let* (e2, _) =
          let same = List.filter (fun (_, t') -> ty_equal t t') sources in
          if same = [] then return (e, t) else oneofl same
        in
        return (EEq (e, e2))
      else return (EEq (e, e))
    in
    if fuel <= 0 then base
    else
      let options =
        List.filter (fun (_, t) -> match t with TOption _ -> true | _ -> false) sources
      in
      let lists =
        List.filter (fun (_, t) -> match t with TList _ -> true | _ -> false) sources
      in
      frequency
        ([
           (3, base);
           ( 2,
             let* c = gen_bool sources (fuel - 1) in
             let* th = gen_bool sources (fuel - 1) in
             let* el = gen_bool sources (fuel - 1) in
             return (EIf (c, th, el)) );
         ]
        @ (if options = [] then []
           else
             [
               ( 2,
                 let* (e, t) = oneofl options in
                 let t' = match t with TOption t' -> t' | _ -> assert false in
                 let x = fresh "o" in
                 let* body = gen_bool ((EVar x, t') :: sources) (fuel - 1) in
                 let* none_branch = gen_bool sources (fuel - 1) in
                 return (EMatchOption (e, x, body, none_branch)) );
             ])
        @
        if lists = [] then []
        else
          [
            ( 2,
              let* (e, t) = oneofl lists in
              let t' = match t with TList t' -> t' | _ -> assert false in
              let h = fresh "h" and tl = fresh "t" in
              let* body = gen_bool ((EVar h, t') :: (EVar tl, t) :: sources) (fuel - 1) in
              let* nil_branch = gen_bool sources (fuel - 1) in
              return (EMatchList (e, h, tl, body, nil_branch)) );
          ])
  in
  gen_bool [ (EVar "y", root_ty) ] 4

let theorem3_gen =
  let open QCheck2.Gen in
  let* samples = list_size (int_range 1 3) gen_plain_data in
  let shape = Infer.shape_of_samples ~mode:`Paper samples in
  let p = Provide.provide ~format:`Json shape in
  let* program = gen_user_program p.Provide.classes p.Provide.root_ty in
  let* idx = int_range 0 (List.length samples - 1) in
  return (samples, List.nth samples idx, program)

let print_theorem3 (samples, input, program) =
  Fmt.str "samples: %s@.input: %s@.program: %a"
    (String.concat " ; " (List.map print_data samples))
    (print_data input) pp_expr program

let prop_theorem3 =
  QCheck2.Test.make
    ~name:"Theorem 3: user programs never get stuck on conforming inputs"
    ~count:400 ~print:print_theorem3 theorem3_gen
    (fun (samples, input, program) ->
      let shape = Infer.shape_of_samples ~mode:`Paper samples in
      let p = Provide.provide ~format:`Json shape in
      (* the program is well-typed user code: L; y:τ ⊢ e' : bool *)
      match TC.check p.Provide.classes [ ("y", p.Provide.root_ty) ] program TBool with
      | Error _ -> false (* generator bug: must produce well-typed code *)
      | Ok () -> (
          let whole = subst "y" (Provide.apply p input) program in
          match Eval.eval p.Provide.classes whole with
          | Eval.Value (EData (Dv.Bool _)) -> true
          | _ -> false))

let prop_preservation =
  QCheck2.Test.make
    ~name:"Lemma 4: every reduction step preserves the type" ~count:100
    ~print:print_theorem3 theorem3_gen
    (fun (samples, input, program) ->
      let shape = Infer.shape_of_samples ~mode:`Paper samples in
      let p = Provide.provide ~format:`Json shape in
      let whole = subst "y" (Provide.apply p input) program in
      let steps, outcome = Eval.trace ~fuel:3000 p.Provide.classes whole in
      match outcome with
      | Eval.Value _ ->
          List.for_all
            (fun e ->
              match TC.check p.Provide.classes [] e TBool with
              | Ok () -> true
              | Error _ -> false)
            steps
      | _ -> false)

(* ----- relativeness: non-conforming inputs do fail ----- *)

let test_nonconforming_stuck () =
  (* sample has main.temp a number; input replaces it with a string *)
  let sample =
    Dv.Record
      ( Dv.json_record_name,
        [ ("main", Dv.Record (Dv.json_record_name, [ ("temp", Dv.Int 5) ])) ] )
  in
  let bad =
    Dv.Record
      ( Dv.json_record_name,
        [ ("main", Dv.Record (Dv.json_record_name, [ ("temp", Dv.String "five") ])) ] )
  in
  let shape = Infer.shape_of_samples ~mode:`Paper [ sample ] in
  let p = Provide.provide ~format:`Json shape in
  (* premise fails: S(bad) ⋢ σ *)
  Alcotest.(check bool)
    "premise violated" false
    (P.is_preferred (Infer.shape_of_value ~mode:`Paper bad) shape);
  let prog = EMember (EMember (Provide.apply p bad, "Main"), "Temp") in
  match Eval.eval p.Provide.classes prog with
  | Eval.Stuck _ -> ()
  | o -> Alcotest.failf "expected stuck on bad input, got %a" Eval.pp_outcome o

let test_missing_required_field_stuck () =
  let sample = Dv.Record (Dv.json_record_name, [ ("name", Dv.String "x") ]) in
  let bad = Dv.Record (Dv.json_record_name, [ ("other", Dv.Int 1) ]) in
  let shape = Infer.shape_of_samples ~mode:`Paper [ sample ] in
  let p = Provide.provide ~format:`Json shape in
  let prog = EMember (Provide.apply p bad, "Name") in
  match Eval.eval p.Provide.classes prog with
  | Eval.Stuck _ -> ()
  | o -> Alcotest.failf "expected stuck, got %a" Eval.pp_outcome o

(* The safety bullets of Section 5, as unit tests. *)
let test_safety_bullets () =
  let samples = [ Dv.Record ("p", [ ("x", Dv.Float 1.5) ]) ] in
  let shape = Infer.shape_of_samples ~mode:`Paper samples in
  let p = Provide.provide ~format:`Json shape in
  (* "Input can contain smaller numerical values" *)
  let input = Dv.Record ("p", [ ("x", Dv.Int 3) ]) in
  (match Eval.eval p.Provide.classes (EMember (Provide.apply p input, "X")) with
  | Eval.Value (EData (Dv.Float 3.)) -> ()
  | o -> Alcotest.failf "int into float member: %a" Eval.pp_outcome o);
  (* "Records in the input can have additional fields" *)
  let input = Dv.Record ("p", [ ("x", Dv.Float 1.); ("extra", Dv.Bool true) ]) in
  (match Eval.eval p.Provide.classes (EMember (Provide.apply p input, "X")) with
  | Eval.Value (EData (Dv.Float 1.)) -> ()
  | o -> Alcotest.failf "extra fields: %a" Eval.pp_outcome o);
  (* "Records can have fewer fields ... provided the sample also contains
     records that do not have the field" *)
  let samples =
    [
      Dv.List
        [
          Dv.Record ("p", [ ("x", Dv.Int 1); ("y", Dv.Int 2) ]);
          Dv.Record ("p", [ ("x", Dv.Int 3) ]);
        ];
    ]
  in
  let shape = Infer.shape_of_samples ~mode:`Paper samples in
  let p = Provide.provide ~format:`Json shape in
  let input = Dv.List [ Dv.Record ("p", [ ("x", Dv.Int 9) ]) ] in
  (match
     Eval.eval p.Provide.classes
       (EMatchList (Provide.apply p input, "h", "t", EMember (EVar "h", "Y"), EExn))
   with
  | Eval.Value (ENone _) -> ()
  | o -> Alcotest.failf "fewer fields: %a" Eval.pp_outcome o);
  (* "When a labelled top type is inferred, the actual input can contain
     any other value" *)
  let samples = [ Dv.List [ Dv.Int 1; Dv.Bool true ] ] in
  let shape = Infer.shape_of_samples ~mode:`Paper samples in
  let p = Provide.provide ~format:`Json shape in
  let input = Dv.List [ Dv.String "unknown kind" ] in
  match
    Eval.eval p.Provide.classes
      (EMatchList (Provide.apply p input, "h", "t", EMember (EVar "h", "Number"), EExn))
  with
  | Eval.Value (ENone _) -> ()
  | o -> Alcotest.failf "open world: %a" Eval.pp_outcome o

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lemma2_paper;
    QCheck_alcotest.to_alcotest prop_lemma2_practical;
    QCheck_alcotest.to_alcotest prop_lemma2_sublist;
    QCheck_alcotest.to_alcotest prop_theorem3;
    QCheck_alcotest.to_alcotest prop_preservation;
    tc "relativeness: wrong primitive gets stuck" `Quick test_nonconforming_stuck;
    tc "relativeness: missing required field gets stuck" `Quick
      test_missing_required_field_stuck;
    tc "Section 5 safety bullets" `Quick test_safety_bullets;
  ]

(* Soak test: run the relative-safety pipeline (Lemma 2's deep walk over
   provided members) against large volumes of random sample sets — the
   long-haul version of the property tests in test/test_safety.ml.

   Usage: soak.exe [iterations] [seed]   (defaults: 50_000, 2016)

   Exits non-zero and prints the offending samples on the first violation.
   Useful before releases: the quick property runs cover hundreds of
   cases; this covers hundreds of thousands. *)

module Dv = Fsdata_data.Data_value
module Infer = Fsdata_core.Infer
module Provide = Fsdata_provider.Provide
open Fsdata_foo.Syntax
module Eval = Fsdata_foo.Eval
open QCheck2

(* a compact copy of the test-suite data generator *)
let field_names = [ "a"; "b"; "c"; "name"; "age"; "value"; "temp" ]
let record_names = [ Dv.json_record_name; "item"; "row"; "node" ]

let gen_data : Dv.t Gen.t =
  let open Gen in
  let gen_fields gen_value =
    let* mask = list_size (return (List.length field_names)) bool in
    let names =
      List.filteri (fun i _ -> List.nth mask i) field_names
      |> List.filteri (fun i _ -> i < 4)
    in
    let rec build acc = function
      | [] -> return (List.rev acc)
      | n :: rest ->
          let* v = gen_value in
          build ((n, v) :: acc) rest
    in
    build [] names
  in
  sized
  @@ fix (fun self size ->
         let primitive =
           oneof
             [
               return Dv.Null;
               (bool >|= fun b -> Dv.Bool b);
               (int_range (-1000) 1000 >|= fun i -> Dv.Int i);
               (float_range (-1e6) 1e6 >|= fun f -> Dv.Float f);
               (oneofl
                  [ ""; "x"; "2012-05-01"; "0"; "1"; "35.14"; "true"; "#N/A";
                    "May 3"; "text" ]
               >|= fun s -> Dv.String s);
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

(* evaluate every member of every provided object reachable from [v]
   on the Fig. 6 machine; an error names the first non-value outcome *)
let rec walk classes (v : expr) (t : ty) : (unit, string) result =
  match t with
  | TInt | TFloat | TBool | TString | TDate | TData | TArrow _ -> Ok ()
  | TOption t' -> (
      match v with
      | ENone _ -> Ok ()
      | ESome v' -> walk classes v' t'
      | _ -> Error "option expected")
  | TList t' ->
      let rec go = function
        | ENil _ -> Ok ()
        | ECons (x, rest) -> (
            match walk classes x t' with Ok () -> go rest | e -> e)
        | _ -> Error "list expected"
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
                        (Fmt.str "%s.%s: %a" c m.member_name Eval.pp_outcome o)))
            (Ok ()) cls.members)

let check_samples samples =
  let shape = Infer.shape_of_samples ~mode:`Practical samples in
  let p = Provide.provide ~format:`Json shape in
  List.find_map
    (fun input ->
      let input = Fsdata_data.Primitive.normalize input in
      match Eval.eval p.Provide.classes (Provide.apply p input) with
      | Eval.Value v -> (
          match walk p.Provide.classes v p.Provide.root_ty with
          | Ok () -> None
          | Error e -> Some (input, e))
      | o -> Some (input, Fmt.str "conversion: %a" Eval.pp_outcome o))
    samples

let () =
  let iterations =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 50_000
  in
  let seed =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 2016
  in
  let rand = Random.State.make [| seed |] in
  let gen = Gen.(list_size (int_range 1 4) gen_data) in
  let start = Unix.gettimeofday () in
  for i = 1 to iterations do
    let samples = Gen.generate1 ~rand gen in
    (match check_samples samples with
    | None -> ()
    | Some (input, error) ->
        Printf.printf "VIOLATION at iteration %d\n" i;
        List.iter (fun d -> Printf.printf "sample: %s\n" (Dv.to_string d)) samples;
        Printf.printf "input: %s\nerror: %s\n" (Dv.to_string input) error;
        exit 1);
    if i mod 10_000 = 0 then
      Printf.printf "  %d iterations, %.1f s, no violations\n%!" i
        (Unix.gettimeofday () -. start)
  done;
  Printf.printf "soak: %d sample sets walked, no safety violations (%.1f s)\n"
    iterations
    (Unix.gettimeofday () -. start)

(* Section 6.5 — stability of inference (Remark 1).

   "When a program fails on some input, the input can be added as another
   sample. This makes some fields optional and the code can be updated
   accordingly."

   We start from people.json, run a program that reads Age directly, then
   add a new sample in which age is missing more often and value shapes
   evolve (int -> float). The provided type changes in exactly the ways
   Remark 1 enumerates, and the program is repaired with the local rewrite
   (1): wrapping the access in an option match. *)

open Fsdata_provider
open Fsdata_runtime
module Infer = Fsdata_core.Infer
module Shape = Fsdata_core.Shape

let sample1 = {|[ { "name":"Jan", "age":25 } ]|}
let sample2 = {|[ { "name":"Tomas" }, { "name":"Alexander", "age":3.5 } ]|}

let () =
  let shape1 = Result.get_ok (Infer.of_json sample1) in
  let shape12 =
    (Result.get_ok
       (Infer.run Fsdata_data.Diagnostic.Strict Json (Samples [ sample1; sample2 ])))
      .Infer.shape
  in
  Format.printf "shape from sample 1:      %a@." Shape.pp shape1;
  Format.printf "shape from samples 1+2:   %a@." Shape.pp shape12;

  (* Program against the first provided type: item.Age is an int. *)
  let p1 = Provide.provide ~format:`Json shape1 in
  let item = List.hd (Typed.get_list (Typed.parse p1 sample1)) in
  Printf.printf "with sample 1 only:       age = %d\n"
    (Typed.get_int (Typed.member item "Age"));

  (* After adding sample 2 the same access needs the Remark 1 rewrites:
     rule (1) unwraps the new option, rule (3) converts the new float. *)
  let p2 = Provide.provide ~format:`Json shape12 in
  let item = List.hd (Typed.get_list (Typed.parse p2 sample1)) in
  (match Typed.get_option (Typed.member item "Age") with
  | Some age ->
      Printf.printf "with samples 1+2:         age = %d (via int(e))\n"
        (int_of_float (Typed.get_float age))
  | None -> print_endline "with samples 1+2:         age missing");

  print_newline ();
  print_endline (Signature.to_string ~root_name:"People" p2)

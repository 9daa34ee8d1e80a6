(* Shape inference as it stood before the fold skipped absorbed
   documents: [shape_of_samples] builds S(d) for every document and
   folds csh over the list, and a collection's per-tag groups join every
   element's shape. Kept verbatim as the oracle for the byte-identity
   properties in test_infer.ml. *)

open Fsdata_core
open Fsdata_data
module Obs_trace = Fsdata_obs.Trace
module Obs_metrics = Fsdata_obs.Metrics

type mode = [ `Paper | `Practical | `Xml ]

let m_samples = Obs_metrics.counter "infer.samples"

let classify_string s : Shape.t =
  match Primitive.classify s with
  | Primitive.Hint_null -> Null
  | Primitive.Hint_bit0 -> Primitive Bit0
  | Primitive.Hint_bit1 -> Primitive Bit1
  | Primitive.Hint_int -> Primitive Int
  | Primitive.Hint_float -> Primitive Float
  | Primitive.Hint_bool -> Primitive Bool
  | Primitive.Hint_date -> Primitive Date
  | Primitive.Hint_string -> Primitive String

let rec shape_of_value ?(mode : mode = `Practical) (d : Data_value.t) : Shape.t =
  match d with
  | Null -> Null
  | Bool _ -> Primitive Bool
  | Int _ -> Primitive Int
  | Float _ -> Primitive Float
  | String s -> (
      match mode with
      | `Paper -> Primitive String
      | `Practical | `Xml -> classify_string s)
  | List ds -> infer_collection ~mode ds
  | Record (name, fields) ->
      Shape.record name
        (List.map (fun (n, v) -> (n, shape_of_value ~mode v)) fields)

and infer_collection ~mode ds =
  let shapes = List.map (fun d -> shape_of_value ~mode d) ds in
  match mode with
  | `Paper ->
      (* Figure 3: S([d1; ...; dn]) = [S(d1, ..., dn)] *)
      Shape.collection (Csh.csh_all ~mode:`Core shapes)
  | (`Practical | `Xml) as mode ->
      (* Section 6.4: group element shapes by tag; per tag, join shapes
         and record the observed multiplicity. Element shapes produced by
         S are never nullable or tops, so same-tag joins preserve the tag
         and a single grouping pass suffices. *)
      let cmode = csh_mode mode in
      let groups : (Tag.t * (Shape.t * int)) list ref = ref [] in
      List.iter
        (fun s ->
          let t = Shape.tagof s in
          match List.assoc_opt t !groups with
          | Some (s0, n) ->
              groups :=
                (t, (Csh.csh ~mode:cmode s0 s, n + 1))
                :: List.remove_assoc t !groups
          | None -> groups := (t, (s, 1)) :: !groups)
        shapes;
      let pairs =
        List.rev_map (fun (_, (s, n)) -> (s, Multiplicity.of_count n)) !groups
      in
      let pairs =
        match (mode, pairs) with
        | `Xml, _ :: _ :: _ ->
            (* Section 2.2: several element kinds under one parent join
               into a single labelled-top entry — the Element type with
               optional members — rather than per-tag accessors. *)
            let shape = Csh.csh_all ~mode:cmode (List.map fst pairs) in
            (* at least two element kinds means at least two elements *)
            [ (shape, Multiplicity.Multiple) ]
        | _ -> pairs
      in
      if pairs = [] then Shape.collection Shape.Bottom else Shape.hetero pairs

and csh_mode : mode -> Csh.mode = function
  | `Paper -> `Core
  | `Practical -> `Hetero
  | `Xml -> `Xml

let shape_of_samples ?(mode : mode = `Practical) ds =
  Obs_trace.with_span "infer.samples" @@ fun () ->
  if Obs_metrics.enabled () then Obs_metrics.add m_samples (List.length ds);
  Csh.csh_all ~mode:(csh_mode mode)
    (List.map (fun d -> shape_of_value ~mode d) ds)

(* The engine's JSON [String] run as it stood before the sequential fold
   walked documents on their tokens: [Json.fold_many ~on_error] reads
   the whole text, quarantining each malformed document with the text it
   skipped, and the clean documents are folded as above. Answers the
   engine's error lines, or the shape, the total and the quarantine as
   (index, diagnostic, skipped text). *)
let run_json ?(mode : mode = `Practical) (budget : Diagnostic.budget) text =
  let faults = ref [] in
  let docs =
    Json.fold_many
      ~on_error:(fun d ~skipped -> faults := (d, skipped) :: !faults)
      (fun acc ds -> List.rev_append ds acc)
      [] text
    |> List.rev
  in
  let faults = List.rev !faults in
  let errors = List.length faults in
  let total = List.length docs + errors in
  match faults with
  | (d, _) :: _ when budget = Diagnostic.Strict ->
      Error (Diagnostic.message_of d)
  | [] when total = 0 -> Error "no JSON sample documents found"
  | (d, _) :: _ when not (Diagnostic.allows budget ~errors ~total) ->
      Error
        (Printf.sprintf
           "error budget exceeded: %d of %d samples malformed (budget %s); \
            first: %s"
           errors total
           (Diagnostic.budget_to_string budget)
           (Diagnostic.to_string d))
  | _ ->
      let quarantine =
        List.map
          (fun ((d : Diagnostic.t), skipped) ->
            (Option.get d.index, d, skipped))
          faults
      in
      Ok (shape_of_samples ~mode docs, total, quarantine)

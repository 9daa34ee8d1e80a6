open Fsdata_data
module Obs_trace = Fsdata_obs.Trace
module Obs_metrics = Fsdata_obs.Metrics

type mode = [ `Paper | `Practical | `Xml ]

(* Observability (docs/OBSERVABILITY.md). The three ingest counters
   reconcile by construction: [ingest.samples_total] is bumped exactly
   when either [ingest.samples_clean] or [ingest.samples_quarantined]
   is, at every per-sample isolation boundary of the tolerant drivers
   and at the driver entry of the strict ones. For CSV the unit of
   ingestion is the row, matching what the error budget counts. *)
let m_samples = Obs_metrics.counter "infer.samples"
let m_ingest_total = Obs_metrics.counter "ingest.samples_total"
let m_ingest_clean = Obs_metrics.counter "ingest.samples_clean"
let m_ingest_quarantined = Obs_metrics.counter "ingest.samples_quarantined"

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

let csh_mode : mode -> Csh.mode = function
  | `Paper -> `Core
  | `Practical -> `Hetero
  | `Xml -> `Xml

let is_paper : mode -> bool = function `Paper -> true | `Practical | `Xml -> false

(* Field order included, unlike [Shape.equal]; shapes hold no floats or
   closures, and [compare] skips physically shared subtrees. [Shape.equal]
   goes first because it tells records of different widths apart at
   once, and most merges that change σ add a field. *)
let same_representation (a : Shape.t) b =
  a == b || (Shape.equal a b && compare a b = 0)

(* The accumulator of the S(d1, ..., dn) fold (see infer.mli): σ, and
   its index once a merge has left σ as it was. *)
type fold = { mutable shape : Shape.t; mutable index : Csh.index option }

(* A group of same-tag elements of a collection (Section 6.4): its fold,
   its element count, and the position of its latest element. *)
type group = { tag : Tag.t; fold : fold; mutable count : int; mutable last : int }

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
  match mode with
  | `Paper ->
      (* Figure 3: S([d1; ...; dn]) = [S(d1, ..., dn)] *)
      Shape.collection (fold_samples ~mode ds)
  | (`Practical | `Xml) as mode ->
      (* Section 6.4: group element shapes by tag; per tag, join shapes
         and record the observed multiplicity. Element shapes produced by
         S are never nullable or tops, so same-tag joins preserve the tag
         and a single grouping pass suffices. A record or a collection
         is tagged without computing its shape, so that its group's fold
         can skip it when absorbed; a literal's shape is its tag. *)
      let groups = ref [] in
      List.iteri
        (fun i (d : Data_value.t) ->
          let tag, shape =
            match d with
            | Record (name, _) -> (Tag.Record name, None)
            | List _ -> (Tag.Collection, None)
            | _ ->
                let s = shape_of_value ~mode d in
                (Shape.tagof s, Some s)
          in
          match List.find_opt (fun g -> Tag.equal g.tag tag) !groups with
          | Some g -> (
              g.count <- g.count + 1;
              g.last <- i;
              match shape with
              | Some s -> merge ~mode g.fold s
              | None -> fold_value ~mode g.fold d)
          | None ->
              let shape =
                match shape with Some s -> s | None -> shape_of_value ~mode d
              in
              groups :=
                { tag; fold = { shape; index = None }; count = 1; last = i }
                :: !groups)
        ds;
      (* groups in the order of their latest element *)
      let pairs =
        List.sort (fun g h -> Int.compare g.last h.last) !groups
        |> List.map (fun g -> (g.fold.shape, Multiplicity.of_count g.count))
      in
      let pairs =
        match (mode, pairs) with
        | `Xml, _ :: _ :: _ ->
            (* Section 2.2: several element kinds under one parent join
               into a single labelled-top entry — the Element type with
               optional members — rather than per-tag accessors. *)
            let shape = Csh.csh_all ~mode:(csh_mode mode) (List.map fst pairs) in
            (* at least two element kinds means at least two elements *)
            [ (shape, Multiplicity.Multiple) ]
        | _ -> pairs
      in
      if pairs = [] then Shape.collection Shape.Bottom else Shape.hetero pairs

(* Whether [csh σ (shape_of_value ~mode d)] is σ, representation
   included, for σ = [Csh.indexed idx]: walks [d] instead of building
   its shape (see infer.mli). *)
and absorbs_value ~mode idx (d : Data_value.t) =
  match (Csh.indexed idx, d) with
  | ((Collection _ | Top _) as sigma), _ -> joins_to_itself ~mode sigma d
  | (Record _ | Nullable _), Record (name, fields) ->
      Csh.absorbs_record idx name fields (absorbs_value ~mode)
  | _, (Record _ | List _) -> false
  (* date ⊔ string = string, so a string σ needs no date parse *)
  | Primitive String, String s when not (is_paper mode) -> Primitive.is_text s
  | Nullable (Primitive String), String s when not (is_paper mode) ->
      Primitive.is_text s || Primitive.is_missing s
  | _, (Null | Bool _ | Int _ | Float _ | String _) ->
      (* S of a literal is a constant shape; nothing to build *)
      Csh.absorbs_indexed ~mode:(csh_mode mode) idx (shape_of_value ~mode d)

(* The fallback for a collection or top on σ's side: the join itself.
   It is compared by representation, not by [Shape.equal]: csh joins two
   nullable records right operand first, so a collection can come back
   equal to σ but with a record's fields reordered, and the fold must
   then take that order as the S(d)-then-csh fold does. *)
and joins_to_itself ~mode sigma d =
  let joined = Csh.csh ~mode:(csh_mode mode) sigma (shape_of_value ~mode d) in
  same_representation joined sigma

(* One step of the fold: skip [d] when the index says σ absorbs it,
   otherwise merge S(d). *)
and fold_value ~mode acc d =
  match acc.index with
  | Some idx when absorbs_value ~mode idx d -> ()
  | _ -> merge ~mode acc (shape_of_value ~mode d)

(* csh is the least upper bound (Lemma 1), so a merge either grows σ or
   leaves it equal. When it leaves σ as it was σ is kept physically and
   indexed; otherwise the merge is the new σ and the index goes with
   the old one. *)
and merge ~mode acc s =
  let merged = Csh.csh ~mode:(csh_mode mode) acc.shape s in
  if not (same_representation merged acc.shape) then begin
    acc.shape <- merged;
    acc.index <- None
  end
  else if Option.is_none acc.index then acc.index <- Some (Csh.index acc.shape)

and fold_samples ~mode ds =
  let acc = { shape = Shape.Bottom; index = None } in
  List.iter (fold_value ~mode acc) ds;
  acc.shape

let absorbs_value ?(mode : mode = `Practical) idx d = absorbs_value ~mode idx d

let shape_of_samples ?(mode : mode = `Practical) ds =
  Obs_trace.with_span "infer.samples" @@ fun () ->
  if Obs_metrics.enabled () then Obs_metrics.add m_samples (List.length ds);
  fold_samples ~mode ds

(* ----- Fault-tolerant inference ----- *)

type quarantined = {
  q_index : int;
  q_diagnostic : Diagnostic.t;
  q_text : string option;
}

type report = {
  shape : Shape.t;
  total : int;
  quarantined : quarantined list;
}

let sort_quarantined qs =
  List.stable_sort (fun a b -> Int.compare a.q_index b.q_index) qs

let budget_error ~budget ~total qs =
  match qs with
  | [] -> None
  | first :: _ ->
      let errors = List.length qs in
      if Diagnostic.allows budget ~errors ~total then None
      else
        Some
          (Printf.sprintf
             "error budget exceeded: %d of %d samples malformed (budget %s); \
              first: %s"
             errors total
             (Diagnostic.budget_to_string budget)
             (Diagnostic.to_string first.q_diagnostic))

let shape_of_sample ~mode ~format ~index ~parse text =
  (* Anything a sample does wrong — a parse fault, or an unexpected
     exception escaping parsing or inference — becomes a diagnostic
     attributed to that sample, never an exception for the caller. *)
  Obs_metrics.incr m_ingest_total;
  let quarantined d =
    Obs_metrics.incr m_ingest_quarantined;
    Error d
  in
  match Result.map (shape_of_value ~mode) (parse text) with
  | Ok _ as ok ->
      Obs_metrics.incr m_ingest_clean;
      Obs_metrics.incr m_samples;
      ok
  | Error d -> quarantined (Diagnostic.with_index index d)
  | exception Diagnostic.Parse_error d ->
      quarantined (Diagnostic.with_index index d)
  | exception exn ->
      quarantined
        (Diagnostic.make ~index ~format ~line:1 ~column:0
           ("unexpected error: " ^ Printexc.to_string exn))

let samples_tolerant ?(cancel = Cancel.never) ~mode ~format ~parse ~budget texts
    =
  let qs = ref [] in
  let shapes = ref [] in
  List.iteri
    (fun i t ->
      (* Polled outside {!shape_of_sample}: that function converts every
         exception into a per-sample diagnostic, which would silently
         swallow [Cancelled] as a quarantine entry. *)
      Cancel.check cancel;
      match shape_of_sample ~mode ~format ~index:i ~parse t with
      | Ok s -> shapes := s :: !shapes
      | Error d -> qs := { q_index = i; q_diagnostic = d; q_text = Some t } :: !qs)
    texts;
  let total = List.length texts in
  let qs = List.rev !qs in
  match budget_error ~budget ~total qs with
  | Some msg -> Error msg
  | None ->
      Ok
        {
          shape = Csh.csh_all ~mode:(csh_mode mode) (List.rev !shapes);
          total;
          quarantined = qs;
        }

let of_json_samples_tolerant ?cancel ?(mode : mode = `Practical) ~budget texts =
  samples_tolerant ?cancel ~mode ~format:Diagnostic.Json ~parse:Json.parse_diag
    ~budget texts

let of_xml_samples_tolerant ?cancel ?(mode : mode = `Xml) ~budget texts =
  let parse t =
    Result.map (Xml.to_data ~convert_primitives:false) (Xml.parse_diag t)
  in
  samples_tolerant ?cancel ~mode ~format:Diagnostic.Xml ~parse ~budget texts

let of_json_tolerant ?cancel ?(mode : mode = `Practical) ~budget src =
  Obs_trace.with_span "infer.stream" @@ fun () ->
  let qs = ref [] in
  let on_error (d : Diagnostic.t) ~skipped =
    Obs_metrics.incr m_ingest_total;
    Obs_metrics.incr m_ingest_quarantined;
    let index = match d.Diagnostic.index with Some i -> i | None -> 0 in
    qs := { q_index = index; q_diagnostic = d; q_text = Some skipped } :: !qs
  in
  let shape, parsed =
    Json.fold_many ?cancel ~on_error
      (fun (acc, n) ds ->
        let k = List.length ds in
        if Obs_metrics.enabled () then begin
          Obs_metrics.add m_ingest_total k;
          Obs_metrics.add m_ingest_clean k
        end;
        (Csh.csh ~mode:(csh_mode mode) acc (shape_of_samples ~mode ds), n + k))
      (Shape.Bottom, 0) src
  in
  let qs = List.rev !qs in
  let total = parsed + List.length qs in
  if total = 0 then Error "no JSON sample documents found"
  else
    match budget_error ~budget ~total qs with
    | Some msg -> Error msg
    | None -> Ok { shape; total; quarantined = qs }

let of_json_feed_tolerant ?cancel ?(mode : mode = `Practical) ~budget feed =
  Obs_trace.with_span "infer.stream" @@ fun () ->
  let qs = ref [] in
  let on_error (d : Diagnostic.t) ~skipped =
    Obs_metrics.incr m_ingest_total;
    Obs_metrics.incr m_ingest_quarantined;
    let index = match d.Diagnostic.index with Some i -> i | None -> 0 in
    qs := { q_index = index; q_diagnostic = d; q_text = Some skipped } :: !qs
  in
  let cur = Json.Cursor.create ?cancel ~on_error () in
  let acc = ref Shape.Bottom and parsed = ref 0 in
  let fold ds =
    match ds with
    | [] -> ()
    | ds ->
        let k = List.length ds in
        if Obs_metrics.enabled () then begin
          Obs_metrics.add m_ingest_total k;
          Obs_metrics.add m_ingest_clean k
        end;
        acc := Csh.csh ~mode:(csh_mode mode) !acc (shape_of_samples ~mode ds);
        parsed := !parsed + k
  in
  feed (fun fragment -> fold (Json.Cursor.feed cur fragment));
  fold (Json.Cursor.finish cur);
  let qs = List.rev !qs in
  let total = !parsed + List.length qs in
  if total = 0 then Error "no JSON sample documents found"
  else
    match budget_error ~budget ~total qs with
    | Some msg -> Error msg
    | None -> Ok { shape = !acc; total; quarantined = qs }

let of_csv_tolerant ?(cancel = Cancel.never) ?separator ?has_headers ~budget src
    =
  Obs_trace.with_span "infer.stream" @@ fun () ->
  let qs = ref [] in
  let on_error (d : Diagnostic.t) ~skipped =
    Obs_metrics.incr m_ingest_total;
    Obs_metrics.incr m_ingest_quarantined;
    let index = match d.Diagnostic.index with Some i -> i | None -> 0 in
    qs := { q_index = index; q_diagnostic = d; q_text = Some skipped } :: !qs
  in
  Cancel.check cancel;
  match Csv.parse_tolerant ?separator ?has_headers ~on_error src with
  | Error d -> Error (Diagnostic.message_of d)
  | Ok table ->
      if Obs_metrics.enabled () then begin
        let k = List.length table.Csv.rows in
        Obs_metrics.add m_ingest_total k;
        Obs_metrics.add m_ingest_clean k
      end;
      let qs = List.rev !qs in
      let total = List.length table.Csv.rows + List.length qs in
      (match budget_error ~budget ~total qs with
      | Some msg -> Error msg
      | None ->
          Ok
            {
              shape =
                shape_of_value ~mode:`Practical
                  (Csv.to_data ~convert_primitives:false table);
              total;
              quarantined = qs;
            })

(* ----- Format entry points ----- *)

let of_json_samples ?mode samples =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match Json.parse_result s with
        | Ok d -> parse (d :: acc) rest
        | Error _ as e -> e)
  in
  match parse [] samples with
  | Ok ds -> Ok (shape_of_samples ?mode ds)
  | Error e -> Error e

let of_json ?mode src =
  Obs_trace.with_span "infer.stream" @@ fun () ->
  match Json.parse_many src with
  | [] -> Error "no JSON sample documents found"
  | ds ->
      if Obs_metrics.enabled () then begin
        let k = List.length ds in
        Obs_metrics.add m_ingest_total k;
        Obs_metrics.add m_ingest_clean k
      end;
      Ok (shape_of_samples ?mode ds)
  | exception Json.Parse_error { line; column; message } ->
      Error
        (Printf.sprintf "JSON parse error at line %d, column %d: %s" line column
           message)

let of_xml_samples ?(mode : mode = `Xml) samples =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match Xml.parse_result s with
        | Ok tree ->
            (* Inference classifies the raw attribute/body strings itself,
               so keep them unconverted here. *)
            parse (Xml.to_data ~convert_primitives:false tree :: acc) rest
        | Error m -> Error m)
  in
  match parse [] samples with
  | Ok ds -> Ok (shape_of_samples ~mode ds)
  | Error e -> Error e

let of_xml ?mode src = of_xml_samples ?mode [ src ]

let of_csv ?separator ?has_headers src =
  match Csv.parse_result ?separator ?has_headers src with
  | Error _ as e -> e
  | Ok table ->
      if Obs_metrics.enabled () then begin
        let k = List.length table.Csv.rows in
        Obs_metrics.add m_ingest_total k;
        Obs_metrics.add m_ingest_clean k
      end;
      let data = Csv.to_data ~convert_primitives:false table in
      Ok (shape_of_value ~mode:`Practical data)

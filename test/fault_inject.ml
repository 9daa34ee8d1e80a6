(* Fault-injection corpus generator for the robustness suite.

   Starting from a clean generated corpus, a chosen subset of documents
   is corrupted with faults that are unparseable *by construction*, and
   the corpus remembers which indices were hit — so properties can state
   the quarantine contract exactly: tolerant inference over the faulty
   corpus must equal strict inference over the clean subset, and the
   quarantined indices must be precisely the corrupted ones. *)

module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
module Xml = Fsdata_data.Xml
open QCheck2

(* ----- JSON faults (with the generators, which draw faulty texts) ----- *)

include Generators.Json_fault

(* ----- XML faults ----- *)

type xml_fault =
  | Xml_truncated  (** drop the final '>': unterminated tag *)
  | Xml_unclosed  (** wrap in an opening tag that is never closed *)
  | Xml_invalid_utf8

let all_xml_faults = [ Xml_truncated; Xml_unclosed; Xml_invalid_utf8 ]

let corrupt_xml fault text =
  match fault with
  | Xml_truncated -> String.sub text 0 (String.rindex text '>')
  | Xml_unclosed -> "<unclosed>" ^ text
  | Xml_invalid_utf8 -> "\xff\xfe" ^ text

(* ----- Corpora ----- *)

type corpus = {
  texts : string list;  (** the corpus as ingested, faults included *)
  clean : string list;  (** the documents left untouched, in order *)
  faulty : int list;  (** global indices of corrupted documents, ascending *)
}

let print_corpus c =
  Printf.sprintf "faulty=[%s]\n%s"
    (String.concat "," (List.map string_of_int c.faulty))
    (String.concat "\n" c.texts)

let gen_list gens =
  List.fold_right
    (fun g acc -> Gen.map2 (fun x xs -> x :: xs) g acc)
    gens (Gen.return [])

(* Mark roughly a third of the documents with a fault drawn from
   [faults]; build the corrupted corpus, the clean subset, and the list
   of corrupted indices. *)
let mark_and_corrupt ~faults ~corrupt_with texts =
  let open Gen in
  let* marks =
    gen_list
      (List.map
         (fun t ->
           let* f =
             frequency
               [ (2, return None); (1, map Option.some (oneofl faults)) ]
           in
           return (t, f))
         texts)
  in
  let texts =
    List.map (fun (t, f) -> Option.fold ~none:t ~some:(fun f -> corrupt_with f t) f) marks
  in
  let clean = List.filter_map (fun (t, f) -> if f = None then Some t else None) marks in
  let faulty =
    List.mapi (fun i (_, f) -> if f = None then None else Some i) marks
    |> List.filter_map Fun.id
  in
  return { texts; clean; faulty }

let gen_corpus ?(faults = all_faults) () : corpus Gen.t =
  let open Gen in
  let* docs = list_size (int_range 1 14) Generators.gen_data in
  mark_and_corrupt ~faults ~corrupt_with:corrupt (List.map doc_text docs)

let gen_xml_corpus ?(faults = all_xml_faults) () : corpus Gen.t =
  let open Gen in
  let* docs = list_size (int_range 1 10) Generators.gen_xml_tree in
  mark_and_corrupt ~faults ~corrupt_with:corrupt_xml
    (List.map Xml.to_string docs)

(* ----- Ragged CSV ----- *)

(* A rectangular CSV source with extra cells appended to the rows whose
   0-based data-row indices appear in [ragged]. *)
let ragged_csv ~headers ~rows ~ragged =
  let line cells = String.concat "," cells in
  let body =
    List.mapi
      (fun i cells ->
        if List.mem i ragged then line (cells @ [ "extra" ]) else line cells)
      rows
  in
  String.concat "\n" (line headers :: body) ^ "\n"

(* ----- Parseable deviations (compiled-parser fallback) ----- *)

(* Byte-for-byte diagnostic equality: the parity properties for the
   compiled parsers assert that the fallback/quarantine reports carry
   *identical* fields to the interpreted path, not merely the same
   indices. *)
let diag_equal (a : Fsdata_data.Diagnostic.t) (b : Fsdata_data.Diagnostic.t) =
  a.format = b.format && a.line = b.line && a.column = b.column
  && a.index = b.index && a.severity = b.severity
  && String.equal a.message b.message

(* A corruption that keeps the document *parseable*: the wrapper's value
   is swapped for a marker record no clean subset infers. A decoder
   compiled from the clean subset's shape must treat such a document as
   data — falling back to the generic path with a conformance
   diagnostic — never as a fault eating into the error budget. *)
let miscast _text = {|{"v": {"deviant": [1, "two", null]}}|}

type mixed_corpus = {
  m_texts : string list;  (** the corpus as ingested *)
  m_clean : string list;  (** untouched documents, in order *)
  m_deviant : int list;  (** parseable but value swapped: fallback *)
  m_malformed : int list;  (** unparseable (stream-safe): quarantine *)
}

let print_mixed_corpus m =
  Printf.sprintf "deviant=[%s] malformed=[%s]\n%s"
    (String.concat "," (List.map string_of_int m.m_deviant))
    (String.concat "," (List.map string_of_int m.m_malformed))
    (String.concat "\n" m.m_texts)

(* Like [mark_and_corrupt], but with three outcomes per document; the
   malformed ones use the stream-safe faults so resynchronization skips
   exactly the corrupted document. *)
let gen_mixed_corpus () : mixed_corpus Gen.t =
  let open Gen in
  let* docs = list_size (int_range 1 14) Generators.gen_data in
  let texts = List.map doc_text docs in
  let* marks =
    gen_list
      (List.map
         (fun t ->
           let* m =
             frequency
               [
                 (3, return `Clean);
                 (1, return `Deviant);
                 (1, map (fun f -> `Malformed f) (oneofl stream_safe_faults));
               ]
           in
           return (t, m))
         texts)
  in
  let m_texts =
    List.map
      (fun (t, m) ->
        match m with
        | `Clean -> t
        | `Deviant -> miscast t
        | `Malformed f -> corrupt f t)
      marks
  in
  let m_clean =
    List.filter_map (fun (t, m) -> if m = `Clean then Some t else None) marks
  in
  let indices_of p =
    List.mapi (fun i (_, m) -> if p m then Some i else None) marks
    |> List.filter_map Fun.id
  in
  return
    {
      m_texts;
      m_clean;
      m_deviant = indices_of (fun m -> m = `Deviant);
      m_malformed = indices_of (function `Malformed _ -> true | _ -> false);
    }

module Xml = Fsdata_data.Xml

type body =
  | Body_none
  | Body_primitive of Shape.t
  | Body_children of (string * Multiplicity.t) list

type element_signature = {
  element_name : string;
  attributes : (string * Shape.t) list;
  body : body;
}

type t = { root : string; elements : element_signature list }

(* One occurrence of an element in a sample. *)
type occurrence = {
  occ_attrs : (string * Shape.t) list;
  occ_body : body;
}

let occurrence_of (tree : Xml.tree) : occurrence =
  let occ_attrs =
    List.map (fun (k, v) -> (k, Infer.classify_string v)) tree.Xml.attributes
  in
  let children =
    List.filter_map
      (function Xml.Element e -> Some e.Xml.name | _ -> None)
      tree.Xml.children
  in
  let occ_body =
    match children with
    | [] ->
        let text = String.trim (Xml.text_content tree) in
        if text = "" then Body_none else Body_primitive (Infer.classify_string text)
    | names ->
        let counts = Hashtbl.create 8 in
        List.iter
          (fun n ->
            Hashtbl.replace counts n (1 + Option.value ~default:0 (Hashtbl.find_opt counts n)))
          names;
        Body_children
          (Hashtbl.fold (fun n c acc -> (n, Multiplicity.of_count c) :: acc) counts []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b))
  in
  { occ_attrs; occ_body }

let merge_attrs a1 a2 =
  (* like record-field merging in csh: common attributes join, one-sided
     attributes become nullable *)
  Fields.join ~both:(Csh.csh ~mode:`Xml) ~one:(Csh.csh ~mode:`Xml Shape.Null)
    a1 a2

let merge_children c1 c2 =
  let names =
    List.sort_uniq String.compare (List.map fst c1 @ List.map fst c2)
  in
  List.map
    (fun n ->
      match (List.assoc_opt n c1, List.assoc_opt n c2) with
      | Some m1, Some m2 -> (n, Multiplicity.lub m1 m2)
      | Some m, None | None, Some m -> (n, Multiplicity.widen_absent m)
      | None, None -> assert false)
    names

let merge_body b1 b2 =
  match (b1, b2) with
  | Body_none, b | b, Body_none -> (
      (* an empty occurrence weakens the others: text becomes nullable,
         children's multiplicities widen *)
      match b with
      | Body_none -> Body_none
      | Body_primitive s -> Body_primitive (Csh.csh ~mode:`Xml Shape.Null s)
      | Body_children cs ->
          Body_children
            (List.map (fun (n, m) -> (n, Multiplicity.widen_absent m)) cs))
  | Body_primitive s1, Body_primitive s2 ->
      Body_primitive (Csh.csh ~mode:`Xml s1 s2)
  | Body_children c1, Body_children c2 -> Body_children (merge_children c1 c2)
  | Body_children cs, Body_primitive _ | Body_primitive _, Body_children cs ->
      (* mixed across occurrences: element content wins, text is not
         exposed (Section 6.3) *)
      Body_children (List.map (fun (n, m) -> (n, Multiplicity.widen_absent m)) cs)

let merge_occurrence table name (occ : occurrence) =
  match Hashtbl.find_opt table name with
  | None -> Hashtbl.replace table name occ
  | Some prev ->
      Hashtbl.replace table name
        {
          occ_attrs = merge_attrs prev.occ_attrs occ.occ_attrs;
          occ_body = merge_body prev.occ_body occ.occ_body;
        }

let rec collect table (tree : Xml.tree) =
  merge_occurrence table tree.Xml.name (occurrence_of tree);
  List.iter
    (function Xml.Element e -> collect table e | _ -> ())
    tree.Xml.children

let of_table root table =
  let elements =
    Hashtbl.fold
      (fun name (occ : occurrence) acc ->
        { element_name = name; attributes = occ.occ_attrs; body = occ.occ_body }
        :: acc)
      table []
    |> List.sort (fun a b -> String.compare a.element_name b.element_name)
  in
  { root; elements }

let infer tree =
  let table = Hashtbl.create 16 in
  collect table tree;
  of_table tree.Xml.name table

(* Several samples; their roots must agree. An empty list is an error. *)
let infer_many trees =
  match trees with
  | [] -> Error "global XML inference: no samples"
  | first :: _ ->
      let roots = List.sort_uniq String.compare (List.map (fun t -> t.Xml.name) trees) in
      if List.length roots > 1 then
        Error
          (Printf.sprintf "global XML inference: samples have different roots (%s)"
             (String.concat ", " roots))
      else begin
        let table = Hashtbl.create 16 in
        List.iter (collect table) trees;
        Ok (of_table first.Xml.name table)
      end

let of_strings sources =
  let rec parse acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match Xml.parse_result s with
        | Ok t -> parse (t :: acc) rest
        | Error e -> Error e)
  in
  match parse [] sources with
  | Error e -> Error e
  | Ok trees -> infer_many trees

let find t name =
  List.find_opt (fun e -> String.equal e.element_name name) t.elements

let pp_body ppf = function
  | Body_none -> Fmt.string ppf "empty"
  | Body_primitive s -> Shape.pp ppf s
  | Body_children cs ->
      Fmt.pf ppf "[@[<hov>%a@]]"
        Fmt.(
          list ~sep:(any " |@ ") (fun ppf (n, m) ->
              Fmt.pf ppf "%s, %a" n Multiplicity.pp m))
        cs

let pp ppf t =
  Fmt.pf ppf "@[<v>root: %s@ %a@]" t.root
    Fmt.(
      list ~sep:(any "@ ") (fun ppf e ->
          Fmt.pf ppf "@[<hov 2>%s {%a} \xe2\x86\x92 %a@]" e.element_name
            Fmt.(
              list ~sep:(any ",@ ") (fun ppf (n, s) ->
                  Fmt.pf ppf "%s: %a" n Shape.pp s))
            e.attributes pp_body e.body))
    t.elements

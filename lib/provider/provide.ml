open Fsdata_foo.Syntax
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity
module Tag = Fsdata_core.Tag
module Infer = Fsdata_core.Infer
module Dv = Fsdata_data.Data_value

type format = [ `Json | `Xml | `Csv ]

type t = {
  root_ty : ty;
  conv : expr;
  classes : class_env;
  shape : Shape.t;
  format : format;
}

(* Type of a provided member given the entry's multiplicity. *)
let mult_ty mult ty =
  match mult with
  | Mult.Single -> ty
  | Mult.Optional_single -> TOption ty
  | Mult.Multiple -> TList ty

let is_anonymous_record_name n =
  String.equal n Dv.json_record_name || String.equal n Dv.csv_record_name

(* An XML element that carries nothing but a primitive body is provided as
   the primitive itself (Section 6.3: <item>Hello!</item> gives
   Root.Item : string, not a one-member class). *)
let xml_collapsible (r : Shape.record) =
  match r.fields with
  | [ (f, (Shape.Primitive _ | Shape.Nullable (Shape.Primitive _))) ]
    when String.equal f Dv.body_field ->
      Some (List.assoc f r.fields)
  | _ -> None

(* Observability (docs/OBSERVABILITY.md): one [provide] span and one
   [provide.runs] bump per shape→class-hierarchy translation;
   [provide.classes] accumulates how many classes those runs emitted.
   Global XML provision wraps its whole element-table walk instead,
   since it builds classes outside {!provide}. *)
let m_runs = Fsdata_obs.Metrics.counter "provide.runs"
let m_classes = Fsdata_obs.Metrics.counter "provide.classes"

let provide ?(format : format = `Json) ?(root_name = "Root") ?pool shape =
  Fsdata_obs.Trace.with_span "provide" @@ fun () ->
  Fsdata_obs.Metrics.incr m_runs;
  let pool = match pool with Some p -> p | None -> Naming.create_pool () in
  let classes = ref [] in
  let add_class c = classes := c :: !classes in
  let fresh_class hint = Naming.fresh pool (Naming.pascal_case hint) in
  let elem_hint ~root hint =
    let sing = Naming.singularize hint in
    if not (String.equal sing hint) then sing
    else if root then (match format with `Csv -> "Row" | _ -> "Entity")
    else "Item"
  in

  let rec go ~hint ~root (s : Shape.t) : ty * expr =
    match s with
    | Primitive Shape.Int ->
        (TInt, lam "x" TData (EOp (ConvPrim (s, EVar "x"))))
    | Primitive Shape.String ->
        (TString, lam "x" TData (EOp (ConvPrim (s, EVar "x"))))
    | Primitive Shape.Bool ->
        (* convBool rather than the paper's convPrim(bool): with the
           Section 6.2 bit shape, bit ⊑ bool lets 0/1 data reach bool
           members, and the conversion must accept it (F# Data's
           AsBoolean does). *)
        (TBool, lam "x" TData (EOp (ConvBool (EVar "x"))))
    | Primitive Shape.Float ->
        (TFloat, lam "x" TData (EOp (ConvFloat (s, EVar "x"))))
    | Primitive (Shape.Bit0 | Shape.Bit1) ->
        (* a lone 0 (or 1) reads as the integer it is (Root.Id : int) *)
        (TInt, lam "x" TData (EOp (ConvPrim (Primitive Shape.Int, EVar "x"))))
    | Primitive Shape.Bit -> (TBool, lam "x" TData (EOp (ConvBool (EVar "x"))))
    | Primitive Shape.Date -> (TDate, lam "x" TData (EOp (ConvDate (EVar "x"))))
    | Bottom | Null ->
        (* ⟦⊥⟧ = ⟦null⟧ = an opaque class holding the raw value. *)
        let name = fresh_class hint in
        add_class { class_name = name; ctor_params = [ ("v", TData) ]; members = [] };
        (TClass name, lam "x" TData (ENew (name, [ EVar "x" ])))
    | Nullable p ->
        let ty, conv = go ~hint ~root:false p in
        (TOption ty, lam "x" TData (EOp (ConvNull (EVar "x", conv))))
    | Record r -> (
        match if format = `Xml && not root then xml_collapsible r else None with
        | Some body_shape ->
            let ty, conv = go ~hint ~root:false body_shape in
            ( ty,
              lam "x" TData
                (EOp (ConvField (r.name, Dv.body_field, EVar "x", conv))) )
        | None -> provide_record ~hint r)
    | Collection entries -> provide_collection ~hint ~root entries
    | Top labels -> provide_top ~hint labels

  and provide_record ~hint (r : Shape.record) =
    let class_hint =
      if format = `Xml || not (is_anonymous_record_name r.name) then r.name
      else hint
    in
    let name = fresh_class class_hint in
    let member_pool = Naming.create_pool () in
    let members =
      List.map
        (fun (field, field_shape) ->
          match
            if format = `Xml && String.equal field Dv.body_field then
              xml_body_member ~parent:r ~member_pool field_shape
            else None
          with
          | Some m -> m
          | None ->
              let provided = Naming.fresh member_pool (Naming.pascal_case field) in
              let ty, conv = go ~hint:field ~root:false field_shape in
              {
                member_name = provided;
                member_ty = ty;
                member_body = EOp (ConvField (r.name, field, EVar "x1", conv));
              })
        r.fields
    in
    add_class { class_name = name; ctor_params = [ ("x1", TData) ]; members };
    (TClass name, lam "x" TData (ENew (name, [ EVar "x" ])))

  (* Section 6.2/6.3: the member generated for an XML element body. *)
  and xml_body_member ~parent ~member_pool (body : Shape.t) =
    match body with
    | Collection [ entry ] when entry.shape <> Shape.Null ->
        let base_name =
          match entry.shape with
          | Shape.Record er ->
              (* a repeated element member pluralizes: <item>s give Items *)
              let n = Naming.pascal_case er.name in
              if entry.mult = Mult.Multiple then Naming.pluralize n else n
          | Shape.Top _ ->
              (* mixed elements: named after the parent (root.Doc, §2.2) *)
              Naming.pascal_case parent.Shape.name
          | other -> Tag.to_member_name (Shape.tagof other)
        in
        let provided = Naming.fresh member_pool base_name in
        let ty, conv = go ~hint:base_name ~root:false entry.shape in
        Some
          {
            member_name = provided;
            member_ty = mult_ty entry.mult ty;
            member_body =
              EOp
                (ConvField
                   ( parent.Shape.name,
                     Dv.body_field,
                     EVar "x1",
                     lam "b" TData
                       (EOp (ConvSelect (entry.shape, entry.mult, EVar "b", conv)))
                   ));
          }
    | _ -> None

  and provide_collection ~hint ~root entries =
    let non_null =
      List.filter (fun (e : Shape.entry) -> e.shape <> Shape.Null) entries
    in
    let has_null =
      List.exists (fun (e : Shape.entry) -> e.shape = Shape.Null) entries
    in
    match non_null with
    | [] ->
        (* ⟦[⊥]⟧ (or a collection of nulls): a list of the opaque class. *)
        let ty, conv = go ~hint:(elem_hint ~root hint) ~root:false Shape.Bottom in
        (TList ty, lam "x" TData (EOp (ConvElements (EVar "x", conv))))
    | [ f ] ->
        (* Homogeneous: ⟦[σ]⟧ = list ⟦σ⟧ via convElements; null elements in
           the samples make the element conversion optional — explicitly
           via convNull, because for collection- and top-shaped elements
           ⌈σ⌉ = σ and the nullability would otherwise be lost. *)
        let hint = elem_hint ~root hint in
        if has_null then begin
          match Shape.nullable f.shape with
          | Shape.Nullable _ as elem ->
              let ty, conv = go ~hint ~root:false elem in
              (TList ty, lam "x" TData (EOp (ConvElements (EVar "x", conv))))
          | _ ->
              let ty, conv = go ~hint ~root:false f.shape in
              ( TList (TOption ty),
                lam "x" TData
                  (EOp
                     (ConvElements
                        ( EVar "x",
                          lam "y" TData (EOp (ConvNull (EVar "y", conv))) ))) )
        end
        else
          let ty, conv = go ~hint ~root:false f.shape in
          (TList ty, lam "x" TData (EOp (ConvElements (EVar "x", conv))))
    | consumers ->
        (* Heterogeneous (Section 6.4): a class with a member per entry,
           named by the entry's tag, selecting matching elements with a
           runtime shape test. *)
        let name = fresh_class hint in
        let member_pool = Naming.create_pool () in
        let members =
          List.map
            (fun (e : Shape.entry) ->
              let base = Naming.pascal_case (Tag.to_member_name (Shape.tagof e.shape)) in
              let provided = Naming.fresh member_pool base in
              let ty, conv = go ~hint:provided ~root:false e.shape in
              {
                member_name = provided;
                member_ty = mult_ty e.mult ty;
                member_body =
                  EOp (ConvSelect (e.shape, e.mult, EVar "x1", conv));
              })
            consumers
        in
        add_class { class_name = name; ctor_params = [ ("x1", TData) ]; members };
        (TClass name, lam "x" TData (ENew (name, [ EVar "x" ])))

  and provide_top ~hint labels =
    let class_hint = match format with `Xml -> "Element" | _ -> hint in
    let name = fresh_class class_hint in
    let member_pool = Naming.create_pool () in
    let members =
      List.map
        (fun label ->
          let base = Naming.pascal_case (Tag.to_member_name (Shape.tagof label)) in
          let provided = Naming.fresh member_pool base in
          let ty, conv = go ~hint:provided ~root:false label in
          {
            member_name = provided;
            member_ty = TOption ty;
            member_body =
              EIf
                ( EOp (HasShape (label, EVar "x1")),
                  ESome (EApp (conv, EVar "x1")),
                  ENone ty );
          })
        labels
    in
    add_class { class_name = name; ctor_params = [ ("x1", TData) ]; members };
    (TClass name, lam "x" TData (ENew (name, [ EVar "x" ])))
  in

  let root_ty, conv = go ~hint:root_name ~root:true shape in
  Fsdata_obs.Metrics.add m_classes (List.length !classes);
  { root_ty; conv; classes = List.rev !classes; shape; format }

let provide_json ?root_name src =
  match Infer.of_json ~mode:`Practical src with
  | Error e -> Error e
  | Ok shape -> Ok (provide ~format:`Json ?root_name shape)

let provide_xml ?root_name src =
  match Infer.run Fsdata_data.Diagnostic.Strict Xml (String src) with
  | Error e -> Error e
  | Ok { Infer.shape; _ } -> Ok (provide ~format:`Xml ?root_name shape)

let provide_xml_global sources =
  match Fsdata_core.Xml_global.of_strings sources with
  | Error e -> Error e
  | Ok global ->
      Fsdata_obs.Trace.with_span "provide.xml_global" @@ fun () ->
      Fsdata_obs.Metrics.incr m_runs;
      let module G = Fsdata_core.Xml_global in
      let pool = Naming.create_pool () in
      (* one class per element name; fix the name map first so recursive
         references resolve *)
      let class_names =
        List.map
          (fun (e : G.element_signature) ->
            (e.G.element_name, Naming.fresh pool (Naming.pascal_case e.G.element_name)))
          global.G.elements
      in
      let class_of name = List.assoc name class_names in
      let classes = ref [] in
      (* attribute/text shapes (primitives, nullables, possibly labelled
         tops or null) reuse the local provider, sharing this pool so
         auxiliary class names cannot collide with element classes *)
      let prim_conv shape =
        let p = provide ~format:`Xml ~pool shape in
        classes := List.rev_append p.classes !classes;
        (p.root_ty, p.conv)
      in
      List.iter
        (fun (e : G.element_signature) ->
          let member_pool = Naming.create_pool () in
          let attr_members =
            List.map
              (fun (attr, shape) ->
                let provided = Naming.fresh member_pool (Naming.pascal_case attr) in
                let ty, conv = prim_conv shape in
                {
                  member_name = provided;
                  member_ty = ty;
                  member_body =
                    EOp (ConvField (e.G.element_name, attr, EVar "x1", conv));
                })
              e.G.attributes
          in
          let body_members =
            match e.G.body with
            | G.Body_none -> []
            | G.Body_primitive shape ->
                let provided = Naming.fresh member_pool "Value" in
                let ty, conv = prim_conv shape in
                [
                  {
                    member_name = provided;
                    member_ty = ty;
                    member_body =
                      EOp
                        (ConvField (e.G.element_name, Dv.body_field, EVar "x1", conv));
                  };
                ]
            | G.Body_children children ->
                List.map
                  (fun (child, mult) ->
                    let base = Naming.pascal_case child in
                    let base =
                      if mult = Mult.Multiple then Naming.pluralize base else base
                    in
                    let provided = Naming.fresh member_pool base in
                    let child_class = class_of child in
                    (* select child elements by their record name *)
                    let select_shape = Shape.record child [] in
                    let select =
                      EOp
                        (ConvSelect
                           ( select_shape,
                             mult,
                             EVar "b",
                             lam "d" TData (ENew (child_class, [ EVar "d" ])) ))
                    in
                    (* Some occurrences of this element may carry text-only
                       or empty content instead of child elements (mixed
                       occurrences merge with element content winning, so
                       multiplicities are already optional there): guard
                       the selection with a collection test and answer
                       "no children" for non-collection bodies. *)
                    let body_expr =
                      match mult with
                      | Mult.Single -> select
                      | Mult.Optional_single ->
                          EIf
                            ( EOp (HasShape (Shape.collection Shape.any, EVar "b")),
                              select,
                              ENone (TClass child_class) )
                      | Mult.Multiple ->
                          EIf
                            ( EOp (HasShape (Shape.collection Shape.any, EVar "b")),
                              select,
                              ENil (TClass child_class) )
                    in
                    {
                      member_name = provided;
                      member_ty = mult_ty mult (TClass child_class);
                      member_body =
                        EOp
                          (ConvField
                             ( e.G.element_name,
                               Dv.body_field,
                               EVar "x1",
                               lam "b" TData body_expr ));
                    })
                  children
          in
          classes :=
            {
              class_name = class_of e.G.element_name;
              ctor_params = [ ("x1", TData) ];
              members = attr_members @ body_members;
            }
            :: !classes)
        global.G.elements;
      let root_class = class_of global.G.root in
      Fsdata_obs.Metrics.add m_classes (List.length !classes);
      Ok
        {
          root_ty = TClass root_class;
          conv = lam "x" TData (ENew (root_class, [ EVar "x" ]));
          classes = List.rev !classes;
          shape = Shape.record global.G.root [];
          format = `Xml;
        }

let provide_html src =
  match Fsdata_data.Html.tables_of_string src with
  | tables ->
      let pool = Naming.create_pool () in
      Ok
        (List.mapi
           (fun i (t : Fsdata_data.Html.table) ->
             let base =
               match (t.Fsdata_data.Html.id, t.Fsdata_data.Html.caption) with
               | Some id, _ -> id
               | None, Some c when String.trim c <> "" -> c
               | _ -> Printf.sprintf "Table%d" (i + 1)
             in
             let name = Naming.fresh pool (Naming.pascal_case base) in
             let data =
               Fsdata_data.Csv.to_data ~convert_primitives:false
                 t.Fsdata_data.Html.table
             in
             let shape = Infer.shape_of_value ~mode:`Practical data in
             (name, provide ~format:`Csv ~root_name:name shape, t.Fsdata_data.Html.table))
           tables)
  | exception e -> Error (Printexc.to_string e)

let provide_csv ?schema src =
  match Fsdata_core.Csv_schema.infer_csv ?schema src with
  | Error e -> Error e
  | Ok shape -> Ok (provide ~format:`Csv shape)

let apply t d = EApp (t.conv, EData d)

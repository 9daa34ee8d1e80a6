module Dv = Fsdata_data.Data_value
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity

let obj fields = Dv.Record (Dv.json_record_name, fields)
let str s = Dv.String s
let typ name = obj [ ("type", str name) ]

let rec schema (s : Shape.t) : Dv.t =
  match s with
  | Bottom -> Dv.Bool false (* rejects everything: nothing was observed *)
  | Null -> typ "null"
  | Primitive p -> primitive p
  | Nullable inner -> (
      match schema inner with
      | Dv.Record (_, [ ("enum", Dv.List cases) ]) ->
          (* a nullable enum is the enum with null *)
          obj [ ("enum", Dv.List (cases @ [ Dv.Null ])) ]
      | s -> obj [ ("anyOf", Dv.List [ s; typ "null" ]) ])
  | Record { fields; _ } ->
      let required =
        List.filter_map
          (fun (n, fs) ->
            match fs with
            | Shape.Null | Shape.Nullable _ | Shape.Collection _ | Shape.Top _
              ->
                None (* null-admitting fields may be absent *)
            | _ -> Some (str n))
          fields
      in
      obj
        ([
           ("type", str "object");
           ( "properties",
             obj (List.map (fun (n, fs) -> (n, schema fs)) fields) );
         ]
        @ (if required = [] then [] else [ ("required", Dv.List required) ]))
  | Collection entries -> collection entries
  | Top [] -> obj [] (* the empty schema accepts everything *)
  | Top labels ->
      (* permissive, but documenting the statically known cases *)
      obj
        [
          ("description", str "open world: any value; known cases in anyOf");
          ("anyOf", Dv.List (List.map schema labels @ [ Dv.Bool true ]));
        ]

and primitive (p : Shape.primitive) : Dv.t =
  match p with
  | Shape.Int -> typ "integer"
  | Shape.Float -> typ "number"
  | Shape.String -> typ "string"
  | Shape.Bit0 -> obj [ ("enum", Dv.List [ Dv.Int 0 ]) ]
  | Shape.Bit1 -> obj [ ("enum", Dv.List [ Dv.Int 1 ]) ]
  | Shape.Bit | Shape.Bool ->
      (* bit ⊔ bool = bool: data read as bool includes the 0/1 literals *)
      obj [ ("enum", Dv.List [ Dv.Int 0; Dv.Int 1; Dv.Bool false; Dv.Bool true ]) ]
  | Shape.Date -> obj [ ("type", str "string"); ("format", str "date-time") ]

and collection entries : Dv.t =
  (* collections are nullable in the paper's algebra — hasShape([s], null)
     is true and the runtime reads null as the empty collection — so every
     collection schema also accepts null *)
  obj [ ("anyOf", Dv.List [ collection_array entries; typ "null" ]) ]

and collection_array entries : Dv.t =
  let non_null =
    List.filter (fun (e : Shape.entry) -> e.shape <> Shape.Null) entries
  in
  let has_null =
    List.exists (fun (e : Shape.entry) -> e.shape = Shape.Null) entries
  in
  match non_null with
  | [] ->
      (* only nulls (or nothing) observed *)
      obj
        [
          ("type", str "array");
          ("items", if has_null then typ "null" else Dv.Bool false);
        ]
  | [ e ] ->
      let item =
        if has_null then
          obj [ ("anyOf", Dv.List [ schema e.shape; typ "null" ]) ]
        else schema e.shape
      in
      obj [ ("type", str "array"); ("items", item) ]
  | many ->
      let mult_doc =
        String.concat ", "
          (List.map
             (fun (e : Shape.entry) ->
               Fmt.str "%a: %a" Fsdata_core.Tag.pp (Shape.tagof e.shape)
                 Mult.pp e.mult)
             many)
      in
      let cases =
        List.map (fun (e : Shape.entry) -> schema e.shape) many
        (* trailing true: elements of unknown tags are permitted (open
           world) — the runtime never accesses them *)
        @ [ Dv.Bool true ]
      in
      obj
        [
          ("type", str "array");
          ("items", obj [ ("anyOf", Dv.List cases) ]);
          ( "description",
            str
              ("open heterogeneous collection; known cases and multiplicities: "
             ^ mult_doc) );
        ]

let of_shape s =
  match schema s with
  | Dv.Record (name, fields) ->
      Dv.Record
        (name, ("$schema", str "http://json-schema.org/draft-07/schema#") :: fields)
  | other -> other

let to_string ?(indent = 2) s = Fsdata_data.Json.to_string ~indent (of_shape s)

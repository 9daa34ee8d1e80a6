type t = (string * Shape.t) list

let shape_of_type_name name =
  let name = String.trim name in
  let base, optional =
    if String.length name > 0 && name.[String.length name - 1] = '?' then
      (String.trim (String.sub name 0 (String.length name - 1)), true)
    else (name, false)
  in
  match
    match String.lowercase_ascii base with
    | "bit0" -> Some Shape.Bit0
    | "bit1" -> Some Shape.Bit1
    | "bit" -> Some Shape.Bit
    | "bool" -> Some Shape.Bool
    | "int" -> Some Shape.Int
    | "float" -> Some Shape.Float
    | "string" -> Some Shape.String
    | "date" -> Some Shape.Date
    | _ -> None
  with
  | Some p ->
      let s = Shape.Primitive p in
      Ok (if optional then Shape.Nullable s else s)
  | None -> Error (Printf.sprintf "unknown column type %S" base)

let parse text : (t, string) result =
  let entries =
    String.split_on_char ',' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | entry :: rest -> (
        match String.index_opt entry '=' with
        | None ->
            Error
              (Printf.sprintf "schema entry %S is not of the form column=type"
                 entry)
        | Some i -> (
            let column = String.trim (String.sub entry 0 i) in
            let ty = String.sub entry (i + 1) (String.length entry - i - 1) in
            if column = "" then Error (Printf.sprintf "empty column name in %S" entry)
            else if
              List.exists
                (fun (c, _) ->
                  String.lowercase_ascii c = String.lowercase_ascii column)
                acc
            then Error (Printf.sprintf "duplicate override for column %S" column)
            else
              match shape_of_type_name ty with
              | Ok s -> go ((column, s) :: acc) rest
              | Error e -> Error e))
  in
  go [] entries

let apply overrides (shape : Shape.t) : (Shape.t, string) result =
  match shape with
  | Shape.Collection
      [ { shape = Shape.Record ({ name; fields } as _r); mult } ]
    when String.equal name Fsdata_data.Data_value.csv_record_name ->
      let unknown =
        List.find_opt
          (fun (c, _) ->
            not
              (List.exists
                 (fun (f, _) ->
                   String.lowercase_ascii f = String.lowercase_ascii c)
                 fields))
          overrides
      in
      (match unknown with
      | Some (c, _) -> Error (Printf.sprintf "schema names unknown column %S" c)
      | None ->
          let fields =
            List.map
              (fun (f, s) ->
                match
                  List.find_opt
                    (fun (c, _) ->
                      String.lowercase_ascii c = String.lowercase_ascii f)
                    overrides
                with
                | Some (_, forced) -> (f, forced)
                | None -> (f, s))
              fields
          in
          Ok (Shape.hetero [ (Shape.record name fields, mult) ]))
  | _ -> Error "schema overrides apply to CSV collection shapes only"

let override ~schema shape =
  match parse schema with
  | Error e -> Error e
  | Ok [] -> Ok shape
  | Ok overrides -> apply overrides shape

let infer_csv ?(schema = "") src =
  match Infer.run Fsdata_data.Diagnostic.Strict Csv (String src) with
  | Error e -> Error e
  | Ok { Infer.shape; _ } -> override ~schema shape

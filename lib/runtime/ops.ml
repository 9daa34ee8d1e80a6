module Dv = Fsdata_data.Data_value

type conversion_error = {
  op : string;
  path : string list;
  expected : string;
  actual : string;
}

exception Conversion_error of conversion_error

(* Offending values can be arbitrarily large documents; diagnostics only
   need enough of them to be recognizable. *)
let summarize ?(limit = 120) s =
  if String.length s <= limit then s else String.sub s 0 limit ^ "..."

let summarize_value d = summarize (Fmt.str "%a" Dv.pp d)

let error_message e =
  let at =
    match e.path with [] -> "" | segs -> " at " ^ String.concat "." segs
  in
  if e.expected = "" then Printf.sprintf "%s%s: %s" e.op at e.actual
  else
    Printf.sprintf "%s%s: expected %s but found %s" e.op at e.expected e.actual

let conversion_error ?(path = []) ?(expected = "") ~op actual =
  { op; path; expected; actual }

let conversion_failure ?path ?expected ~op actual =
  raise (Conversion_error (conversion_error ?path ?expected ~op actual))

let with_path segment f =
  try f ()
  with Conversion_error e ->
    raise (Conversion_error { e with path = segment :: e.path })

let fail ~expected op d =
  raise (Conversion_error (conversion_error ~expected ~op (summarize_value d)))

let conv_int = function
  | Dv.Int i -> i
  | d -> fail ~expected:"int" "convPrim(int)" d

let conv_string = function
  | Dv.String s -> s
  | d -> fail ~expected:"string" "convPrim(string)" d

let conv_bool = function
  | Dv.Bool b -> b
  | d -> fail ~expected:"bool" "convPrim(bool)" d

let conv_float = function
  | Dv.Int i -> float_of_int i
  | Dv.Float f -> f
  | d -> fail ~expected:"a number" "convFloat" d

let conv_bit_bool = function
  | Dv.Bool b -> b
  | Dv.Int 0 -> false
  | Dv.Int 1 -> true
  | d -> fail ~expected:"a bool or the bits 0/1" "convBool" d

let conv_date = function
  | Dv.String s as d -> (
      match Fsdata_data.Date.of_string s with
      | Some date -> date
      | None -> fail ~expected:"a date string" "convDate" d)
  | d -> fail ~expected:"a date string" "convDate" d

let conv_field ~record ~field = function
  | Dv.Record (name, fields) when String.equal name record -> (
      match List.assoc_opt field fields with Some d -> d | None -> Dv.Null)
  | d ->
      raise
        (Conversion_error
           (conversion_error ~path:[ field ]
              ~expected:(Printf.sprintf "a record named %s" record)
              ~op:(Printf.sprintf "convField(%s, %s)" record field)
              (summarize_value d)))

let conv_null k = function Dv.Null -> None | d -> Some (k d)

let conv_elements k = function
  | Dv.Null -> []
  | Dv.List ds -> List.map k ds
  | d -> fail ~expected:"a collection" "convElements" d

let has_shape = Fsdata_core.Shape_check.has_shape

let matches shape = function
  | Dv.Null -> []
  | Dv.List ds -> List.filter (has_shape shape) ds
  | d -> fail ~expected:"a collection" "convSelect" d

let select_single shape k d =
  match matches shape d with
  | m :: _ -> k m
  | [] -> fail ~expected:"an element matching the shape" "convSelect(1)" d

let select_optional shape k d =
  match matches shape d with m :: _ -> Some (k m) | [] -> None

let select_multiple shape k d = List.map k (matches shape d)

type format = Json | Xml | Csv

type severity = Error | Warning

type t = {
  format : format;
  line : int;
  column : int;
  index : int option;
  message : string;
  severity : severity;
}

exception Parse_error of t

let make ?index ?(severity = Error) ~format ~line ~column message =
  { format; line; column; index; message; severity }

let error ~format ~line ~column fmt =
  Printf.ksprintf
    (fun message -> raise (Parse_error (make ~format ~line ~column message)))
    fmt

let with_index index d = { d with index = Some index }

let format_name = function Json -> "json" | Xml -> "xml" | Csv -> "csv"
(* The spelling the legacy error messages use *)
let format_label = function Json -> "JSON" | Xml -> "XML" | Csv -> "CSV"
let severity_name = function Error -> "error" | Warning -> "warning"

(* The column is omitted when unknown (0) so the rendering degrades to
   the historical line-only CSV message shape. A diagnostic with no line
   is no parse error: its message says what failed. *)
let message_of d =
  if d.line = 0 then d.message
  else if d.column > 0 then
    Printf.sprintf "%s parse error at line %d, column %d: %s"
      (format_label d.format) d.line d.column d.message
  else
    Printf.sprintf "%s parse error at line %d: %s" (format_label d.format)
      d.line d.message

let to_string d =
  match d.index with
  | None -> message_of d
  | Some i -> Printf.sprintf "%s (document %d)" (message_of d) i

let to_json d =
  let base =
    [
      ("format", Data_value.String (format_name d.format));
      ("line", Data_value.Int d.line);
      ("column", Data_value.Int d.column);
      ("severity", Data_value.String (severity_name d.severity));
      ("message", Data_value.String d.message);
    ]
  in
  let fields =
    match d.index with
    | None -> base
    | Some i -> ("index", Data_value.Int i) :: base
  in
  Data_value.Record (Data_value.json_record_name, fields)

let pp ppf d = Format.pp_print_string ppf (to_string d)

type budget = Strict | Count of int | Percent of float

let budget_of_string s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then Result.Error "empty error budget"
  else if s.[len - 1] = '%' then
    match float_of_string_opt (String.sub s 0 (len - 1)) with
    | Some p when p >= 0. && p <= 100. -> Result.Ok (Percent p)
    | Some _ -> Result.Error "error budget percentage must be between 0 and 100"
    | None -> Result.Error (Printf.sprintf "invalid error budget %S" s)
  else
    match int_of_string_opt s with
    | Some 0 -> Result.Ok Strict
    | Some n when n > 0 -> Result.Ok (Count n)
    | Some _ -> Result.Error "error budget must be non-negative"
    | None ->
        Result.Error
          (Printf.sprintf "invalid error budget %S (expected N or N%%)" s)

let budget_to_string = function
  | Strict -> "0"
  | Count n -> string_of_int n
  | Percent p ->
      if Float.is_integer p then Printf.sprintf "%.0f%%" p
      else Printf.sprintf "%g%%" p

let allows budget ~errors ~total =
  match budget with
  | Strict -> errors = 0
  | Count n -> errors <= n
  | Percent p -> float_of_int errors <= p /. 100. *. float_of_int total

open Fsdata_foo.Syntax
module Eval = Fsdata_foo.Eval
module Dv = Fsdata_data.Data_value

type value = { classes : class_env; expr : expr (* a Foo value *) }

exception Runtime_exn

let run classes e =
  match Eval.eval classes e with
  | Eval.Value v -> { classes; expr = v }
  | Eval.Exn -> raise Runtime_exn
  | Eval.Stuck { reason; _ } ->
      Ops.conversion_failure ~op:"eval" (Ops.summarize reason)
  | Eval.Timeout ->
      Ops.conversion_failure ~op:"eval" "evaluation did not terminate"

let load (p : Fsdata_provider.Provide.t) d =
  run p.classes (EApp (p.conv, EData d))

let parse (p : Fsdata_provider.Provide.t) text =
  let data =
    match p.format with
    | `Json -> (
        match Fsdata_data.Json.parse_result text with
        | Ok d -> Fsdata_data.Primitive.normalize d
        | Error e ->
            Ops.conversion_failure ~expected:"well-formed JSON" ~op:"parse" e)
    | `Xml -> (
        match Fsdata_data.Xml.parse_result text with
        | Ok tree -> Fsdata_data.Xml.to_data ~convert_primitives:true tree
        | Error e ->
            Ops.conversion_failure ~expected:"well-formed XML" ~op:"parse" e)
    | `Csv -> (
        match Fsdata_data.Csv.parse_result text with
        | Ok table -> Fsdata_data.Csv.to_data ~convert_primitives:true table
        | Error e ->
            Ops.conversion_failure ~expected:"well-formed CSV" ~op:"parse" e)
  in
  load p data

let rec path v dotted =
  match String.index_opt dotted '.' with
  | None -> member v dotted
  | Some i ->
      path
        (member v (String.sub dotted 0 i))
        (String.sub dotted (i + 1) (String.length dotted - i - 1))

and member v name =
  match v.expr with
  | ENew _ ->
      (* attribute any deep conversion failure to the member being
         evaluated, so the error's access path names the chain *)
      Ops.with_path name (fun () -> run v.classes (EMember (v.expr, name)))
  | _ ->
      Ops.conversion_failure ~path:[ name ] ~expected:"a provided object"
        ~op:(Printf.sprintf "member %s" name)
        (Ops.summarize (Fmt.str "%a" pp_expr v.expr))

let wrong what v =
  Ops.conversion_failure ~expected:what ~op:"get"
    (Ops.summarize (Fmt.str "%a" pp_expr v.expr))

let get_int v = match v.expr with EData (Dv.Int i) -> i | _ -> wrong "an int" v

let get_float v =
  match v.expr with
  | EData (Dv.Float f) -> f
  | EData (Dv.Int i) -> float_of_int i
  | _ -> wrong "a float" v

let get_bool v =
  match v.expr with EData (Dv.Bool b) -> b | _ -> wrong "a bool" v

let get_string v =
  match v.expr with EData (Dv.String s) -> s | _ -> wrong "a string" v

let get_date v = match v.expr with EDate d -> d | _ -> wrong "a date" v

let get_option v =
  match v.expr with
  | ENone _ -> None
  | ESome e -> Some { v with expr = e }
  | _ -> wrong "an option" v

let get_list v =
  let rec go acc = function
    | ENil _ -> List.rev acc
    | ECons (x, rest) -> go ({ v with expr = x } :: acc) rest
    | _ -> wrong "a list" v
  in
  go [] v.expr

let underlying v =
  match v.expr with ENew (_, [ EData d ]) -> Some d | _ -> None

let pp ppf v = pp_expr ppf v.expr

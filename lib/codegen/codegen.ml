open Fsdata_foo.Syntax
module Shape = Fsdata_core.Shape
module Mult = Fsdata_core.Multiplicity

let keywords =
  [
    "and"; "as"; "assert"; "begin"; "class"; "constraint"; "do"; "done";
    "downto"; "else"; "end"; "exception"; "external"; "false"; "for"; "fun";
    "function"; "functor"; "if"; "in"; "include"; "inherit"; "initializer";
    "lazy"; "let"; "match"; "method"; "module"; "mutable"; "new"; "nonrec";
    "object"; "of"; "open"; "or"; "private"; "rec"; "sig"; "struct"; "then";
    "to"; "true"; "try"; "type"; "val"; "virtual"; "when"; "while"; "with";
  ]

let uncapitalize s =
  if s = "" then "value"
  else String.uncapitalize_ascii s

let escape s = if List.mem s keywords then s ^ "_" else s

let ml_type_name s = escape (uncapitalize s)
let ml_field_name s = escape (uncapitalize s)

let rec ml_ty = function
  | TInt -> "int"
  | TFloat -> "float"
  | TBool -> "bool"
  | TString -> "string"
  | TDate -> "Fsdata_data.Date.t"
  | TData -> "Fsdata_data.Data_value.t"
  | TClass c -> ml_type_name c
  | TList t -> ml_ty_atom t ^ " list"
  | TOption t -> ml_ty_atom t ^ " option"
  | TArrow (a, b) -> Printf.sprintf "%s -> %s" (ml_ty_atom a) (ml_ty b)

and ml_ty_atom t =
  match t with
  | TArrow _ -> "(" ^ ml_ty t ^ ")"
  | _ -> ml_ty t

let quote s = Printf.sprintf "%S" s

let rec shape_literal (s : Shape.t) =
  match s with
  | Bottom -> "Shape.Bottom"
  | Null -> "Shape.Null"
  | Primitive p ->
      let name =
        match p with
        | Shape.Bit0 -> "Bit0"
        | Shape.Bit1 -> "Bit1"
        | Shape.Bit -> "Bit"
        | Shape.Bool -> "Bool"
        | Shape.Int -> "Int"
        | Shape.Float -> "Float"
        | Shape.String -> "String"
        | Shape.Date -> "Date"
      in
      Printf.sprintf "Shape.Primitive Shape.%s" name
  | Record { name; fields } ->
      Printf.sprintf "Shape.record %s [%s]" (quote name)
        (String.concat "; "
           (List.map
              (fun (f, fs) -> Printf.sprintf "(%s, %s)" (quote f) (shape_literal fs))
              fields))
  | Nullable p -> Printf.sprintf "Shape.nullable (%s)" (shape_literal p)
  | Collection entries ->
      if entries = [] then "Shape.collection Shape.Bottom"
      else
        Printf.sprintf "Shape.hetero [%s]"
          (String.concat "; "
             (List.map
                (fun (e : Shape.entry) ->
                  let m =
                    match e.mult with
                    | Mult.Single -> "Fsdata_core.Multiplicity.Single"
                    | Mult.Optional_single ->
                        "Fsdata_core.Multiplicity.Optional_single"
                    | Mult.Multiple -> "Fsdata_core.Multiplicity.Multiple"
                  in
                  Printf.sprintf "(%s, %s)" (shape_literal e.shape) m)
                entries))
  | Top labels ->
      Printf.sprintf "Shape.top [%s]"
        (String.concat "; " (List.map shape_literal labels))

(* ----- Compiling provider-generated Foo expressions to OCaml source ----- *)

let unsupported what =
  invalid_arg
    (Printf.sprintf
       "Codegen: unsupported construct in provider output (%s) — provider bug?"
       what)

(* [opaque] is the set of class names generated without members; they are
   aliases of Data_value.t rather than records, so "new C(d)" is just d. *)
let rec compile_expr ~opaque env (e : expr) : string =
  match e with
  | EVar x -> (
      match List.assoc_opt x env with
      | Some v -> v
      | None -> unsupported ("free variable " ^ x))
  | EApp (f, x) ->
      Printf.sprintf "(%s) (%s)"
        (compile_fun ~opaque env f)
        (compile_expr ~opaque env x)
  | ENew (c, [ arg ]) ->
      if List.mem c opaque then compile_expr ~opaque env arg
      else
        Printf.sprintf "%s_of_data (%s)" (ml_type_name c)
          (compile_expr ~opaque env arg)
  | ESome e1 -> Printf.sprintf "Some (%s)" (compile_expr ~opaque env e1)
  | ENone _ -> "None"
  | EIf (c, t, f) ->
      Printf.sprintf "(if %s then %s else %s)"
        (compile_expr ~opaque env c)
        (compile_expr ~opaque env t)
        (compile_expr ~opaque env f)
  | EOp op -> compile_op ~opaque env op
  | EData Fsdata_data.Data_value.Null -> "Fsdata_data.Data_value.Null"
  | _ -> unsupported (expr_to_string e)

and compile_fun ~opaque env (e : expr) : string =
  match e with
  | ELam (x, _, body) ->
      let v = "v_" ^ string_of_int (List.length env) in
      Printf.sprintf "(fun %s -> %s)" v (compile_expr ~opaque ((x, v) :: env) body)
  | _ -> compile_expr ~opaque env e

and compile_op ~opaque env (op : op) : string =
  let e = compile_expr ~opaque env in
  let f = compile_fun ~opaque env in
  match op with
  | ConvPrim (Shape.Primitive Shape.Int, e1) -> Printf.sprintf "Ops.conv_int (%s)" (e e1)
  | ConvPrim (Shape.Primitive Shape.String, e1) ->
      Printf.sprintf "Ops.conv_string (%s)" (e e1)
  | ConvPrim (Shape.Primitive Shape.Bool, e1) ->
      Printf.sprintf "Ops.conv_bool (%s)" (e e1)
  | ConvPrim _ -> unsupported "convPrim with a non-primitive shape"
  | ConvFloat (_, e1) -> Printf.sprintf "Ops.conv_float (%s)" (e e1)
  | ConvBool e1 -> Printf.sprintf "Ops.conv_bit_bool (%s)" (e e1)
  | ConvDate e1 -> Printf.sprintf "Ops.conv_date (%s)" (e e1)
  | ConvField (nu, field, e1, k) ->
      Printf.sprintf "(%s) (Ops.conv_field ~record:%s ~field:%s (%s))" (f k)
        (quote nu) (quote field) (e e1)
  | ConvNull (e1, k) -> Printf.sprintf "Ops.conv_null (%s) (%s)" (f k) (e e1)
  | ConvElements (e1, k) ->
      Printf.sprintf "Ops.conv_elements (%s) (%s)" (f k) (e e1)
  | HasShape (s, e1) ->
      Printf.sprintf "Ops.has_shape (%s) (%s)" (shape_literal s) (e e1)
  | ConvSelect (s, mult, e1, k) ->
      let fn =
        match mult with
        | Mult.Single -> "Ops.select_single"
        | Mult.Optional_single -> "Ops.select_optional"
        | Mult.Multiple -> "Ops.select_multiple"
      in
      Printf.sprintf "%s (%s) (%s) (%s)" fn (shape_literal s) (f k) (e e1)
  | IntOfFloat e1 -> Printf.sprintf "int_of_float (%s)" (e e1)

(* Observability (docs/OBSERVABILITY.md): a [codegen.generate] span per
   emitted module; [codegen.bytes] totals the generated source size. *)
let m_runs = Fsdata_obs.Metrics.counter "codegen.runs"
let m_bytes = Fsdata_obs.Metrics.counter "codegen.bytes"

let generate ?module_comment (p : Fsdata_provider.Provide.t) : string =
  Fsdata_obs.Trace.with_span "codegen.generate" @@ fun () ->
  Fsdata_obs.Metrics.incr m_runs;
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  (match module_comment with
  | Some c -> pr "(* %s *)\n" c
  | None ->
      pr
        "(* Generated by fsdata codegen — do not edit.\n\
        \   Typed access to documents matching the inferred shape:\n\
        \   %s *)\n"
        (Shape.to_string p.shape));
  pr "\n[@@@warning \"-39\"] (* converter blocks are emitted with let rec *)\n";
  pr "\nmodule Ops = Fsdata_runtime.Ops\nmodule Shape = Fsdata_core.Shape\n";
  pr "\nlet _ = Shape.Bottom (* silence unused-module warnings in tiny schemas *)\n\n";
  let opaque =
    List.filter_map
      (fun (c : class_def) -> if c.members = [] then Some c.class_name else None)
      p.classes
  in
  (* Type declarations as one mutually recursive block: global XML
     provision can produce genuinely recursive classes (an element
     containing itself), and the and-chain is harmless otherwise. *)
  List.iteri
    (fun i (c : class_def) ->
      let kw = if i = 0 then "type" else "and" in
      if c.members = [] then
        pr "%s %s = Fsdata_data.Data_value.t\n\n" kw (ml_type_name c.class_name)
      else begin
        pr "%s %s = {\n" kw (ml_type_name c.class_name);
        List.iter
          (fun (m : member_def) ->
            pr "  %s : %s;\n" (ml_field_name m.member_name) (ml_ty m.member_ty))
          c.members;
        pr "}\n\n"
      end)
    p.classes;
  (* Conversion functions, likewise one recursive block. *)
  let converted =
    List.filter (fun (c : class_def) -> c.members <> []) p.classes
  in
  List.iteri
    (fun i (c : class_def) ->
      let kw = if i = 0 then "let rec" else "and" in
      let param =
        match c.ctor_params with
        | [ (x, TData) ] -> x
        | _ -> unsupported "class with non-standard constructor"
      in
      pr "%s %s_of_data (d : Fsdata_data.Data_value.t) : %s =\n" kw
        (ml_type_name c.class_name) (ml_type_name c.class_name);
      pr "  {\n";
      List.iter
        (fun (m : member_def) ->
          pr "    %s = %s;\n"
            (ml_field_name m.member_name)
            (compile_expr ~opaque [ (param, "d") ] m.member_body))
        c.members;
      pr "  }\n\n")
    converted;
  pr "type t = %s\n\n" (ml_ty p.root_ty);
  pr "let of_data (d : Fsdata_data.Data_value.t) : t =\n  (%s) d\n\n"
    (compile_fun ~opaque [] p.conv);
  (match p.format with
  | `Json ->
      pr
        "let parse (text : string) : t =\n\
        \  of_data (Fsdata_data.Primitive.normalize (Fsdata_data.Json.parse \
         text))\n\n"
  | `Xml ->
      pr
        "let parse (text : string) : t =\n\
        \  of_data (Fsdata_data.Xml.to_data ~convert_primitives:true \
         (Fsdata_data.Xml.parse text))\n\n"
  | `Csv ->
      pr
        "let parse (text : string) : t =\n\
        \  of_data (Fsdata_data.Csv.to_data ~convert_primitives:true \
         (Fsdata_data.Csv.parse text))\n\n");
  pr
    "let load (path : string) : t =\n\
    \  let ic = open_in_bin path in\n\
    \  let text = really_input_string ic (in_channel_length ic) in\n\
    \  close_in ic;\n\
    \  parse text\n";
  Fsdata_obs.Metrics.add m_bytes (Buffer.length buf);
  Buffer.contents buf

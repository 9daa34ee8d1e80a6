type ty =
  | TInt
  | TFloat
  | TBool
  | TString
  | TDate
  | TClass of string
  | TData
  | TArrow of ty * ty
  | TList of ty
  | TOption of ty

type expr =
  | EData of Fsdata_data.Data_value.t
  | EDate of Fsdata_data.Date.t
  | EVar of string
  | ELam of string * ty * expr
  | EApp of expr * expr
  | EMember of expr * string
  | ENew of string * expr list
  | ENone of ty
  | ESome of expr
  | EMatchOption of expr * string * expr * expr
  | EEq of expr * expr
  | EIf of expr * expr * expr
  | ENil of ty
  | ECons of expr * expr
  | EMatchList of expr * string * string * expr * expr
  | EOp of op
  | EExn

and op =
  | ConvFloat of Fsdata_core.Shape.t * expr
  | ConvPrim of Fsdata_core.Shape.t * expr
  | ConvField of string * string * expr * expr
  | ConvNull of expr * expr
  | ConvElements of expr * expr
  | HasShape of Fsdata_core.Shape.t * expr
  | ConvBool of expr
  | ConvDate of expr
  | ConvSelect of Fsdata_core.Shape.t * Fsdata_core.Multiplicity.t * expr * expr
  | IntOfFloat of expr

type member_def = { member_name : string; member_ty : ty; member_body : expr }

type class_def = {
  class_name : string;
  ctor_params : (string * ty) list;
  members : member_def list;
}

type class_env = class_def list

let find_class classes name =
  List.find_opt (fun c -> String.equal c.class_name name) classes

let find_member cls name =
  List.find_opt (fun m -> String.equal m.member_name name) cls.members

let rec is_value = function
  | EData _ | EDate _ | ENone _ | ENil _ | ELam _ -> true
  | ESome e -> is_value e
  | ECons (e1, e2) -> is_value e1 && is_value e2
  | ENew (_, args) -> List.for_all is_value args
  | _ -> false

let rec free_vars = function
  | EData _ | EDate _ | ENone _ | ENil _ | EExn -> []
  | EVar x -> [ x ]
  | ELam (x, _, e) -> List.filter (fun y -> y <> x) (free_vars e)
  | EApp (e1, e2) | EEq (e1, e2) | ECons (e1, e2) -> free_vars e1 @ free_vars e2
  | EMember (e, _) | ESome e -> free_vars e
  | ENew (_, args) -> List.concat_map free_vars args
  | EMatchOption (e, x, e1, e2) ->
      free_vars e
      @ List.filter (fun y -> y <> x) (free_vars e1)
      @ free_vars e2
  | EIf (e1, e2, e3) -> free_vars e1 @ free_vars e2 @ free_vars e3
  | EMatchList (e, x1, x2, e1, e2) ->
      free_vars e
      @ List.filter (fun y -> y <> x1 && y <> x2) (free_vars e1)
      @ free_vars e2
  | EOp op -> free_vars_op op

and free_vars_op = function
  | ConvFloat (_, e)
  | ConvPrim (_, e)
  | HasShape (_, e)
  | ConvBool e
  | ConvDate e
  | IntOfFloat e ->
      free_vars e
  | ConvField (_, _, e1, e2)
  | ConvNull (e1, e2)
  | ConvElements (e1, e2)
  | ConvSelect (_, _, e1, e2) ->
      free_vars e1 @ free_vars e2

let gensym =
  let counter = ref 0 in
  fun base ->
    incr counter;
    Printf.sprintf "%s%%%d" base !counter

let rec subst x v e =
  let s e = subst x v e in
  match e with
  | EData _ | EDate _ | ENone _ | ENil _ | EExn -> e
  | EVar y -> if String.equal x y then v else e
  | ELam (y, ty, body) ->
      if String.equal x y then e
      else if List.mem y (free_vars v) then begin
        let y' = gensym y in
        ELam (y', ty, s (subst y (EVar y') body))
      end
      else ELam (y, ty, s body)
  | EApp (e1, e2) -> EApp (s e1, s e2)
  | EMember (e1, n) -> EMember (s e1, n)
  | ENew (c, args) -> ENew (c, List.map s args)
  | ESome e1 -> ESome (s e1)
  | EMatchOption (e0, y, e1, e2) ->
      if String.equal x y then EMatchOption (s e0, y, e1, s e2)
      else if List.mem y (free_vars v) then begin
        let y' = gensym y in
        EMatchOption (s e0, y', s (subst y (EVar y') e1), s e2)
      end
      else EMatchOption (s e0, y, s e1, s e2)
  | EEq (e1, e2) -> EEq (s e1, s e2)
  | EIf (e1, e2, e3) -> EIf (s e1, s e2, s e3)
  | ECons (e1, e2) -> ECons (s e1, s e2)
  | EMatchList (e0, y1, y2, e1, e2) ->
      let bound = [ y1; y2 ] in
      if List.mem x bound then EMatchList (s e0, y1, y2, e1, s e2)
      else if List.exists (fun y -> List.mem y (free_vars v)) bound then begin
        let y1' = gensym y1 and y2' = gensym y2 in
        let e1' = subst y1 (EVar y1') (subst y2 (EVar y2') e1) in
        EMatchList (s e0, y1', y2', s e1', s e2)
      end
      else EMatchList (s e0, y1, y2, s e1, s e2)
  | EOp op -> EOp (subst_op x v op)

and subst_op x v op =
  let s e = subst x v e in
  match op with
  | ConvFloat (sh, e) -> ConvFloat (sh, s e)
  | ConvPrim (sh, e) -> ConvPrim (sh, s e)
  | ConvField (n1, n2, e1, e2) -> ConvField (n1, n2, s e1, s e2)
  | ConvNull (e1, e2) -> ConvNull (s e1, s e2)
  | ConvElements (e1, e2) -> ConvElements (s e1, s e2)
  | HasShape (sh, e) -> HasShape (sh, s e)
  | ConvBool e -> ConvBool (s e)
  | ConvDate e -> ConvDate (s e)
  | ConvSelect (sh, m, e1, e2) -> ConvSelect (sh, m, s e1, s e2)
  | IntOfFloat e -> IntOfFloat (s e)

let int_ i = EData (Fsdata_data.Data_value.Int i)
let float_ f = EData (Fsdata_data.Data_value.Float f)
let bool_ b = EData (Fsdata_data.Data_value.Bool b)
let null = EData Fsdata_data.Data_value.Null
let lam x ty e = ELam (x, ty, e)
let ( @@@ ) f x = EApp (f, x)

let rec ty_equal t1 t2 =
  match (t1, t2) with
  | TInt, TInt | TFloat, TFloat | TBool, TBool | TString, TString -> true
  | TDate, TDate | TData, TData -> true
  | TClass a, TClass b -> String.equal a b
  | TArrow (a1, b1), TArrow (a2, b2) -> ty_equal a1 a2 && ty_equal b1 b2
  | TList a, TList b | TOption a, TOption b -> ty_equal a b
  | _ -> false

let rec pp_ty ppf = function
  | TInt -> Fmt.string ppf "int"
  | TFloat -> Fmt.string ppf "float"
  | TBool -> Fmt.string ppf "bool"
  | TString -> Fmt.string ppf "string"
  | TDate -> Fmt.string ppf "date"
  | TClass c -> Fmt.string ppf c
  | TData -> Fmt.string ppf "Data"
  | TArrow (a, b) -> Fmt.pf ppf "(%a -> %a)" pp_ty a pp_ty b
  | TList t -> Fmt.pf ppf "list %a" pp_ty_atom t
  | TOption t -> Fmt.pf ppf "option %a" pp_ty_atom t

and pp_ty_atom ppf t =
  match t with
  | TArrow _ | TList _ | TOption _ -> Fmt.pf ppf "(%a)" pp_ty t
  | _ -> pp_ty ppf t

let rec pp_expr ppf = function
  | EData d -> Fsdata_data.Data_value.pp ppf d
  | EDate d -> Fmt.pf ppf "date(%a)" Fsdata_data.Date.pp d
  | EVar x -> Fmt.string ppf x
  | ELam (x, ty, e) -> Fmt.pf ppf "(\xce\xbb%s:%a.@ %a)" x pp_ty ty pp_expr e
  | EApp (e1, e2) -> Fmt.pf ppf "@[<hov 2>%a@ %a@]" pp_expr e1 pp_atom e2
  | EMember (e, n) -> Fmt.pf ppf "%a.%s" pp_atom e n
  | ENew (c, args) ->
      Fmt.pf ppf "new %s(@[<hov>%a@])" c
        Fmt.(list ~sep:(any ",@ ") pp_expr)
        args
  | ENone _ -> Fmt.string ppf "None"
  | ESome e -> Fmt.pf ppf "Some(%a)" pp_expr e
  | EMatchOption (e, x, e1, e2) ->
      Fmt.pf ppf "@[<hov 2>match %a with@ | Some(%s) \xe2\x86\x92 %a@ | None \xe2\x86\x92 %a@]"
        pp_expr e x pp_expr e1 pp_expr e2
  | EEq (e1, e2) -> Fmt.pf ppf "%a = %a" pp_atom e1 pp_atom e2
  | EIf (e1, e2, e3) ->
      Fmt.pf ppf "@[<hov 2>if %a@ then %a@ else %a@]" pp_expr e1 pp_expr e2
        pp_expr e3
  | ENil _ -> Fmt.string ppf "nil"
  | ECons (e1, e2) -> Fmt.pf ppf "%a :: %a" pp_atom e1 pp_expr e2
  | EMatchList (e, x1, x2, e1, e2) ->
      Fmt.pf ppf
        "@[<hov 2>match %a with@ | %s :: %s \xe2\x86\x92 %a@ | nil \xe2\x86\x92 %a@]"
        pp_expr e x1 x2 pp_expr e1 pp_expr e2
  | EOp op -> pp_op ppf op
  | EExn -> Fmt.string ppf "exn"

and pp_atom ppf e =
  match e with
  | EData _ | EVar _ | ENone _ | ENil _ | EExn | EMember _ | EDate _ ->
      pp_expr ppf e
  | _ -> Fmt.pf ppf "(%a)" pp_expr e

and pp_op ppf op =
  let shape = Fsdata_core.Shape.pp in
  match op with
  | ConvFloat (s, e) -> Fmt.pf ppf "convFloat(%a, %a)" shape s pp_expr e
  | ConvPrim (s, e) -> Fmt.pf ppf "convPrim(%a, %a)" shape s pp_expr e
  | ConvField (n1, n2, e1, e2) ->
      Fmt.pf ppf "convField(%s, %s, %a, %a)" n1 n2 pp_expr e1 pp_expr e2
  | ConvNull (e1, e2) -> Fmt.pf ppf "convNull(%a, %a)" pp_expr e1 pp_expr e2
  | ConvElements (e1, e2) ->
      Fmt.pf ppf "convElements(%a, %a)" pp_expr e1 pp_expr e2
  | HasShape (s, e) -> Fmt.pf ppf "hasShape(%a, %a)" shape s pp_expr e
  | ConvBool e -> Fmt.pf ppf "convBool(%a)" pp_expr e
  | ConvDate e -> Fmt.pf ppf "convDate(%a)" pp_expr e
  | ConvSelect (s, m, e1, e2) ->
      Fmt.pf ppf "convSelect(%a, %a, %a, %a)" shape s Fsdata_core.Multiplicity.pp
        m pp_expr e1 pp_expr e2
  | IntOfFloat e -> Fmt.pf ppf "int(%a)" pp_expr e

let pp_class ppf (c : class_def) =
  Fmt.pf ppf "@[<v 2>type %s(@[<hov>%a@]) =@ %a@]" c.class_name
    Fmt.(
      list ~sep:(any ",@ ") (fun ppf (x, ty) -> Fmt.pf ppf "%s : %a" x pp_ty ty))
    c.ctor_params
    Fmt.(
      list ~sep:(any "@ ") (fun ppf (m : member_def) ->
          Fmt.pf ppf "@[<hov 2>member %s : %a =@ %a@]" m.member_name pp_ty
            m.member_ty pp_expr m.member_body))
    c.members

let ty_to_string t = Fmt.str "%a" pp_ty t
let expr_to_string e = Fmt.str "%a" pp_expr e

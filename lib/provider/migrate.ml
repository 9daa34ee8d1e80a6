open Fsdata_foo.Syntax

type error = Unsupported of string

let pp_error ppf (Unsupported m) = Fmt.pf ppf "cannot migrate: %s" m

let ( let* ) r f = Result.bind r f
let err fmt = Printf.ksprintf (fun m -> Error (Unsupported m)) fmt

let fresh =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "mig%%%d" !n

(* rule 1: match e with Some v -> k v | None -> exn *)
let unwrap k e =
  let v = fresh () in
  EMatchOption (e, v, k (EVar v), EExn)

(* Head compatibility: does the new type already present the same
   interface constructor as the old one? *)
let same_head (nt : ty) (ot : ty) =
  match (nt, ot) with
  | TInt, TInt | TFloat, TFloat | TBool, TBool | TString, TString
  | TDate, TDate | TData, TData ->
      true
  | TList _, TList _ | TOption _, TOption _ | TClass _, TClass _
  | TArrow _, TArrow _ ->
      true
  | TFloat, TInt -> false (* needs rule 3 *)
  | _ -> false

let member_ty classes c m =
  match find_class classes c with
  | None -> None
  | Some cls -> (
      match find_member cls m with
      | Some md -> Some md.member_ty
      | None -> None)

(* The record name a provided class reads its fields from: every member
   body starts with convField(ν, ...), so ν identifies the record shape a
   class was generated for — the stable correspondence between old and
   new classes across an evolution. *)
let record_name_of_class classes c =
  match find_class classes c with
  | None -> None
  | Some cls ->
      List.find_map
        (fun (m : member_def) ->
          match m.member_body with
          | EOp (ConvField (nu, _, _, _)) -> Some nu
          | _ -> None)
        cls.members

(* members of an old class, for matching labels of a top *)
let member_names classes c =
  match find_class classes c with
  | Some cls -> Some (List.map (fun m -> m.member_name) cls.members)
  | None -> None

(* rule 2 target: the label member of top class [d] whose payload presents
   the old type's interface; among class labels, the one generated for the
   old class's record name wins. *)
let select_label ~new_classes ~old_classes d (ot : ty) =
  match find_class new_classes d with
  | None -> None
  | Some cls ->
      let name_matches c' c_old =
        match
          ( record_name_of_class new_classes c',
            record_name_of_class old_classes c_old )
        with
        | Some a, Some b -> String.equal a b
        | _ -> false
      in
      let covers c' c_old =
        match (member_names new_classes c', member_names old_classes c_old) with
        | Some new_ms, Some old_ms ->
            old_ms <> [] && List.for_all (fun m -> List.mem m new_ms) old_ms
        | _ -> false
      in
      let candidate strict (md : member_def) =
        match md.member_ty with
        | TOption p ->
            let matches =
              match (p, ot) with
              | TClass c', TClass c_old ->
                  if strict then name_matches c' c_old else covers c' c_old
              | TFloat, (TInt | TFloat) -> not strict
              | p, ot -> (not strict) && same_head p ot
            in
            if matches then Some (md.member_name, p) else None
        | _ -> None
      in
      (match List.find_map (candidate true) cls.members with
      | Some _ as r -> r
      | None -> List.find_map (candidate false) cls.members)

(* Realign a new-typed expression until its type presents the old type's
   head constructor, applying rules 1-3 outside-in. *)
let rec realign ~new_classes ~old_classes e (ot : ty) (nt : ty) :
    (expr * ty, error) result =
  if same_head nt ot then Ok (e, nt)
  else
    match (nt, ot) with
    | TOption nt', _ ->
        (* rule 1 *)
        realign ~new_classes ~old_classes (unwrap (fun v -> v) e) ot nt'
    | TClass d, TOption ot' -> (
        (* rule 2 into an optional position: the label member is already
           the option — old null inputs fail the label's shape test and
           read as None, matching the old option semantics *)
        match select_label ~new_classes ~old_classes d ot' with
        | Some (k, p) -> Ok (EMember (e, k), TOption p)
        | None ->
            err "no label of %s presents the interface %s" d (ty_to_string ot'))
    | TClass d, _ -> (
        (* rule 2 *)
        match select_label ~new_classes ~old_classes d ot with
        | Some (k, p) ->
            realign ~new_classes ~old_classes
              (unwrap (fun v -> v) (EMember (e, k)))
              ot p
        | None ->
            err "no label of %s presents the interface %s" d (ty_to_string ot))
    | TFloat, TInt ->
        (* rule 3 *)
        Ok (EOp (IntOfFloat e), TInt)
    | _ ->
        err "no rule realigns %s to %s" (ty_to_string nt) (ty_to_string ot)

(* [coerce ~new_classes ~old_classes new_ty old_ty] builds the adapter
   taking a value of the new type to the old type's interface, when the
   three rules suffice *)
let rec coerce ~new_classes ~old_classes (nt : ty) (ot : ty) :
    (expr -> expr, error) result =
  if ty_equal nt ot then Ok (fun e -> e)
  else
    match (nt, ot) with
    (* rule 1 at matching option heads: coerce the payload *)
    | TOption nt', TOption ot' when not (ty_equal nt' ot') ->
        let* f = coerce ~new_classes ~old_classes nt' ot' in
        Ok
          (fun e ->
            let v = fresh () in
            EMatchOption (e, v, ESome (f (EVar v)), ENone ot'))
    (* nominal classes: the provider names classes stably, so a class of
       the same name is "the same type" in the Remark 1 sense *)
    | TClass a, TClass b when String.equal a b -> Ok (fun e -> e)
    | TClass _, TClass _ -> Ok (fun e -> e)
    | TList nt', TList ot' when ty_equal nt' ot' -> Ok (fun e -> e)
    | TList (TClass _), TList (TClass _) -> Ok (fun e -> e)
    | TList _, TList _ ->
        err
          "a list's element type changed; rebind the elements (the rules
           apply at binding sites, Foo has no map)"
    | _ ->
        (* realign the head, then coerce the rest *)
        let x = fresh () in
        let* e', nt' = realign ~new_classes ~old_classes (EVar x) ot nt in
        if ty_equal nt' nt then
          err "no rule bridges %s to %s" (ty_to_string nt) (ty_to_string ot)
        else
          let* f = coerce ~new_classes ~old_classes nt' ot in
          Ok
            (fun e ->
              (* substitute the realigned context around e *)
              Fsdata_foo.Syntax.subst x e (f e'))

(* The typed environment: each variable with its type under the old and
   the new classes. *)
type entry = { old_ty : ty; new_ty : ty }

(* rule 2 lookup: in a labelled-top class D, the member whose payload
   class carries member [m]; when several labels qualify, prefer the one
   generated for the same record name as the old class. *)
let top_route ~old_classes ~old_c classes d m =
  match find_class classes d with
  | None -> None
  | Some cls ->
      let candidates =
        List.filter_map
          (fun (md : member_def) ->
            match md.member_ty with
            | TOption (TClass c') ->
                if member_ty classes c' m <> None then Some (md.member_name, c')
                else None
            | _ -> None)
          cls.members
      in
      let old_nu = record_name_of_class old_classes old_c in
      let preferred =
        List.find_opt
          (fun (_, c') ->
            old_nu <> None && record_name_of_class classes c' = old_nu)
          candidates
      in
      (match preferred with
      | Some _ -> preferred
      | None -> ( match candidates with c :: _ -> Some c | [] -> None))

let rec rewrite ~new_classes ~old_classes env (e : expr) :
    (expr * ty * ty, error) result =
  let recur = rewrite ~new_classes ~old_classes env in
  match e with
  | EVar x -> (
      match List.assoc_opt x env with
      | Some { old_ty; new_ty } -> Ok (EVar x, old_ty, new_ty)
      | None -> err "unbound variable %s" x)
  | EMember (e0, m) ->
      let* e0', ot0, nt0 = recur e0 in
      member_access ~new_classes ~old_classes (e0', ot0, nt0) m
  | EEq (e1, e2) ->
      let* e1', ot1, nt1 = recur e1 in
      let* e2', ot2, nt2 = recur e2 in
      if not (ty_equal ot1 ot2) then err "ill-typed source equality"
      else if ty_equal nt1 nt2 then Ok (EEq (e1', e2'), TBool, TBool)
      else
        (* realign both sides to the old interface; corresponding new
           classes wrap the same underlying data, so comparing at the
           realigned new types agrees with the old comparison *)
        let* e1'', nt1' = realign ~new_classes ~old_classes e1' ot1 nt1 in
        let* e2'', nt2' = realign ~new_classes ~old_classes e2' ot2 nt2 in
        if ty_equal nt1' nt2' then Ok (EEq (e1'', e2''), TBool, TBool)
        else
          (* last resort: coerce both sides fully back to the old type *)
          let* f1 = coerce ~new_classes ~old_classes nt1' ot1 in
          let* f2 = coerce ~new_classes ~old_classes nt2' ot2 in
          Ok (EEq (f1 e1'', f2 e2''), TBool, TBool)
  | EIf (c, t, f) ->
      let* c', otc, ntc = recur c in
      if not (ty_equal otc TBool) then err "ill-typed source condition"
      else
        let* fc = coerce ~new_classes ~old_classes ntc TBool in
        let* t', ott, ntt = branch recur t in
        let* f', otf, ntf = branch recur f in
        let* body_t, body_f, ot, nt =
          join_branches ~new_classes ~old_classes (t', ott, ntt) (f', otf, ntf)
        in
        Ok (EIf (fc c', body_t, body_f), ot, nt)
  | EMatchOption (e0, x, e1, e2) -> (
      let* e0', ot0, nt0 = recur e0 in
      let* e0', nt0 = realign ~new_classes ~old_classes e0' ot0 nt0 in
      match (ot0, nt0) with
      | TOption otx, TOption ntx ->
          let env' = (x, { old_ty = otx; new_ty = ntx }) :: env in
          let* e1', ot1, nt1 =
            branch (rewrite ~new_classes ~old_classes env') e1
          in
          let* e2', ot2, nt2 = branch recur e2 in
          let* b1, b2, ot, nt =
            join_branches ~new_classes ~old_classes (e1', ot1, nt1)
              (e2', ot2, nt2)
          in
          Ok (EMatchOption (e0', x, b1, b2), ot, nt)
      | _ -> err "option match on a non-option")
  | EMatchList (e0, x1, x2, e1, e2) -> (
      let* e0', ot0, nt0 = recur e0 in
      let* e0', nt0 = realign ~new_classes ~old_classes e0' ot0 nt0 in
      match (ot0, nt0) with
      | TList otx, TList ntx ->
          let env' =
            (x1, { old_ty = otx; new_ty = ntx })
            :: (x2, { old_ty = ot0; new_ty = nt0 })
            :: env
          in
          let* e1', ot1, nt1 =
            branch (rewrite ~new_classes ~old_classes env') e1
          in
          let* e2', ot2, nt2 = branch recur e2 in
          let* b1, b2, ot, nt =
            join_branches ~new_classes ~old_classes (e1', ot1, nt1)
              (e2', ot2, nt2)
          in
          Ok (EMatchList (e0', x1, x2, b1, b2), ot, nt)
      | _ -> err "list match on a non-list")
  | ESome e1 ->
      let* e1', ot1, nt1 = recur e1 in
      Ok (ESome e1', TOption ot1, TOption nt1)
  | EOp (IntOfFloat e1) ->
      (* the user program may already contain the rule 3 coercion *)
      let* e1', ot1, nt1 = recur e1 in
      let* f =
        match nt1 with
        | TInt | TFloat -> Ok (fun e -> e)
        | TOption ((TInt | TFloat) as inner) ->
            let* g = coerce ~new_classes ~old_classes (TOption inner) inner in
            Ok g
        | t -> err "int(e) applied to %s after migration" (ty_to_string t)
      in
      ignore ot1;
      Ok (EOp (IntOfFloat (f e1')), TInt, TInt)
  | EExn -> err "exn outside a branch position"
  | EData _ | EDate _ | ENone _ | ENil _ | ECons _ | EApp _ | ELam _ | ENew _
  | EOp _ ->
      err "construct outside the migratable user fragment: %s"
        (expr_to_string e)

(* exn is polymorphic: a branch that is literally exn adopts the other
   branch's types *)
and branch recur e =
  match e with
  | EExn -> Ok (EExn, TData, TData) (* placeholder; fixed in join *)
  | _ -> recur e

and join_branches ~new_classes ~old_classes (e1, ot1, nt1) (e2, ot2, nt2) =
  match (e1, e2) with
  | EExn, EExn -> Ok (e1, e2, ot2, nt2)
  | EExn, _ -> Ok (e1, e2, ot2, nt2)
  | _, EExn -> Ok (e1, e2, ot1, nt1)
  | _ ->
      if not (ty_equal ot1 ot2) then err "ill-typed source branches"
      else if ty_equal nt1 nt2 then Ok (e1, e2, ot1, nt1)
      else
        (* branches evolved differently: settle both on the old type *)
        let* f1 = coerce ~new_classes ~old_classes nt1 ot1 in
        let* f2 = coerce ~new_classes ~old_classes nt2 ot2 in
        Ok (f1 e1, f2 e2, ot1, ot1)

and member_access ~new_classes ~old_classes (e0, ot0, nt0) m =
  (* the old program accessed member m on a value of old class ot0 *)
  let* old_c =
    match ot0 with
    | TClass c -> Ok c
    | t -> err "member access on old non-class type %s" (ty_to_string t)
  in
  let* old_m_ty =
    match member_ty old_classes old_c m with
    | Some t -> Ok t
    | None -> err "old class %s has no member %s" old_c m
  in
  (* normalize the new side: strip options (rule 1) until a class *)
  let rec route e0 nt =
    match nt with
    | TOption nt' -> route (unwrap (fun v -> v) e0) nt'
    | TClass d -> (
        match member_ty new_classes d m with
        | Some new_m_ty -> Ok (EMember (e0, m), new_m_ty)
        | None -> (
            (* rule 2: the class became a label of a top *)
            match top_route ~old_classes ~old_c new_classes d m with
            | Some (k, c') -> (
                let selected = unwrap (fun v -> v) (EMember (e0, k)) in
                match member_ty new_classes c' m with
                | Some new_m_ty -> Ok (EMember (selected, m), new_m_ty)
                | None -> err "label class %s lost member %s" c' m)
            | None -> err "no route to member %s in new class %s" m d))
    | t -> err "member access on new non-class type %s" (ty_to_string t)
  in
  let* e', new_m_ty = route e0 nt0 in
  Ok (e', old_m_ty, new_m_ty)

(* The rewrite draws binder names from a process-global counter, so the
   same input migrated twice (or via different version chains) would
   differ only in the [mig%N] suffixes. Renumbering them in traversal
   order makes the output a function of the input alone — composed
   migrations agree byte-for-byte and cached responses are
   reproducible. Generated names are globally unique, so a flat
   old-name -> canonical-name map cannot capture. *)
let normalize_fresh e =
  let map = Hashtbl.create 8 in
  let next = ref 0 in
  let is_fresh x = String.length x > 4 && String.sub x 0 4 = "mig%" in
  let bind x =
    if is_fresh x && not (Hashtbl.mem map x) then begin
      incr next;
      Hashtbl.replace map x (Printf.sprintf "mig%%%d" !next)
    end
  in
  let name x = match Hashtbl.find_opt map x with Some y -> y | None -> x in
  let rec go e =
    match e with
    | EData _ | EDate _ | ENone _ | ENil _ | EExn -> e
    | EVar x -> EVar (name x)
    | ELam (x, ty, body) ->
        bind x;
        ELam (name x, ty, go body)
    | EApp (e1, e2) -> EApp (go e1, go e2)
    | EMember (e1, m) -> EMember (go e1, m)
    | ENew (c, args) -> ENew (c, List.map go args)
    | ESome e1 -> ESome (go e1)
    | EMatchOption (e0, x, e1, e2) ->
        bind x;
        let e0 = go e0 in
        EMatchOption (e0, name x, go e1, go e2)
    | EEq (e1, e2) -> EEq (go e1, go e2)
    | EIf (e1, e2, e3) -> EIf (go e1, go e2, go e3)
    | ECons (e1, e2) -> ECons (go e1, go e2)
    | EMatchList (e0, x1, x2, e1, e2) ->
        bind x1;
        bind x2;
        let e0 = go e0 in
        EMatchList (e0, name x1, name x2, go e1, go e2)
    | EOp op -> EOp (go_op op)
  and go_op op =
    match op with
    | ConvFloat (s, e1) -> ConvFloat (s, go e1)
    | ConvPrim (s, e1) -> ConvPrim (s, go e1)
    | ConvField (a, b, e1, e2) -> ConvField (a, b, go e1, go e2)
    | ConvNull (e1, e2) -> ConvNull (go e1, go e2)
    | ConvElements (e1, e2) -> ConvElements (go e1, go e2)
    | HasShape (s, e1) -> HasShape (s, go e1)
    | ConvBool e1 -> ConvBool (go e1)
    | ConvDate e1 -> ConvDate (go e1)
    | ConvSelect (s, m, e1, e2) -> ConvSelect (s, m, go e1, go e2)
    | IntOfFloat e1 -> IntOfFloat (go e1)
  in
  go e

let migrate ~(old_provided : Provide.t) ~(new_provided : Provide.t) e =
  let old_classes = old_provided.Provide.classes in
  let new_classes = new_provided.Provide.classes in
  let env =
    [
      ( "y",
        {
          old_ty = old_provided.Provide.root_ty;
          new_ty = new_provided.Provide.root_ty;
        } );
    ]
  in
  let* e', ot, nt = rewrite ~new_classes ~old_classes env e in
  (* restore the program's original type (Remark 1: same τ) *)
  let* f = coerce ~new_classes ~old_classes nt ot in
  Ok (normalize_fresh (f e'))

open Shape

type mismatch = { at : string; input : Shape.t; expected : Shape.t; reason : string }

let pp_mismatch ppf m =
  Fmt.pf ppf "@[<hov 2>at %s:@ %a is not preferred over %a@ (%s)@]"
    (if m.at = "" then "the root" else m.at)
    Shape.pp m.input Shape.pp m.expected m.reason

let mk at input expected reason = { at; input; expected; reason }

(* Mirrors Preference.is_preferred; returns [] iff the relation holds. *)
let rec go at (s1 : Shape.t) (s2 : Shape.t) : mismatch list =
  match (s1, s2) with
  | _, Top _ -> []
  | Bottom, _ -> []
  | Null, (Null | Nullable _) -> []
  | Null, Collection entries -> (
      match List.filter (fun (e : entry) -> e.shape <> Null) entries with
      | [] | [ _ ] -> []
      | consumers ->
          if
            List.for_all
              (fun (e : entry) -> e.mult <> Multiplicity.Single)
              consumers
          then []
          else
            [
              mk at s1 s2
                "null reads as the empty collection, but an entry is \
                 required exactly once (rule 2 / Section 6.4)";
            ])
  | Null, _ ->
      [ mk at s1 s2 "null is only preferred over nullable shapes (rule 2)" ]
  | Primitive a, Primitive b ->
      if Preference.is_preferred_primitive a b then []
      else [ mk at s1 s2 "no primitive conversion (rules 1, Section 6.2)" ]
  | Primitive a, Nullable (Primitive b) ->
      if Preference.is_preferred_primitive a b then []
      else [ mk at s1 s2 "no primitive conversion under the nullable (rules 1, 3)" ]
  | Record r1, Record r2 -> record at r1 r2 s1 s2
  | Record r1, Nullable (Record r2) -> record at r1 r2 s1 s2
  | Nullable a, Nullable b -> go (at ^ "?") a b
  | Collection e1, Collection e2 -> entries at e1 e2 s1 s2
  | _ ->
      [
        mk at s1 s2
          "shapes of different kinds are unrelated (only any is above both)";
      ]

and record at r1 r2 s1 s2 =
  if not (String.equal r1.name r2.name) then
    [ mk at s1 s2 "records with different names are unrelated (rule 8)" ]
  else
    let input = Fields.cursor r1.fields in
    List.concat_map
      (fun (field, f2) ->
        let fat = Printf.sprintf "%s.%s" at field in
        match Fields.take input field with
        | Some f1 -> go fat f1 f2
        | None ->
            if Preference.is_preferred Null f2 then []
            else
              [
                mk fat Null f2
                  "the field is missing from the input and its shape does \
                   not admit null (rules 8-9)";
              ])
      r2.fields

and entries at e1 e2 s1 s2 =
  let non_null = List.filter (fun (e : entry) -> e.shape <> Null) in
  let has_null es = List.exists (fun (e : entry) -> e.shape = Null) es in
  match non_null e2 with
  | [] ->
      let ok = if has_null e2 then non_null e1 = [] else e1 = [] in
      if ok then []
      else
        [
          mk at s1 s2
            "the consumer observed no elements; only empty/null input \
             collections conform (rule 5 at bottom)";
        ]
  | [ f ] ->
      List.concat_map
        (fun (e : entry) ->
          if e.shape = Null then
            if has_null e2 || Preference.is_preferred Null f.shape then []
            else
              [
                mk (at ^ "[]") Null f.shape
                  "the input contains null elements but the consumer never \
                   observed any";
              ]
          else go (at ^ "[]") e.shape f.shape)
        e1
  | consumers ->
      List.concat_map
        (fun (f : entry) ->
          let tag = tagof f.shape in
          match
            List.find_opt (fun (e : entry) -> Tag.equal (tagof e.shape) tag) e1
          with
          | Some e ->
              go (at ^ "[]") e.shape f.shape
              @
              if Multiplicity.is_preferred e.mult f.mult then []
              else
                [
                  mk (at ^ "[]") e.shape f.shape
                    (Fmt.str
                       "multiplicity %a is not within the consumer's %a \
                        (Section 6.4)"
                       Multiplicity.pp e.mult Multiplicity.pp f.mult);
                ]
          | None -> (
              match f.mult with
              | Multiplicity.Single ->
                  [
                    mk (at ^ "[]") Shape.Bottom f.shape
                      "the consumer requires exactly one element of this \
                       tag, and the input has none (Section 6.4)";
                  ]
              | Multiplicity.Optional_single | Multiplicity.Multiple -> []))
        consumers

let explain input consumer = go "" input consumer

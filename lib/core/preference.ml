open Shape

let is_preferred_primitive (a : primitive) (b : primitive) =
  match (a, b) with
  | x, y when x = y -> true
  | (Bit0 | Bit1), (Bit | Bool | Int | Float) -> true
  | Bit, (Bool | Int | Float) -> true
  | Int, Float -> true
  | Date, String -> true
  | _ -> false

let rec is_preferred s1 s2 =
  match (s1, s2) with
  (* s ⊑ any, with labelled tops behaving as the top shape regardless of
     labels (Section 3.5). *)
  | _, Top _ -> true
  | Bottom, _ -> true
  | Null, (Null | Nullable _) -> true
  | Null, Collection entries -> (
      (* null reads as the empty collection: fine unless the consumer is a
         tag-dispatched class (>= 2 non-null entries) with an entry
         required to occur exactly once *)
      match List.filter (fun (e : entry) -> e.shape <> Null) entries with
      | [] | [ _ ] -> true
      | consumers ->
          List.for_all
            (fun (e : entry) -> e.mult <> Multiplicity.Single)
            consumers)
  | Null, _ -> false
  | Primitive a, Primitive b -> is_preferred_primitive a b
  | Primitive a, Nullable (Primitive b) -> is_preferred_primitive a b
  | Record r1, Record r2 -> record_preferred r1 r2
  | Record r1, Nullable (Record r2) -> record_preferred r1 r2
  | Nullable a, Nullable b -> is_preferred a b
  | Collection e1, Collection e2 -> entries_preferred e1 e2
  | _ -> false

and record_preferred r1 r2 =
  String.equal r1.name r2.name
  &&
  let input = Fields.cursor r1.fields in
  List.for_all
    (fun (field, s2) ->
      match Fields.take input field with
      | Some s1 -> is_preferred s1 s2
      | None ->
          (* Null-field extension: a missing field reads as null via
             convField, so the consumer's field shape must admit null. *)
          is_preferred Null s2)
    r2.fields

and entries_preferred e1 e2 =
  (* The meaning of [⊑] on collections follows the code the type provider
     generates for the consumer shape (which is what safety is about):

     - no non-null entry: the element type is the opaque [⊥]/null class;
       we keep the paper's conservative rule [[s] ⊑ [⊥] iff s ⊑ ⊥];
     - exactly one non-null entry: a homogeneous list — every input
       element is converted, so every input entry shape must be preferred
       over the element shape (made nullable when the consumer also saw
       null elements, since the provider then produces an option list);
     - several non-null entries: a tag-dispatched class (Section 6.4) —
       each consumer entry must be matched by tag with preferred shape and
       multiplicity, or be absent-tolerant ([1?] or [*]); input entries
       with tags unknown to the consumer are never accessed, and null
       elements fail every member's shape test, so both are permitted. *)
  let non_null = List.filter (fun (e : entry) -> e.shape <> Null) in
  let has_null es = List.exists (fun (e : entry) -> e.shape = Null) es in
  match non_null e2 with
  | [] ->
      (* Paper rule (5) at the degenerate element shapes: [s] ⊑ [⊥] only
         for s = ⊥, and [⊥] ⊑ [null] since ⊥ ⊑ null. *)
      if has_null e2 then non_null e1 = [] else e1 = []
  | [ f ] ->
      (* Null input entries are safe when the consumer saw nulls (its
         element conversion is then optional), or when the element shape
         itself absorbs null safely. *)
      List.for_all
        (fun (e : entry) ->
          if e.shape = Null then has_null e2 || is_preferred Null f.shape
          else is_preferred e.shape f.shape)
        e1
  | consumer ->
      List.for_all
        (fun (f : entry) ->
          let tag = tagof f.shape in
          match
            List.find_opt (fun (e : entry) -> Tag.equal (tagof e.shape) tag) e1
          with
          | Some e ->
              is_preferred e.shape f.shape
              && Multiplicity.is_preferred e.mult f.mult
          | None -> (
              match f.mult with
              | Multiplicity.Single -> false
              | Multiplicity.Optional_single | Multiplicity.Multiple -> true))
        consumer

let equivalent a b = is_preferred a b && is_preferred b a

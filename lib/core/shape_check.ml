open Fsdata_data

let tag_of_data (d : Data_value.t) : Tag.t =
  match d with
  | Null -> Tag.Null
  | Bool _ -> Tag.Bool
  | Int _ | Float _ -> Tag.Number
  | String _ -> Tag.String
  | List _ -> Tag.Collection
  | Record (name, _) -> Tag.Record name

let admits_null (s : Shape.t) =
  match s with
  | Null | Nullable _ | Collection _ | Top _ -> true
  | Bottom | Primitive _ | Record _ -> false

let rec has_shape (s : Shape.t) (d : Data_value.t) =
  match (s, d) with
  | Bottom, _ -> false
  | Null, Null -> true
  | Null, _ -> false
  | Top _, _ -> true
  | Nullable s', d -> d = Null || has_shape s' d
  | Primitive Shape.String, String _ -> true
  | Primitive Shape.Int, Int _ -> true
  (* 0/1 data conforms to bool (bit ⊑ bool): the bool conversion accepts
     it, so the runtime shape test must too *)
  | Primitive Shape.Bool, (Bool _ | Int (0 | 1)) -> true
  | Primitive Shape.Float, (Int _ | Float _) -> true
  | Primitive Shape.Bit, Int (0 | 1) -> true
  | Primitive Shape.Bit0, Int 0 -> true
  | Primitive Shape.Bit1, Int 1 -> true
  | Primitive Shape.Date, String str -> Date.is_date str
  | Primitive _, _ -> false
  | Record { name; fields }, Record (name', fields') ->
      String.equal name name'
      &&
      let data = Fields.cursor fields' in
      List.for_all
        (fun (f, fs) ->
          match Fields.take data f with
          | Some v -> has_shape fs v
          | None -> admits_null fs)
        fields
  | Record _, _ -> false
  | Collection entries, Null ->
      (* hasShape([s], null) ⇝ true — unless some heterogeneous entry is
         required exactly once, which the empty collection cannot supply
         (the guard must protect the Single-typed member, Lemma 2) *)
      no_single_required entries
  | Collection entries, List ds -> elements_have_shape entries ds
  | Collection _, _ -> false

and no_single_required entries =
  (* Multiplicities only matter when the provider emits per-tag members,
     i.e. for collections with at least two non-null entries; single-entry
     collections provide plain lists whatever the multiplicity. *)
  match List.filter (fun (e : Shape.entry) -> e.shape <> Shape.Null) entries with
  | [] | [ _ ] -> true
  | consumers ->
      List.for_all
        (fun (e : Shape.entry) -> e.mult <> Multiplicity.Single)
        consumers

and elements_have_shape entries ds =
  let non_null =
    List.filter (fun (e : Shape.entry) -> e.shape <> Shape.Null) entries
  in
  let has_null_entry =
    List.exists (fun (e : Shape.entry) -> e.shape = Shape.Null) entries
  in
  match non_null with
  | [] -> List.for_all (fun d -> d = Data_value.Null) ds
  | [ f ] ->
      List.for_all
        (fun d ->
          if d = Data_value.Null then
            has_null_entry || has_shape f.shape Data_value.Null
          else has_shape f.shape d)
        ds
  | consumers ->
      List.for_all
        (fun d ->
          d = Data_value.Null
          ||
          let t = tag_of_data d in
          match
            List.find_opt
              (fun (e : Shape.entry) -> Tag.equal (Shape.tagof e.shape) t)
              consumers
          with
          | Some e -> has_shape e.shape d
          | None -> true (* unknown tag: never accessed, open world *))
        ds
      && (* exactly-once entries must actually be matched by some element,
            or the Single-typed member would get stuck *)
      List.for_all
        (fun (e : Shape.entry) ->
          e.mult <> Multiplicity.Single
          || List.exists (fun d -> has_shape e.shape d) ds)
        consumers

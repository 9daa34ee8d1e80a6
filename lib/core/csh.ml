open Shape

type mode = [ `Core | `Hetero | `Xml ]

(* Observability (docs/OBSERVABILITY.md): [csh.merges] counts every
   binary join performed, including the recursive sub-joins on record
   fields and collection entries — the true amount of join work, which
   the chunked parallel pipeline redistributes but must not change.
   [csh.top_label_saturations] counts primitive labels collapsed by the
   canonical-form saturation (b) below; a high rate signals corpora
   whose labelled tops keep re-canonicalizing. *)
let m_merges = Fsdata_obs.Metrics.counter "csh.merges"

let m_saturations =
  Fsdata_obs.Metrics.counter "csh.top_label_saturations"

(* The primitive join underlying rule (num) and the Section 6.2 lattice:
   int ⊔ float = float, bit ⊔ int = int, bit ⊔ bool = bool,
   bit ⊔ float = float, date ⊔ string = string; [None] when the only
   upper bound is a top (e.g. int ⊔ bool). *)
let join_primitives (a : primitive) (b : primitive) =
  if a = b then Some a
  else
    match (a, b) with
    | Bit0, Bit1 | Bit1, Bit0 -> Some Bit
    | (Bit0 | Bit1), ((Bit | Bool | Int | Float) as o)
    | ((Bit | Bool | Int | Float) as o), (Bit0 | Bit1) ->
        Some o
    | Bit, ((Bool | Int | Float) as o) | ((Bool | Int | Float) as o), Bit -> Some o
    | Int, Float | Float, Int -> Some Float
    | Date, String | String, Date -> Some String
    | _ -> None

(* Canonical form for top labels. Both adjustments exist to make csh
   associative at the representation level (not merely up to
   ⊑-equivalence), which a parallel run's join of its batches relies on:

   (a) a collection label's exactly-one entries weaken to zero-or-one.
       A top implicitly permits null and a null sample reads as an
       empty collection, so an element of a collection label can always
       be absent; without the weakening, whether a null sample met the
       collection before or after the top formed would change the
       resulting multiplicity.

   (b) primitive labels are saturated under {!join_primitives} across
       tag families (bit ⊔ bool = bool, date ⊔ string = string),
       matching what rule (num) does to the same primitives outside a
       top. Tag-wise label grouping alone would keep e.g. bit and bool
       as two labels when the bare primitives join to bool, so the
       result would depend on whether they met inside or outside the
       top. *)
let widen_collection_label = function
  | Collection entries ->
      Collection
        (List.map
           (fun (e : entry) -> { e with mult = Multiplicity.widen_absent e.mult })
           entries)
  | s -> s

let canonical_top labels =
  let labels = List.map widen_collection_label labels in
  let prims, others =
    List.partition_map
      (function Primitive p -> Either.Left p | s -> Either.Right s)
      labels
  in
  (* Insert primitives one at a time, re-inserting the join whenever one
     exists; terminates because the primitive lattice has finite height. *)
  let rec insert p acc =
    let rec scan seen = function
      | [] -> p :: acc
      | q :: rest -> (
          match join_primitives p q with
          | Some j ->
              Fsdata_obs.Metrics.incr m_saturations;
              insert j (List.rev_append seen rest)
          | None -> scan (q :: seen) rest)
    in
    scan [] acc
  in
  let prims = List.fold_left (fun acc p -> insert p acc) [] prims in
  Shape.top (List.rev_map (fun p -> Primitive p) prims @ others)

let rec csh ?(mode : mode = `Hetero) s1 s2 =
  Fsdata_obs.Metrics.incr m_merges;
  (* (eq) *)
  if Shape.equal s1 s2 then s1
  else
    match (s1, s2) with
    (* (list) *)
    | Collection e1, Collection e2 -> merge_collections ~mode e1 e2
    (* (bot) *)
    | Bottom, s | s, Bottom -> s
    (* (null): ⌈s⌉, except that a null sample reads as an *empty*
       collection ("null values are treated as empty collections"), so
       exactly-one entries of a heterogeneous collection weaken to
       zero-or-one, as when merging with an empty collection. *)
    | Null, Collection entries | Collection entries, Null ->
        Collection
          (List.map
             (fun (e : entry) -> { e with mult = Multiplicity.widen_absent e.mult })
             entries)
    | Null, s | s, Null -> Shape.nullable s
    (* (top-merge) *)
    | Top l1, Top l2 -> top_merge ~mode l1 l2
    (* (top-incl) / (top-add); like every rule here, the join keeps its
       left operand's field order *)
    | Top labels, s -> top_include labels s (fun l0 label -> csh ~mode l0 label)
    | s, Top labels -> top_include labels s (fun l0 label -> csh ~mode label l0)
    (* (num), extended with the Section 6.2 primitive lattice *)
    | Primitive p1, Primitive p2 -> (
        match join_primitives p1 p2 with
        | Some p -> Primitive p
        | None -> top_any s1 s2)
    (* (opt) *)
    | Nullable a, Nullable b -> Shape.nullable (csh ~mode a b)
    | Nullable a, s -> Shape.nullable (csh ~mode a s)
    | s, Nullable a -> Shape.nullable (csh ~mode s a)
    (* (recd) with the row-variable treatment of one-sided fields *)
    | Record r1, Record r2 when String.equal r1.name r2.name ->
        Record (merge_records ~mode r1 r2)
    (* (top-any) *)
    | _ -> top_any s1 s2

and merge_records ~mode r1 r2 =
  (* Fields present on both sides are joined recursively; one-sided fields
     become nullable. This realizes Figure 3's minimal ground substitution
     for row variables: the extra fields a record may or may not have are
     exactly the fields its row variable stands for, and [⌈θ(ρ)⌉] makes
     them nullable. Field order: left-to-right first appearance. *)
  (* A one-sided field joins with "absent", which reads as null (that is
     what convField produces for it), so the join is csh(null, s) = ⌈s⌉ —
     in particular a one-sided ⊥ field becomes null, not ⊥. *)
  {
    name = r1.name;
    fields =
      Fields.join ~both:(csh ~mode) ~one:(csh ~mode Null) r1.fields r2.fields;
  }

and merge_collections ~mode e1 e2 =
  match mode with
  | `Xml -> (
      (* Single-entry discipline: join the element shapes of both sides
         (producing a labelled top when they differ) and combine the
         multiplicities; an entry missing on one side means the element is
         sometimes absent, weakening Single to Optional_single. *)
      let join es =
        match es with
        | [] -> None
        | e :: rest ->
            Some
              (List.fold_left
                 (fun (s, m) (e : entry) ->
                   (csh ~mode s e.shape, Multiplicity.lub m e.mult))
                 (e.shape, e.mult) rest)
      in
      match (join e1, join e2) with
      | None, None -> Collection []
      | Some (s, m), None | None, Some (s, m) ->
          Collection [ { shape = s; mult = Multiplicity.widen_absent m } ]
      | Some (s1, m1), Some (s2, m2) ->
          Collection
            [ { shape = csh ~mode s1 s2; mult = Multiplicity.lub m1 m2 } ])
  | `Core ->
      (* Rule (list) of Figure 2: a homogeneous collection of the join of
         all element shapes. *)
      let shapes = List.map (fun e -> e.shape) (e1 @ e2) in
      Shape.collection (csh_all ~mode shapes)
  | `Hetero ->
      (* Section 6.4: merge entries with the same tag (joining shapes and
         taking the multiplicity lub); a tag present on one side only has
         its multiplicity widened, since the other sample's collections can
         lack it. *)
      let tag_of (e : entry) = Shape.tagof e.shape in
      let tags =
        List.sort_uniq Tag.compare (List.map tag_of e1 @ List.map tag_of e2)
      in
      let find es t = List.find_opt (fun e -> Tag.equal (tag_of e) t) es in
      let merged =
        List.map
          (fun t ->
            match (find e1 t, find e2 t) with
            | Some a, Some b ->
                (csh ~mode a.shape b.shape, Multiplicity.lub a.mult b.mult)
            | Some a, None | None, Some a ->
                (a.shape, Multiplicity.widen_absent a.mult)
            | None, None -> assert false)
          tags
      in
      Collection (regroup_entries ~mode merged)

and regroup_entries ~mode pairs =
  (* Joining two same-tag entry shapes almost always preserves the tag, but
     corner cases (e.g. two differently-shaped nullable entries joining
     into a labelled top) can move an entry to a new tag; fold entries in
     one at a time, re-joining on collision, until tags are distinct. *)
  let rec add acc (s, m) =
    let t = Shape.tagof s in
    match
      List.partition (fun (e : entry) -> Tag.equal (Shape.tagof e.shape) t) acc
    with
    | [], _ -> { shape = s; mult = m } :: acc
    | [ e0 ], rest -> add rest (csh ~mode e0.shape s, Multiplicity.lub e0.mult m)
    | _ -> assert false
  in
  let entries = List.fold_left add [] pairs in
  List.sort (fun a b -> Tag.compare (Shape.tagof a.shape) (Shape.tagof b.shape)) entries

and top_merge ~mode l1 l2 =
  (* (top-merge): group the labels of the two tops by tag, joining labels
     that share a tag. *)
  let tags = List.sort_uniq Tag.compare (List.map Shape.tagof (l1 @ l2)) in
  let find ls t = List.find_opt (fun l -> Tag.equal (Shape.tagof l) t) ls in
  let labels =
    List.map
      (fun t ->
        match (find l1 t, find l2 t) with
        | Some a, Some b -> Shape.strip_nullable (csh ~mode a b)
        | Some a, None | None, Some a -> a
        | None, None -> assert false)
      tags
  in
  canonical_top labels

and top_include labels s join =
  (* s is neither bottom, null nor a top here. Labels are non-nullable, so
     strip a nullable wrapper first (Figure 4 applies ⌊−⌋). [join l0
     label] joins the top's label of that tag with s's, in the order of
     the operands. *)
  let label = Shape.strip_nullable s in
  let t = Shape.tagof label in
  match List.partition (fun l -> Tag.equal (Shape.tagof l) t) labels with
  (* (top-add) *)
  | [], _ -> canonical_top (label :: labels)
  (* (top-incl) *)
  | [ l0 ], rest ->
      canonical_top (Shape.strip_nullable (join l0 label) :: rest)
  | _ -> assert false

and top_any s1 s2 =
  (* (top-any): two shapes with distinct tags and no smaller upper bound. *)
  canonical_top [ Shape.strip_nullable s1; Shape.strip_nullable s2 ]

and csh_all ?(mode : mode = `Hetero) shapes =
  List.fold_left (fun acc s -> csh ~mode acc s) Bottom shapes

(* --- absorption: deciding csh σ δ = σ without building the join ---

   [absorbs] follows csh's rule order case by case and answers whether
   the join would equal its left operand; only tops and collections on
   the left fall back to computing the join. Facts it relies on, all
   read off the rules above: a join with ⊥ is the other side; a join
   with null (or with an absent field) leaves exactly nulls, nullables,
   tops and collections whose entries [widen_absent] fixes; a primitive
   or record on the left absorbs only a primitive it joins to itself or
   a same-named record whose every field it absorbs (any other pairing
   yields a top or a nullable); and the join of two non-nullable shapes
   is never nullable, so a nullable absorbs what its payload absorbs. *)

(* [Shape.equal (csh Null s) s]: the absent-field rule leaves [s] as it
   is *)
let absent_ok = function
  | Null | Nullable _ | Top _ -> true
  | Collection entries ->
      List.for_all
        (fun (e : entry) -> Multiplicity.equal (Multiplicity.widen_absent e.mult) e.mult)
        entries
  | Bottom | Primitive _ | Record _ -> false

module Raw = Fsdata_data.Json.Raw

(* The index of a shape for repeated absorption queries: every record
   of σ gets its own field table, so a query walks δ through the tables
   and builds none. Any other subtree is [Whole], with a memo of the
   literals it absorbs, but a collection or a top, whose entries or
   labels are indexed in turn ([Parts]). *)
type index =
  | Fields_of of table
  | Payload_of of Shape.t * table  (* σ = nullable ρ, with ρ's table *)
  | Whole of { sigma : Shape.t; memo : Bytes.t }
  | Parts of parts

(* A collection or a top with its memo: [tags] and [inner] are its
   entries or labels, by tag, and their indices; [mults] are a
   collection's entry multiplicities. The element walk in progress
   counts its elements per entry in [counts]; [keyed] says whether it
   finds entries by tag (Section 6.4) or takes the one entry whatever
   the tag. *)
and parts = {
  sigma : Shape.t;
  memo : Bytes.t;
  tags : Tag.t array;
  inner : index array;
  mults : Multiplicity.t array;
  counts : int array;
  mutable keyed : bool;
}

(* A record's fields in σ's order, their indices and key table, and
   the walk in progress: [met.(i)] is the number of the last walk that
   met field [i], and [hits] counts the required fields it met. *)
and table = {
  record : Shape.t;
  name : string;
  names : string array;
  subs : index array;
  keys : Raw.keys;  (* stops at a key that is no name *)
  needed : bool array;  (* fields that an absence would change *)
  required : int;
  met : int array;
  mutable walks : int;
  mutable hits : int;
}

let rec index sigma =
  match sigma with
  | Record r -> Fields_of (make_table sigma r)
  | Nullable (Record r as rho) -> Payload_of (sigma, make_table rho r)
  | (Collection _ | Top _) as sigma ->
      let parts =
        Array.of_list
          (match sigma with
          | Collection entries -> List.map (fun (e : entry) -> (e.shape, e.mult)) entries
          | Top labels -> List.map (fun l -> (l, Multiplicity.Multiple)) labels
          | _ -> [])
      in
      Parts
        {
          sigma;
          memo = Bytes.make 8 '\000';
          tags = Array.map (fun (s, _) -> Shape.tagof s) parts;
          inner = Array.map (fun (s, _) -> index s) parts;
          mults = Array.map snd parts;
          counts = Array.make (Array.length parts) 0;
          keyed = true;
        }
  | sigma -> Whole { sigma; memo = Bytes.make 8 '\000' }

and make_table record r =
  let names = Array.of_list (List.map fst r.fields) in
  let subs = Array.of_list (List.map (fun (_, f) -> index f) r.fields) in
  let keys = Raw.keys ~skip:false names in
  let needed = Array.of_list (List.map (fun (_, f) -> not (absent_ok f)) r.fields) in
  let required = Array.fold_left (fun n b -> if b then n + 1 else n) 0 needed in
  let met = Array.make (Array.length names) 0 in
  { record; name = r.name; names; subs; keys; needed; required; met; walks = 0; hits = 0 }

let indexed = function
  | Fields_of t -> t.record
  | Payload_of (sigma, _) | Whole { sigma; _ } | Parts { sigma; _ } -> sigma

(* The record step, a field at a time. A walk of a record named [name]
   starts at its table, meets each field it reads once, and is absorbed
   when every field was one of σ's, met once and absorbed there, and
   every field of σ that an absence would change was met. The stamps
   make a name repeated in the walk (which a data record may carry, and
   S rejects) fail it; with names unique, counting the required fields
   met suffices. *)
let rec find_tag tags tag k =
  if k = Array.length tags then -1
  else if Tag.equal tags.(k) tag then k
  else find_tag tags tag (k + 1)

(* A top's label of a tag: csh joins a sample of that tag with the label
   alone (top-incl), or adds it (top-add) *)
let label w tag =
  match w.sigma with
  | Top _ -> (match find_tag w.tags tag 0 with -1 -> None | k -> Some w.inner.(k))
  | _ -> None

let rec table idx name =
  match idx with
  | (Fields_of t | Payload_of (_, t)) when String.equal t.name name ->
      t.walks <- t.walks + 1;
      t.hits <- 0;
      Some t
  | Parts w -> Option.bind (label w (Tag.Record name)) (fun l -> table l name)
  | Fields_of _ | Payload_of _ | Whole _ -> None

let meet t i =
  t.met.(i) <> t.walks
  && begin
       t.met.(i) <- t.walks;
       if t.needed.(i) then t.hits <- t.hits + 1;
       true
     end

let complete t = t.hits = t.required

(* Fields looked up in σ's order first: the field after the one last
   met, then the table. *)
let absorbs_record idx name fields absorbs_field =
  match table idx name with
  | None -> false
  | Some t ->
      let rec go next = function
        | [] -> complete t
        | (name, x) :: rest ->
            let i =
              if next < Array.length t.names && String.equal t.names.(next) name then next
              else Raw.find t.keys name
            in
            i >= 0 && meet t i && absorbs_field t.subs.(i) x && go (i + 1) rest
      in
      go 0 fields

let rec absorbs_shape ~mode s d =
  s == d
  ||
  match (s, d) with
  | _, Bottom -> true
  | _, Null -> absent_ok s
  | (Bottom | Null), _ -> false
  | Primitive p, Primitive q -> join_primitives p q = Some p
  | Record _, Record _ -> absorbs_at ~mode (index s) d
  | (Primitive _ | Record _), _ -> false
  | Nullable a, (Nullable d | d) -> absorbs_shape ~mode a d
  | (Collection _ | Top _), _ -> Shape.equal (csh ~mode s d) s

and absorbs_at ~mode idx d =
  match idx with
  | Whole { sigma; _ } | Parts { sigma; _ } -> absorbs_shape ~mode sigma d
  | Fields_of _ | Payload_of _ -> (
      let sigma = indexed idx in
      sigma == d
      ||
      match d with
      | Bottom -> true
      | Null -> absent_ok sigma
      | Record r -> absorbs_fields ~mode idx r
      | Nullable (Record r) -> (
          (* a record σ joined with a nullable δ becomes nullable *)
          match idx with Payload_of _ -> absorbs_fields ~mode idx r | _ -> false)
      | _ -> false)

and absorbs_fields ~mode idx (r : record) =
  absorbs_record idx r.name r.fields (fun idx d -> absorbs_at ~mode idx d)

let absorbs ?(mode : mode = `Hetero) s d = absorbs_shape ~mode s d
let absorbs_indexed ?(mode : mode = `Hetero) idx d = absorbs_at ~mode idx d

(* The shapes S gives a literal, each with its memo slot. *)
let literal_slot : Shape.t -> int = function
  | Null -> 0
  | Primitive Bool -> 1
  | Primitive Int -> 2
  | Primitive Float -> 3
  | Primitive String -> 4
  | Primitive Date -> 5
  | Primitive Bit0 -> 6
  | Primitive Bit1 -> 7
  | _ -> -1

(* Any subtree but a record answers once per kind of literal, and
   remembers: the join of σ with a constant shape depends on nothing
   else. A top or a collection answers by joining. *)
let absorbs_literal ~(mode : mode) idx k =
  match idx with
  | Whole { sigma; memo } | Parts { sigma; memo; _ } -> (
      let i = literal_slot k in
      match if i < 0 then '\000' else Bytes.get memo i with
      | '\001' -> true
      | '\002' -> false
      | _ ->
          let absorbed =
            match sigma with
            | Top _ | Collection _ -> Shape.equal (csh ~mode sigma k) sigma
            | _ -> absorbs_at ~mode idx k
          in
          if i >= 0 then Bytes.set memo i (if absorbed then '\001' else '\002');
          absorbed)
  | Fields_of _ | Payload_of _ -> absorbs_at ~mode idx k

(* --- the element walk: a list against a collection of σ ---

   csh σ S([d1; ...; dn]) joins each entry of σ with the fold of the
   elements of its tag, and its multiplicity with theirs (Section 6.4):
   one element is [Single], more are [Multiple], and an entry no element
   has widens to [Optional_single]. The join is σ when every element's
   tag is one of σ's entries and σ's entry absorbs the element, and each
   entry's multiplicity already covers its count. In the paper's mode
   the collection has one entry, always [Multiple], which every element
   joins; in the XML mode one entry whatever the tags. *)
let elements ~(mode : mode) idx =
  let start w =
    match (mode, w.sigma) with
    | `Hetero, Collection _ ->
        Array.fill w.counts 0 (Array.length w.counts) 0;
        w.keyed <- true;
        Some w
    | `Core, Collection ([] | [ { mult = Multiplicity.Multiple; _ } ])
    | `Xml, Collection ([] | [ _ ]) ->
        Array.fill w.counts 0 (Array.length w.counts) 0;
        w.keyed <- false;
        Some w
    | _ -> None
  in
  match idx with
  | Parts ({ sigma = Collection _; _ } as w) -> start w
  | Parts ({ sigma = Top _; _ } as w) -> (
      match label w Tag.Collection with Some (Parts w) -> start w | _ -> None)
  | _ -> None

let element w tag =
  let k = if w.keyed then find_tag w.tags tag 0 else if Array.length w.inner = 1 then 0 else -1 in
  if k < 0 then -1
  else begin
    let c = w.counts.(k) + 1 in
    w.counts.(k) <- c;
    if c >= 2 && not (Multiplicity.equal w.mults.(k) Multiple) then -1 else k
  end

let elements_complete w =
  let rec go k =
    k = Array.length w.counts
    || (w.counts.(k) > 0 || not (Multiplicity.equal w.mults.(k) Single)) && go (k + 1)
  in
  go 0

(* --- the token walk: a JSON document against σ, on its tokens --- *)

(* The shape S gives the literal at the cursor, which it consumes:
   outside the paper's mode a string is classified where it lies in the
   source, its date read only when [dates]. *)
let literal ~mode ~dates st = Shape.of_hint (Raw.literal st ~classify:(mode <> `Core) ~dates)

let record_tag = Tag.Record Fsdata_data.Data_value.json_record_name

(* The value at the cursor, which starts with [c]. A record is walked
   through its table, a list through its collection's element walk,
   and a literal answers from its node's memo. *)
let rec absorbs_tokens_at ~mode idx st c =
  match c with
  | '{' -> (
      match table idx Fsdata_data.Data_value.json_record_name with
      | Some t ->
          if Raw.open_ st '}' then complete t
          else absorbs_member ~mode t st (Raw.wanted st t.keys ~from:0)
      | None -> false)
  | '[' -> (
      match elements ~mode idx with
      | Some w -> if Raw.open_ st ']' then elements_complete w else absorbs_element ~mode w st
      | None -> false)
  | c ->
      (* date ⊔ string = string: σ absorbs a date iff it absorbs a
         string, but for a date shape, so a date needs telling from a
         string only where the two answers differ *)
      let dates =
        c = '"'
        && absorbs_literal ~mode idx (Primitive Date)
           <> absorbs_literal ~mode idx (Primitive String)
      in
      absorbs_literal ~mode idx (literal ~mode ~dates st)

(* A member, as [Raw.wanted] read it: its key found in σ's table (tried
   in place against the field after the one met last first), or ([-1])
   to be decoded and looked up, which finds no field but for a key
   written with an escape *)
and absorbs_member ~mode t st m =
  let i = if m >= 0 then m lsr 8 else Raw.find t.keys (Raw.parse_string st) in
  i >= 0
  && meet t i
  && absorbs_tokens_at ~mode t.subs.(i) st
       (if m >= 0 then Char.unsafe_chr (m land 255) else Raw.colon st)
  &&
  match Raw.next_wanted st t.keys ~from:(i + 1) with
  | -2 -> complete t
  | -3 -> false
  | m -> absorbs_member ~mode t st m

(* An element goes to its tag's entry, which walks it *)
and absorbs_element ~mode w st =
  begin
    match Raw.next_value st with
    | ('{' | '[') as c ->
        let k = element w (if c = '{' then record_tag else Tag.Collection) in
        k >= 0 && absorbs_tokens_at ~mode w.inner.(k) st c
    | _ ->
        let lit = literal ~mode ~dates:true st in
        let k = element w (Shape.tagof lit) in
        k >= 0 && absorbs_literal ~mode w.inner.(k) lit
  end
  &&
  match Raw.after st ']' with
  | 1 -> absorbs_element ~mode w st
  | 0 -> elements_complete w
  | _ -> false

let absorbs_tokens ~mode idx st = absorbs_tokens_at ~mode idx st (Raw.next_value st)

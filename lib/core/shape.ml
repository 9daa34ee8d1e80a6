type primitive = Bit0 | Bit1 | Bit | Bool | Int | Float | String | Date

type t =
  | Bottom
  | Null
  | Primitive of primitive
  | Record of record
  | Nullable of t
  | Collection of entry list
  | Top of t list

and record = { name : string; fields : (string * t) list }

and entry = { shape : t; mult : Multiplicity.t }

let primitive_rank = function
  | Bit0 -> 0
  | Bit1 -> 1
  | Bit -> 2
  | Bool -> 3
  | Int -> 4
  | Float -> 5
  | String -> 6
  | Date -> 7

let is_non_nullable = function Primitive _ | Record _ -> true | _ -> false

let tagof = function
  | Bottom -> invalid_arg "Shape.tagof: bottom has no tag"
  | Null -> Tag.Null
  | Primitive (Bit0 | Bit1 | Bit | Int | Float) -> Tag.Number
  | Primitive Bool -> Tag.Bool
  | Primitive String -> Tag.String
  | Primitive Date -> Tag.Date
  | Record { name; _ } -> Tag.Record name
  | Nullable _ -> Tag.Nullable
  | Collection _ -> Tag.Collection
  | Top _ -> Tag.Top

let sort_fields fields =
  List.sort (fun (a, _) (b, _) -> String.compare a b) fields

(* Physical identity short-circuits every level of the comparison: on
   hash-consed shapes (see {!hcons}) structurally equal subtrees are
   pointer-equal, so the (eq) fast path of [Csh.csh] and the deep
   recursive comparisons degenerate to pointer tests. On shapes that
   were never interned the test is a no-op branch. *)
let rec compare a b =
  if a == b then 0
  else
  match (a, b) with
  | Bottom, Bottom -> 0
  | Bottom, _ -> -1
  | _, Bottom -> 1
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Primitive x, Primitive y -> Int.compare (primitive_rank x) (primitive_rank y)
  | Primitive _, _ -> -1
  | _, Primitive _ -> 1
  | Record r1, Record r2 -> compare_records r1 r2
  | Record _, _ -> -1
  | _, Record _ -> 1
  | Nullable x, Nullable y -> compare x y
  | Nullable _, _ -> -1
  | _, Nullable _ -> 1
  | Collection e1, Collection e2 -> compare_entries e1 e2
  | Collection _, _ -> -1
  | _, Collection _ -> 1
  | Top l1, Top l2 -> compare_list l1 l2

and compare_records r1 r2 =
  if r1 == r2 then 0
  else
  match String.compare r1.name r2.name with
  | 0 -> compare_fields (sort_fields r1.fields) (sort_fields r2.fields)
  | c -> c

and compare_fields f g =
  match (f, g) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (n1, s1) :: f, (n2, s2) :: g -> (
      match String.compare n1 n2 with
      | 0 -> ( match compare s1 s2 with 0 -> compare_fields f g | c -> c)
      | c -> c)

and compare_entries e f =
  match (e, f) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | e1 :: e, f1 :: f -> (
      match compare e1.shape f1.shape with
      | 0 ->
          if e1.mult = f1.mult then compare_entries e f
          else Stdlib.compare e1.mult f1.mult
      | c -> c)

and compare_list l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: l1, y :: l2 -> ( match compare x y with 0 -> compare_list l1 l2 | c -> c)

(* [equal] agrees with [compare a b = 0] but never sorts what it does not
   have to: records of different widths differ at once, fields listed in
   the same order (the common case: a shape and the shapes folded into
   it share first-appearance order) are compared in lock-step, and only
   the remainder after the first differing name is sorted. *)
let rec equal a b =
  a == b
  ||
  match (a, b) with
  | Bottom, Bottom | Null, Null -> true
  | Primitive x, Primitive y -> x = y
  | Record r1, Record r2 ->
      r1 == r2
      || String.equal r1.name r2.name
         && List.compare_lengths r1.fields r2.fields = 0
         && equal_fields r1.fields r2.fields
  | Nullable x, Nullable y -> equal x y
  | Collection e1, Collection e2 ->
      List.equal
        (fun e f -> Multiplicity.equal e.mult f.mult && equal e.shape f.shape)
        e1 e2
  | Top l1, Top l2 -> List.equal equal l1 l2
  | _ -> false

and equal_fields f g =
  match (f, g) with
  | [], [] -> true
  | (n1, s1) :: f, (n2, s2) :: g when String.equal n1 n2 ->
      equal s1 s2 && equal_fields f g
  | _ ->
      List.equal
        (fun (n1, s1) (n2, s2) -> String.equal n1 n2 && equal s1 s2)
        (sort_fields f) (sort_fields g)

let record name fields =
  match Fsdata_data.Data_value.first_duplicate fields with
  | Some n -> invalid_arg (Printf.sprintf "Shape.record: duplicate field %S" n)
  | None -> Record { name; fields }

let of_hint : Fsdata_data.Primitive.hint -> t = function
  | Hint_null -> Null
  | Hint_bit0 -> Primitive Bit0
  | Hint_bit1 -> Primitive Bit1
  | Hint_int -> Primitive Int
  | Hint_float -> Primitive Float
  | Hint_bool -> Primitive Bool
  | Hint_date -> Primitive Date
  | Hint_string -> Primitive String

let nullable s = if is_non_nullable s then Nullable s else s
let strip_nullable = function Nullable s -> s | s -> s

let check_entry_shape s =
  match s with
  | Bottom -> invalid_arg "Shape.hetero: bottom entry"
  | _ -> ()

let sort_by_tag key xs =
  let xs = List.sort (fun a b -> Tag.compare (key a) (key b)) xs in
  let rec check = function
    | a :: (b :: _ as rest) ->
        if Tag.equal (key a) (key b) then
          invalid_arg
            (Fmt.str "Shape: duplicate tag %a in labelled top or collection"
               Tag.pp (key a))
        else check rest
    | _ -> ()
  in
  check xs;
  xs

let hetero pairs =
  let entries = List.map (fun (shape, mult) -> check_entry_shape shape; { shape; mult }) pairs in
  Collection (sort_by_tag (fun e -> tagof e.shape) entries)

let collection s =
  (* [collection Bottom] is the paper's [⊥] element shape arising from an
     empty sample collection; represented as an entry-less collection. *)
  if s = Bottom then Collection [] else hetero [ (s, Multiplicity.Multiple) ]

let check_label s =
  match s with
  | Bottom | Null | Nullable _ | Top _ ->
      invalid_arg (Fmt.str "Shape.top: invalid label")
  | _ -> ()

let top labels =
  List.iter check_label labels;
  Top (sort_by_tag tagof labels)

let any = Top []

let collection_element = function
  | Collection [] -> Some Bottom
  | Collection [ { shape; _ } ] -> Some shape
  | _ -> None

let rec size = function
  | Bottom | Null | Primitive _ -> 1
  | Record { fields; _ } ->
      1 + List.fold_left (fun acc (_, s) -> acc + size s) 0 fields
  | Nullable s -> 1 + size s
  | Collection entries ->
      1 + List.fold_left (fun acc e -> acc + size e.shape) 0 entries
  | Top labels -> 1 + List.fold_left (fun acc s -> acc + size s) 0 labels

(* ----- hash-consing (ROADMAP: shape hash-consing cache) -----

   [hcons] rebuilds a shape bottom-up, interning every node in a global
   table so that structurally identical representations become physically
   equal. Children of a probe node are always already interned, so the
   table's equality only needs to look one level deep and can compare
   children by pointer. Interning preserves the exact representation —
   record field order included — so it is invisible to printing and
   provided types; [equal]'s physical fast path is what it buys. *)

module Hnode = struct
  type nonrec t = t

  let rec eq_fields f g =
    match (f, g) with
    | [], [] -> true
    | (n1, s1) :: f, (n2, s2) :: g ->
        String.equal n1 n2 && s1 == s2 && eq_fields f g
    | _ -> false

  let rec eq_entries e f =
    match (e, f) with
    | [], [] -> true
    | e1 :: e, f1 :: f ->
        e1.shape == f1.shape && e1.mult = f1.mult && eq_entries e f
    | _ -> false

  let rec eq_labels l1 l2 =
    match (l1, l2) with
    | [], [] -> true
    | x :: l1, y :: l2 -> x == y && eq_labels l1 l2
    | _ -> false

  let equal a b =
    match (a, b) with
    | Bottom, Bottom | Null, Null -> true
    | Primitive p, Primitive q -> p = q
    | Record r1, Record r2 ->
        String.equal r1.name r2.name && eq_fields r1.fields r2.fields
    | Nullable a, Nullable b -> a == b
    | Collection e1, Collection e2 -> eq_entries e1 e2
    | Top l1, Top l2 -> eq_labels l1 l2
    | _ -> false

  (* Structural hashing with a generous node budget: a valid hash for
     the shallow equality above (shallow-equal nodes are structurally
     equal), with enough depth to separate similar record shapes. *)
  let hash (s : t) = Hashtbl.hash_param 64 512 s
end

module Htbl = Hashtbl.Make (Hnode)

let m_hcons_hits = Fsdata_obs.Metrics.counter "shape.hcons.hits"
let m_hcons_misses = Fsdata_obs.Metrics.counter "shape.hcons.misses"
let hcons_lock = Mutex.create ()
let hcons_tbl : t Htbl.t = Htbl.create 4096

let hcons_node n =
  match Htbl.find_opt hcons_tbl n with
  | Some c ->
      Fsdata_obs.Metrics.incr m_hcons_hits;
      c
  | None ->
      Fsdata_obs.Metrics.incr m_hcons_misses;
      Htbl.add hcons_tbl n n;
      n

let rec hcons_rec s =
  match s with
  | Bottom | Null | Primitive _ -> hcons_node s
  | Record { name; fields } ->
      hcons_node
        (Record { name; fields = List.map (fun (n, t) -> (n, hcons_rec t)) fields })
  | Nullable t -> hcons_node (Nullable (hcons_rec t))
  | Collection entries ->
      hcons_node
        (Collection (List.map (fun e -> { e with shape = hcons_rec e.shape }) entries))
  | Top labels -> hcons_node (Top (List.map hcons_rec labels))

let hcons s = Mutex.protect hcons_lock (fun () -> hcons_rec s)
let hcons_size () = Mutex.protect hcons_lock (fun () -> Htbl.length hcons_tbl)
let hcons_clear () = Mutex.protect hcons_lock (fun () -> Htbl.reset hcons_tbl)

let pp_primitive ppf p =
  Fmt.string ppf
    (match p with
    | Bit0 -> "bit0"
    | Bit1 -> "bit1"
    | Bit -> "bit"
    | Bool -> "bool"
    | Int -> "int"
    | Float -> "float"
    | String -> "string"
    | Date -> "date")

let rec pp ppf = function
  | Bottom -> Fmt.string ppf "\xe2\x8a\xa5"
  | Null -> Fmt.string ppf "null"
  | Primitive p -> pp_primitive ppf p
  | Record { name; fields } ->
      Fmt.pf ppf "%s {@[<hov>%a@]}" name
        Fmt.(list ~sep:(any ",@ ") pp_field)
        fields
  | Nullable s -> Fmt.pf ppf "nullable %a" pp s
  | Collection [] -> Fmt.string ppf "[\xe2\x8a\xa5]"
  | Collection [ { shape; mult = Multiplicity.Multiple } ] ->
      Fmt.pf ppf "[%a]" pp shape
  | Collection entries ->
      Fmt.pf ppf "[@[<hov>%a@]]" Fmt.(list ~sep:(any " |@ ") pp_entry) entries
  | Top [] -> Fmt.string ppf "any"
  | Top labels ->
      Fmt.pf ppf "any\xe2\x9f\xa8@[<hov>%a@]\xe2\x9f\xa9"
        Fmt.(list ~sep:(any ",@ ") pp)
        labels

and pp_field ppf (name, s) = Fmt.pf ppf "%s: %a" name pp s

and pp_entry ppf { shape; mult } = Fmt.pf ppf "%a, %a" pp shape Multiplicity.pp mult

let to_string s = Fmt.str "%a" pp s

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

let primitive_name = function
  | Bit0 -> "bit0"
  | Bit1 -> "bit1"
  | Bit -> "bit"
  | Bool -> "bool"
  | Int -> "int"
  | Float -> "float"
  | String -> "string"
  | Date -> "date"

let pp_primitive ppf p = Fmt.string ppf (primitive_name p)

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

(* [to_string] prints the bytes [Fmt.str "%a" pp] prints, without the
   Format engine. Format queues each break and box opening until it
   knows its size: the flat bytes up to the next break of the same box
   (that break's space included), or up to the box's end. A break starts
   a new line when its size exceeds the space left on the line, and a
   box whose contents fit prints flat. One pass measures every node's
   flat width (in preorder), and a second prints, deciding each token
   from the widths of what follows it.

   One quirk of the queue is kept. Format also stops waiting for the
   size of the token at the queue's head once the text queued from it
   fills the space left, and then decides as if the token were
   infinitely wide. That changes a decision only where the size equals
   the space left and becomes known with no break added to it: a box
   whose contents exactly fill the line opens as a hov box, not flat,
   and the last break of a box whose last item exactly fills the line
   starts a new line. (A token queued behind others whose sizes are not
   known yet reaches the head in time: a line break never moves the end
   of the line, counted in flat bytes, backwards, so Format has stopped
   waiting for those tokens by then.) *)

let margin = 78 (* Format's defaults *)
let max_indent = 68

(* An open box: its width (the space left when it opened) if it is a
   hov box, [fits] if its contents print flat. *)
let fits = min_int

type widths = { mutable a : int array; mutable n : int }

(* Flat widths in preorder. A list of items is measured from one
   separator below zero: every item adds its separator ("," or " |",
   then a one-byte break) and its width. *)
let rec measure m s =
  let i = m.n in
  if i = Array.length m.a then begin
    let a = Array.make (2 * i) 0 in
    Array.blit m.a 0 a 0 i;
    m.a <- a
  end;
  m.n <- i + 1;
  let w =
    match s with
    | Bottom -> 3
    | Null -> 4
    | Primitive p -> String.length (primitive_name p)
    | Record { name; fields = [] } -> String.length name + 3
    | Record { name; fields } -> String.length name + 3 + measure_fields m (-2) fields
    | Nullable s -> 9 + measure m s
    | Collection [] -> 5
    | Collection [ { shape; mult = Multiplicity.Multiple } ] -> 2 + measure m shape
    | Collection entries -> 2 + measure_entries m (-3) entries
    | Top [] -> 3
    | Top labels -> 9 + measure_labels m (-2) labels
  in
  m.a.(i) <- w;
  w

and measure_fields m acc = function
  | [] -> acc
  | (name, s) :: rest ->
      measure_fields m (acc + 2 + String.length name + 2 + measure m s) rest

and measure_entries m acc = function
  | [] -> acc
  | { shape; mult } :: rest ->
      measure_entries m
        (acc + 3 + measure m shape + 2 + String.length (Multiplicity.to_string mult))
        rest

and measure_labels m acc = function
  | [] -> acc
  | s :: rest -> measure_labels m (acc + 2 + measure m s) rest

type printer = {
  out : Buffer.t;
  widths : int array;
  mutable next : int;  (** preorder index of the next node *)
  mutable space : int;  (** space left on the line *)
}

let text p s =
  Buffer.add_string p.out s;
  p.space <- p.space - String.length s

(* A new line indented to the column where [box] opened, at most
   [max_indent]. *)
let new_line p box =
  let indent = Int.min max_indent (margin - box) in
  Buffer.add_char p.out '\n';
  for _ = 1 to indent do
    Buffer.add_char p.out ' '
  done;
  p.space <- margin - indent

(* Opens a hov box of [content] flat bytes inside [box]. A box cannot
   open past [max_indent]: the enclosing hov box breaks its line
   first. *)
let open_box p ~box ~content =
  let hov = content >= p.space in
  if margin - p.space > max_indent && box <> fits && box > p.space then
    new_line p box;
  if hov then p.space else fits

(* The separator [sep] and the break after it, before an item of [item]
   flat bytes. *)
let separate p ~box ~sep ~item ~last =
  text p sep;
  let size = if last then 1 + item else 1 + item + String.length sep + 1 in
  if box <> fits && (size > p.space || (last && size = p.space)) then new_line p box
  else text p " "

let is_last = function [] -> true | _ :: _ -> false

let rec print p ~box s =
  let w = p.widths.(p.next) in
  p.next <- p.next + 1;
  match s with
  | Bottom -> text p "\xe2\x8a\xa5"
  | Null -> text p "null"
  | Primitive q -> text p (primitive_name q)
  | Record { name; fields } ->
      text p name;
      text p " {";
      let box = open_box p ~box ~content:(w - String.length name - 3) in
      print_fields p ~box true fields;
      text p "}"
  | Nullable s ->
      text p "nullable ";
      print p ~box s
  | Collection [] -> text p "[\xe2\x8a\xa5]"
  | Collection [ { shape; mult = Multiplicity.Multiple } ] ->
      text p "[";
      print p ~box shape;
      text p "]"
  | Collection entries ->
      text p "[";
      let box = open_box p ~box ~content:(w - 2) in
      print_entries p ~box true entries;
      text p "]"
  | Top [] -> text p "any"
  | Top labels ->
      text p "any\xe2\x9f\xa8";
      let box = open_box p ~box ~content:(w - 9) in
      print_labels p ~box true labels;
      text p "\xe2\x9f\xa9"

and print_fields p ~box first = function
  | [] -> ()
  | (name, s) :: rest ->
      if not first then
        separate p ~box ~sep:","
          ~item:(String.length name + 2 + p.widths.(p.next))
          ~last:(is_last rest);
      text p name;
      text p ": ";
      print p ~box s;
      print_fields p ~box false rest

and print_entries p ~box first = function
  | [] -> ()
  | { shape; mult } :: rest ->
      let mult = Multiplicity.to_string mult in
      if not first then
        separate p ~box ~sep:" |"
          ~item:(p.widths.(p.next) + 2 + String.length mult)
          ~last:(is_last rest);
      print p ~box shape;
      text p ", ";
      text p mult;
      print_entries p ~box false rest

and print_labels p ~box first = function
  | [] -> ()
  | s :: rest ->
      if not first then
        separate p ~box ~sep:"," ~item:p.widths.(p.next) ~last:(is_last rest);
      print p ~box s;
      print_labels p ~box false rest

(* The outermost box is Format's own hov box, opened at column 0. *)
let to_string s =
  let m = { a = Array.make 64 0; n = 0 } in
  let width = measure m s in
  let p = { out = Buffer.create (width + 16); widths = m.a; next = 0; space = margin } in
  print p ~box:margin s;
  Buffer.contents p.out

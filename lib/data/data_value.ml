type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Record of string * (string * t) list

let json_record_name = "\xe2\x80\xa2" (* UTF-8 bullet, the paper's • *)
let csv_record_name = "\xe2\x80\xa2row"
let body_field = "\xe2\x80\xa2"

let sort_fields fields =
  List.sort (fun (a, _) (b, _) -> String.compare a b) fields

let rec compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Bool x, Bool y -> Bool.compare x y
  | Bool _, _ -> -1
  | _, Bool _ -> 1
  | Int x, Int y -> Int.compare x y
  | Int _, _ -> -1
  | _, Int _ -> 1
  | Float x, Float y -> Float.compare x y
  | Float _, _ -> -1
  | _, Float _ -> 1
  | String x, String y -> String.compare x y
  | String _, _ -> -1
  | _, String _ -> 1
  | List xs, List ys -> compare_lists xs ys
  | List _, _ -> -1
  | _, List _ -> 1
  | Record (n1, f1), Record (n2, f2) -> (
      match String.compare n1 n2 with
      | 0 -> compare_fields (sort_fields f1) (sort_fields f2)
      | c -> c)

and compare_lists xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys -> ( match compare x y with 0 -> compare_lists xs ys | c -> c)

and compare_fields fs gs =
  match (fs, gs) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (n1, v1) :: fs, (n2, v2) :: gs -> (
      match String.compare n1 n2 with
      | 0 -> ( match compare v1 v2 with 0 -> compare_fields fs gs | c -> c)
      | c -> c)

let equal a b = compare a b = 0

(* Up to this many names, a duplicate check scans the list pairwise: it
   allocates nothing and beats hashing. Wider lists go through a hash
   table, so the check stays linear. *)
let narrow_width = 32

(* Is [n] among the first [k] names of [l]? *)
let rec among n l k =
  k > 0
  &&
  match l with
  | (m, _) :: l -> String.equal n m || among n l (k - 1)
  | [] -> false

(* The first name of [l], the [k]th of [fields], that repeats one of the
   [k] before it. *)
let rec pairwise_duplicate fields l k =
  match l with
  | [] -> None
  | (n, _) :: l ->
      if among n fields k then Some n else pairwise_duplicate fields l (k + 1)

let first_duplicate fields =
  if List.compare_length_with fields narrow_width <= 0 then
    pairwise_duplicate fields fields 0
  else
    let seen = Hashtbl.create (2 * narrow_width) in
    let rec scan = function
      | [] -> None
      | (n, _) :: l ->
          if Hashtbl.mem seen n then Some n
          else begin
            Hashtbl.add seen n ();
            scan l
          end
    in
    scan fields

let record name fields =
  match first_duplicate fields with
  | Some n ->
      invalid_arg (Printf.sprintf "Data_value.record: duplicate field %S" n)
  | None -> Record (name, fields)

let record_field name = function
  | Record (_, fields) -> List.assoc_opt name fields
  | _ -> None

let is_primitive = function
  | Null | Bool _ | Int _ | Float _ | String _ -> true
  | List _ | Record _ -> false

let rec pp ppf = function
  | Null -> Fmt.string ppf "null"
  | Bool b -> Fmt.bool ppf b
  | Int i -> Fmt.int ppf i
  | Float f ->
      (* Keep a trailing ".0" so floats are visually distinct from ints. *)
      if Float.is_integer f && Float.abs f < 1e16 then Fmt.pf ppf "%.1f" f
      else Fmt.pf ppf "%.12g" f
  | String s -> Fmt.pf ppf "%S" s
  | List ds -> Fmt.pf ppf "[@[<hov>%a@]]" Fmt.(list ~sep:(any ";@ ") pp) ds
  | Record (name, fields) ->
      Fmt.pf ppf "%s {@[<hov>%a@]}" name
        Fmt.(list ~sep:(any ",@ ") pp_field)
        fields

and pp_field ppf (name, d) = Fmt.pf ppf "%s \xe2\x86\xa6 %a" name pp d

let to_string d = Fmt.str "%a" pp d

let rec size = function
  | Null | Bool _ | Int _ | Float _ | String _ -> 1
  | List ds -> 1 + List.fold_left (fun acc d -> acc + size d) 0 ds
  | Record (_, fields) ->
      1 + List.fold_left (fun acc (_, d) -> acc + size d) 0 fields

let rec depth = function
  | Null | Bool _ | Int _ | Float _ | String _ -> 1
  | List ds -> 1 + List.fold_left (fun acc d -> max acc (depth d)) 0 ds
  | Record (_, fields) ->
      1 + List.fold_left (fun acc (_, d) -> max acc (depth d)) 0 fields

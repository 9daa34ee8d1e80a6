type hint =
  | Hint_bit0
  | Hint_bit1
  | Hint_bool
  | Hint_int
  | Hint_float
  | Hint_date
  | Hint_string
  | Hint_null

(* Every reading below is decided on a slice of a string, [s] from [i]
   to [stop], in one left-to-right pass that copies nothing, so that a
   literal is classified where it lies: in a CSV cell's text or in a
   JSON source buffer. *)

(* whether a trimmed slice is one of the missing markers [""], [#N/A],
   [NA], [N/A], [:], [-] *)
let[@inline] missing_in s i stop =
  match stop - i with
  | 0 -> true
  | 1 -> String.unsafe_get s i = ':' || String.unsafe_get s i = '-'
  | 2 -> String.unsafe_get s i = 'N' && String.unsafe_get s (i + 1) = 'A'
  | 3 ->
      String.unsafe_get s i = 'N'
      && String.unsafe_get s (i + 1) = '/'
      && String.unsafe_get s (i + 2) = 'A'
  | 4 ->
      String.unsafe_get s i = '#'
      && String.unsafe_get s (i + 1) = 'N'
      && String.unsafe_get s (i + 2) = '/'
      && String.unsafe_get s (i + 3) = 'A'
  | _ -> false

let is_missing s off len =
  Slice.check "Primitive.is_missing" s off len;
  let i = Slice.trim_start s off (off + len) in
  missing_in s i (Slice.trim_stop s i (off + len))

let rec zeros_from s j stop =
  if j < stop && String.unsafe_get s j = '0' then zeros_from s (j + 1) stop else j

(* The digits of [max_int] and of [min_int]'s magnitude: the bounds
   [int_of_string] checks a decimal literal against. *)
let max_digits = string_of_int max_int
let min_digits = let m = string_of_int min_int in String.sub m 1 (String.length m - 1)

(* The digits from [i] to [stop] against [bound]'s, as decimal numbers
   of the same length *)
let rec digits_at_most s i stop bound j =
  i = stop
  ||
  let c = String.unsafe_get s i and b = String.unsafe_get bound j in
  c < b || (c = b && digits_at_most s (i + 1) stop bound (j + 1))

(* Whether the digits from [i] to [stop] (leading zeros included) fit a
   native int, with a minus sign or without, as [int_of_string] rules *)
let fits s ~neg i stop =
  let i = zeros_from s i stop in
  let bound = if neg then min_digits else max_digits in
  let n = stop - i and b = String.length bound in
  n < b || (n = b && digits_at_most s i stop bound 0)

(* What a trimmed slice reads as a number:
   [sign] digits [. digits] [(e|E) [sign] digits], with at least one
   digit around the point. An integer is [Fits] when [int_of_string]
   reads it and [Overflows] (a float) otherwise. *)
type number = Not_number | Fits | Overflows | Fraction

let number s i stop =
  if i = stop then Not_number
  else
    let c = String.unsafe_get s i in
    let start = if c = '-' || c = '+' then i + 1 else i in
    let int_end = Slice.digits_end s start stop in
    if int_end = stop && int_end > start then
      if fits s ~neg:(c = '-') start stop then Fits else Overflows
    else
      let frac_end =
        if int_end < stop && String.unsafe_get s int_end = '.' then
          Slice.digits_end s (int_end + 1) stop
        else int_end
      in
      let saw_digits = int_end > start || frac_end > int_end + 1 in
      (* the end of the exponent, or -1 when it has no digits *)
      let end_after_exp =
        if frac_end < stop
           && (String.unsafe_get s frac_end = 'e' || String.unsafe_get s frac_end = 'E')
        then begin
          let j =
            if frac_end + 1 < stop
               && (String.unsafe_get s (frac_end + 1) = '-'
                  || String.unsafe_get s (frac_end + 1) = '+')
            then frac_end + 2
            else frac_end + 1
          in
          let e = Slice.digits_end s j stop in
          if e > j then e else -1
        end
        else frac_end
      in
      if end_after_exp = stop && saw_digits then Fraction else Not_number

(* [is t i c]: the [i]th character of [t], lowercased, is [c]. *)
let[@inline] is t i c = Char.lowercase_ascii (String.unsafe_get t i) = c

(* A trimmed slice as a boolean, case-insensitive: 1 for true, 0 for
   false, -1 for neither *)
let[@inline] bool_in s i stop =
  match stop - i with
  | 2 when is s i 'n' && is s (i + 1) 'o' -> 0
  | 3 when is s i 'y' && is s (i + 1) 'e' && is s (i + 2) 's' -> 1
  | 4 when is s i 't' && is s (i + 1) 'r' && is s (i + 2) 'u' && is s (i + 3) 'e' -> 1
  | 5
    when is s i 'f' && is s (i + 1) 'a' && is s (i + 2) 'l' && is s (i + 3) 's'
         && is s (i + 4) 'e' ->
      0
  | _ -> -1

(* The value of the digits from [i] to [stop], which fit: accumulated
   negatively, so that [min_int] is reached too *)
let rec int_value s i stop acc =
  if i = stop then acc
  else int_value s (i + 1) stop ((acc * 10) - (Char.code (String.unsafe_get s i) - 48))

let int_sub s off len =
  Slice.check "Primitive.int_sub" s off len;
  let i = Slice.trim_start s off (off + len) in
  let stop = Slice.trim_stop s i (off + len) in
  match number s i stop with
  | Fits ->
      let c = String.unsafe_get s i in
      let start = if c = '-' || c = '+' then i + 1 else i in
      let v = int_value s start stop 0 in
      Some (if c = '-' then v else -v)
  | Not_number | Overflows | Fraction -> None

let parse_int s = int_sub s 0 (String.length s)

(* [parse_float] of the trimmed slice from [i] to [stop], whose reading
   as a number is [n] *)
let float_of n s i stop =
  match n with
  | Not_number -> None
  | Fits | Overflows | Fraction -> float_of_string_opt (String.sub s i (stop - i))

let parse_float s =
  let stop = String.length s in
  let i = Slice.trim_start s 0 stop in
  let stop = Slice.trim_stop s i stop in
  float_of (number s i stop) s i stop

let float_sub s off len =
  Slice.check "Primitive.float_sub" s off len;
  let i = Slice.trim_start s off (off + len) in
  let stop = Slice.trim_stop s i (off + len) in
  match number s i stop with
  | Fits ->
      let c = String.unsafe_get s i in
      let start = if c = '-' || c = '+' then i + 1 else i in
      let v = int_value s start stop 0 in
      Some (float_of_int (if c = '-' then v else -v))
  | n -> float_of n s i stop

let parse_bool s =
  let stop = String.length s in
  let i = Slice.trim_start s 0 stop in
  match bool_in s i (Slice.trim_stop s i stop) with 1 -> Some true | 0 -> Some false | _ -> None

(* The first byte of the trimmed slice tells which readings it may
   have: a number starts with a digit, a sign or a point, a boolean with
   a letter, a date with a digit or a letter, a missing marker with
   [#], [:], [-] or [N]; a missing marker or a boolean has at most five
   bytes. *)
let classify_sub ~dates s off len =
  Slice.check "Primitive.classify_sub" s off len;
  let i = Slice.trim_start s off (off + len) in
  let stop = Slice.trim_stop s i (off + len) in
  if stop = i then Hint_null
  else
    match String.unsafe_get s i with
    | '0' .. '9'
      when dates && stop - i = 10
           && (String.unsafe_get s (i + 4) = '-' || String.unsafe_get s (i + 4) = '/')
           && Date.is_date_trimmed s i 10 ->
        (* a date is never a number: yyyy-mm-dd is told first *)
        Hint_date
    | ('0' .. '9' | '+' | '-' | '.') as c -> (
        match number s i stop with
        | Fits ->
            if stop > i + 1 then Hint_int
            else if c = '0' then Hint_bit0
            else if c = '1' then Hint_bit1
            else Hint_int
        | Overflows | Fraction -> Hint_float
        | Not_number ->
            if stop = i + 1 && c = '-' then Hint_null
            else if dates && c >= '0' && c <= '9' && Date.is_date_trimmed s i (stop - i) then
              Hint_date
            else Hint_string)
    | 'a' .. 'z' | 'A' .. 'Z' ->
        if stop - i <= 5 && missing_in s i stop then Hint_null
        else if stop - i <= 5 && bool_in s i stop >= 0 then Hint_bool
        else if dates && Date.is_date_trimmed s i (stop - i) then Hint_date
        else Hint_string
    | '#' | ':' -> if missing_in s i stop then Hint_null else Hint_string
    | _ -> Hint_string

let classify s = classify_sub ~dates:true s 0 (String.length s)

let is_text s off len =
  match classify_sub ~dates:false s off len with
  | Hint_string -> true
  | Hint_null | Hint_bit0 | Hint_bit1 | Hint_int | Hint_float | Hint_bool | Hint_date -> false

let to_value s =
  let t = String.trim s in
  match classify s with
  | Hint_null -> (Data_value.Null, Hint_null)
  | Hint_bit0 -> (Data_value.Int 0, Hint_bit0)
  | Hint_bit1 -> (Data_value.Int 1, Hint_bit1)
  | Hint_int -> (
      match parse_int t with
      | Some i -> (Data_value.Int i, Hint_int)
      | None -> assert false)
  | Hint_float -> (
      match parse_float t with
      | Some f -> (Data_value.Float f, Hint_float)
      | None -> assert false)
  | Hint_bool -> (
      match parse_bool t with
      | Some b -> (Data_value.Bool b, Hint_bool)
      | None -> assert false)
  | Hint_date -> (Data_value.String s, Hint_date)
  | Hint_string -> (Data_value.String s, Hint_string)

let rec normalize (d : Data_value.t) : Data_value.t =
  match d with
  | String s -> fst (to_value s)
  | List ds -> List (List.map normalize ds)
  | Record (name, fields) ->
      Record (name, List.map (fun (k, v) -> (k, normalize v)) fields)
  | Null | Bool _ | Int _ | Float _ -> d

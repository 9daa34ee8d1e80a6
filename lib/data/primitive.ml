type hint =
  | Hint_bit0
  | Hint_bit1
  | Hint_bool
  | Hint_int
  | Hint_float
  | Hint_date
  | Hint_string
  | Hint_null

let missing_markers = [ ""; "#N/A"; "NA"; "N/A"; ":"; "-" ]

(* [List.mem (String.trim s) missing_markers] as a string match: this
   runs on every string literal inferred or decoded. [String.trim]
   copies only when there is whitespace to remove. *)
let is_missing s =
  match String.trim s with
  | "" | "#N/A" | "NA" | "N/A" | ":" | "-" -> true
  | _ -> false

(* The end of the run of decimal digits in [s] from [j]. *)
let rec digits_from s j =
  if j < String.length s && s.[j] >= '0' && s.[j] <= '9' then
    digits_from s (j + 1)
  else j

let parse_int s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    let start = if s.[0] = '-' || s.[0] = '+' then 1 else 0 in
    if n = start || digits_from s start < n then None else int_of_string_opt s

let parse_float s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    (* Accept: [sign] digits [. digits] [(e|E) [sign] digits]
       with at least one digit somewhere around the point. *)
    let start = if s.[0] = '-' || s.[0] = '+' then 1 else 0 in
    let int_end = digits_from s start in
    let frac_end =
      if int_end < n && s.[int_end] = '.' then digits_from s (int_end + 1)
      else int_end
    in
    let saw_digits = int_end > start || frac_end > int_end + 1 in
    (* the end of the exponent, or -1 when it has no digits *)
    let end_after_exp =
      if frac_end < n && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then begin
        let j =
          if frac_end + 1 < n && (s.[frac_end + 1] = '-' || s.[frac_end + 1] = '+')
          then frac_end + 2
          else frac_end + 1
        in
        let e = digits_from s j in
        if e > j then e else -1
      end
      else frac_end
    in
    if end_after_exp = n && saw_digits then float_of_string_opt s else None

(* [is t i c]: the [i]th character of [t], lowercased, is [c]. *)
let is t i c = Char.lowercase_ascii (String.unsafe_get t i) = c

(* Case-insensitive, without a lowercased copy. *)
let parse_bool s =
  let t = String.trim s in
  match String.length t with
  | 2 when is t 0 'n' && is t 1 'o' -> Some false
  | 3 when is t 0 'y' && is t 1 'e' && is t 2 's' -> Some true
  | 4 when is t 0 't' && is t 1 'r' && is t 2 'u' && is t 3 'e' -> Some true
  | 5 when is t 0 'f' && is t 1 'a' && is t 2 'l' && is t 3 's' && is t 4 'e'
    ->
      Some false
  | _ -> None

let classify s =
  let t = String.trim s in
  if is_missing t then Hint_null
  else if String.equal t "0" then Hint_bit0
  else if String.equal t "1" then Hint_bit1
  else if Option.is_some (parse_int t) then Hint_int
  else if Option.is_some (parse_float t) then Hint_float
  else if Option.is_some (parse_bool t) then Hint_bool
  else if Date.is_date t then Hint_date
  else Hint_string

(* [parse_float] accepts every literal that [parse_int] does ("0" and "1"
   among them), so ruling out missing markers, floats and booleans rules
   out every hint before the date. *)
let is_text s =
  let t = String.trim s in
  (not (is_missing t))
  && Option.is_none (parse_float t)
  && Option.is_none (parse_bool t)

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

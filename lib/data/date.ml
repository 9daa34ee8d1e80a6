type t = {
  year : int;
  month : int;
  day : int;
  hour : int;
  minute : int;
  second : int;
}

let equal a b = a = b

let compare a b =
  Stdlib.compare
    (a.year, a.month, a.day, a.hour, a.minute, a.second)
    (b.year, b.month, b.day, b.hour, b.minute, b.second)

let is_leap_year y = (y mod 4 = 0 && y mod 100 <> 0) || y mod 400 = 0

let days_in_month y m =
  match m with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 -> if is_leap_year y then 29 else 28
  | _ -> 0

let make ?(hour = 0) ?(minute = 0) ?(second = 0) year month day =
  if
    year >= 1 && year <= 9999
    && month >= 1 && month <= 12
    && day >= 1
    && day <= days_in_month year month
    && hour >= 0 && hour <= 23
    && minute >= 0 && minute <= 59
    && second >= 0 && second <= 59
  then Some { year; month; day; hour; minute; second }
  else None

(* --- A small hand-rolled scanner; we avoid regexes so that the accepted
   language is exactly what this module documents. --- *)

let month_names =
  [
    ("january", 1); ("jan", 1);
    ("february", 2); ("feb", 2);
    ("march", 3); ("mar", 3);
    ("april", 4); ("apr", 4);
    ("may", 5);
    ("june", 6); ("jun", 6);
    ("july", 7); ("jul", 7);
    ("august", 8); ("aug", 8);
    ("september", 9); ("sep", 9);
    ("october", 10); ("oct", 10);
    ("november", 11); ("nov", 11);
    ("december", 12); ("dec", 12);
  ]

(* [s] from [i] on equals [lower] from [i] on, ignoring the case of [s]. *)
let rec equal_ci_from s lower i =
  i = String.length s
  || Char.lowercase_ascii (String.unsafe_get s i) = String.unsafe_get lower i
     && equal_ci_from s lower (i + 1)

(* The month that [s] names (any case) in [names], or 0. Allocates
   nothing: no lowercased copy, no option. *)
let rec month_in names s =
  match names with
  | [] -> 0
  | (name, m) :: names ->
      if String.length s = String.length name && equal_ci_from s name 0 then m
      else month_in names s

let month_of_name s = month_in month_names s

let is_digit c = c >= '0' && c <= '9'
let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

type token = Num of int * int (* value, digit count *) | Word of string | Sep of char

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let ok = ref true in
  while !i < n && !ok do
    let c = s.[!i] in
    if c = ' ' then incr i
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit s.[!i] do incr i done;
      let digits = !i - start in
      if digits > 4 then ok := false
      else toks := Num (int_of_string (String.sub s start digits), digits) :: !toks
    end
    else if is_letter c then begin
      let start = !i in
      while !i < n && is_letter s.[!i] do incr i done;
      toks := Word (String.sub s start (!i - start)) :: !toks
    end
    else if c = '-' || c = '/' || c = ':' || c = ',' || c = '.' || c = '+' then begin
      toks := Sep c :: !toks;
      incr i
    end
    else ok := false
  done;
  if !ok then Some (List.rev !toks) else None

(* Parse an optional time suffix: already-tokenized tail of the form
   [Num h; Sep ':'; Num m (; Sep ':'; Num s)] possibly followed by an ISO
   zone designator [Word "Z"] or [Sep '+'; Num _; Sep ':'; Num _]. The zone
   is recognized and discarded: inference only needs to know the literal is
   a date, not its absolute instant. *)
let parse_time = function
  | [] -> Some (0, 0, 0)
  | Num (h, _) :: Sep ':' :: Num (m, _) :: rest -> (
      let finish rest s =
        match rest with
        | [] | [ Word ("Z" | "z") ] -> Some s
        | Sep ('+' | '-') :: Num (_, _) :: Sep ':' :: Num (_, _) :: [] -> Some s
        | _ -> None
      in
      match rest with
      | Sep ':' :: Num (s, _) :: rest -> (
          (* allow fractional seconds: .123 *)
          match rest with
          | Sep '.' :: Num (_, _) :: rest ->
              Option.map (fun s -> (h, m, s)) (finish rest s)
          | _ -> Option.map (fun s -> (h, m, s)) (finish rest s))
      | rest -> Option.map (fun s -> (h, m, s)) (finish rest 0))
  | _ -> None

let build y m d rest =
  match parse_time rest with
  | None -> None
  | Some (hh, mm, ss) -> make ~hour:hh ~minute:mm ~second:ss y m d

let current_year = 2016
(* Year-less dates ("May 3") need *a* year for calendar validation; F# Data
   uses the current year. We pin the paper's year so behaviour is
   deterministic. Only validity (e.g. Feb 29) depends on it. *)

let rec word_end s i =
  if i < String.length s && is_letter s.[i] then word_end s (i + 1) else i

let rec has_digit s i =
  i < String.length s && (is_digit s.[i] || has_digit s (i + 1))

(* Every format below contains a digit and starts with a number or a
   month name (a word of 3 to 9 letters): a scan that keeps ordinary
   words and identifiers away from the tokenizer. *)
let may_be_date s =
  String.length s > 0
  && (is_digit s.[0] || (let w = word_end s 0 in w >= 3 && w <= 9))
  && has_digit s 0

let of_string s =
  let s = String.trim s in
  if String.length s < 3 || String.length s > 40 || not (may_be_date s) then None
  else
    match tokenize s with
    | None -> None
    | Some toks -> (
        match toks with
        (* ISO: yyyy-mm-dd, with optional T or space before the time. *)
        | Num (y, 4) :: Sep '-' :: Num (m, _) :: Sep '-' :: Num (d, _) :: rest -> (
            match rest with
            | Word ("T" | "t") :: rest | rest -> build y m d rest)
        (* yyyy/mm/dd *)
        | Num (y, 4) :: Sep '/' :: Num (m, _) :: Sep '/' :: Num (d, _) :: rest ->
            build y m d rest
        (* mm/dd/yyyy (invariant culture), falling back to dd/mm/yyyy when
           the first number cannot be a month. *)
        | Num (a, _) :: Sep '/' :: Num (b, _) :: Sep '/' :: Num (y, 4) :: rest ->
            if a <= 12 then build y a b rest else build y b a rest
        (* May 3 | May 3, 2012 *)
        | Word w :: Num (d, dd) :: rest when dd <= 2 -> (
            match month_of_name w with
            | 0 -> None
            | m -> (
                match rest with
                | Sep ',' :: Num (y, 4) :: rest | Num (y, 4) :: rest ->
                    build y m d rest
                | rest -> build current_year m d rest))
        (* 3 May | 3 May 2012 *)
        | Num (d, dd) :: Word w :: rest when dd <= 2 -> (
            match month_of_name w with
            | 0 -> None
            | m -> (
                match rest with
                | Sep ',' :: Num (y, 4) :: rest | Num (y, 4) :: rest ->
                    build y m d rest
                | rest -> build current_year m d rest))
        | _ -> None)

let is_date s = of_string s <> None

let to_iso8601 t =
  if t.hour = 0 && t.minute = 0 && t.second = 0 then
    Printf.sprintf "%04d-%02d-%02d" t.year t.month t.day
  else
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" t.year t.month t.day t.hour
      t.minute t.second

let pp ppf t = Fmt.string ppf (to_iso8601 t)

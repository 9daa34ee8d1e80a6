(* Literal classification as it was before it trimmed once and
   prefiltered: [classify] ran the whole cascade (a [List.mem] over the
   missing markers, a lowercased copy for booleans) and handed every
   non-numeric literal to the tokenizing date parser, whose month lookup
   lowercased too. Kept verbatim as the oracle for the differential
   properties in test_primitive.ml. *)

open Fsdata_data

type hint = Primitive.hint =
  | Hint_bit0
  | Hint_bit1
  | Hint_bool
  | Hint_int
  | Hint_float
  | Hint_date
  | Hint_string
  | Hint_null

module Date = struct
  let make = Date.make

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

  let month_of_name s = List.assoc_opt (String.lowercase_ascii s) month_names

  type token = Num of int * int (* value, digit count *) | Word of string | Sep of char

  let tokenize s =
    let n = String.length s in
    let toks = ref [] in
    let i = ref 0 in
    let ok = ref true in
    while !i < n && !ok do
      let c = s.[!i] in
      if c = ' ' then incr i
      else if c >= '0' && c <= '9' then begin
        let start = !i in
        while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do incr i done;
        let digits = !i - start in
        if digits > 4 then ok := false
        else toks := Num (int_of_string (String.sub s start digits), digits) :: !toks
      end
      else if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') then begin
        let start = !i in
        while
          !i < n
          && ((s.[!i] >= 'a' && s.[!i] <= 'z') || (s.[!i] >= 'A' && s.[!i] <= 'Z'))
        do incr i done;
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

  let of_string s =
    let s = String.trim s in
    if String.length s < 3 || String.length s > 40 then None
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
              | None -> None
              | Some m -> (
                  match rest with
                  | Sep ',' :: Num (y, 4) :: rest | Num (y, 4) :: rest ->
                      build y m d rest
                  | rest -> build current_year m d rest))
          (* 3 May | 3 May 2012 *)
          | Num (d, dd) :: Word w :: rest when dd <= 2 -> (
              match month_of_name w with
              | None -> None
              | Some m -> (
                  match rest with
                  | Sep ',' :: Num (y, 4) :: rest | Num (y, 4) :: rest ->
                      build y m d rest
                  | rest -> build current_year m d rest))
          | _ -> None)

  let is_date s = of_string s <> None
end

let missing_markers = [ ""; "#N/A"; "NA"; "N/A"; ":"; "-" ]

let is_missing s = List.mem (String.trim s) missing_markers

let parse_int s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    let start = if s.[0] = '-' || s.[0] = '+' then 1 else 0 in
    if n = start then None
    else
      let ok = ref true in
      for i = start to n - 1 do
        if not (s.[i] >= '0' && s.[i] <= '9') then ok := false
      done;
      if not !ok then None else int_of_string_opt s

let parse_float s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    (* Accept: [sign] digits [. digits] [(e|E) [sign] digits]
       with at least one digit somewhere around the point. *)
    let i = ref (if s.[0] = '-' || s.[0] = '+' then 1 else 0) in
    let digits_from j =
      let k = ref j in
      while !k < n && s.[!k] >= '0' && s.[!k] <= '9' do incr k done;
      !k
    in
    let int_end = digits_from !i in
    let saw_int = int_end > !i in
    let frac_end, saw_frac =
      if int_end < n && s.[int_end] = '.' then
        let e = digits_from (int_end + 1) in
        (e, e > int_end + 1)
      else (int_end, false)
    in
    let pos_after_exp =
      if frac_end < n && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then begin
        let j =
          if frac_end + 1 < n && (s.[frac_end + 1] = '-' || s.[frac_end + 1] = '+')
          then frac_end + 2
          else frac_end + 1
        in
        let e = digits_from j in
        if e > j then Some e else None
      end
      else Some frac_end
    in
    match pos_after_exp with
    | Some e when e = n && (saw_int || saw_frac) -> float_of_string_opt s
    | _ -> None

let parse_bool s =
  match String.lowercase_ascii (String.trim s) with
  | "true" | "yes" -> Some true
  | "false" | "no" -> Some false
  | _ -> None

let classify s =
  let t = String.trim s in
  if is_missing t then Hint_null
  else if t = "0" then Hint_bit0
  else if t = "1" then Hint_bit1
  else
    match parse_int t with
    | Some _ -> Hint_int
    | None -> (
        match parse_float t with
        | Some _ -> Hint_float
        | None -> (
            match parse_bool t with
            | Some _ -> Hint_bool
            | None -> if Date.is_date t then Hint_date else Hint_string))


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

let[@inline] days_in_month y m =
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
   language is exactly what this module documents. It reads a literal's
   tokens in place, left to right, and allocates nothing: a number is a
   run of at most four digits, a word a run of letters, a separator one
   of [-/:,.+], and spaces between tokens are skipped. Any other byte,
   or a run of five digits, is no token, so no format matches a literal
   that holds one. --- *)

let full_names =
  [| "january"; "february"; "march"; "april"; "may"; "june"; "july";
     "august"; "september"; "october"; "november"; "december" |]

let lower s i = Char.lowercase_ascii (String.unsafe_get s i)

(* [s] from [i] to [stop] is [name] from [j] on, ignoring the case of [s] *)
let rec equal_ci s i stop name j =
  i = stop || (lower s i = String.unsafe_get name j && equal_ci s (i + 1) stop name (j + 1))

(* The month the word from [i] to [stop] names in any case, as its full
   English name or its three-letter abbreviation, or 0. Its first three
   letters pick the only month it can name. *)
let month_in s i stop =
  let n = stop - i in
  if n < 3 || n > 9 then 0
  else
    let m =
      match (lower s i, lower s (i + 1), lower s (i + 2)) with
      | 'j', 'a', 'n' -> 1
      | 'f', 'e', 'b' -> 2
      | 'm', 'a', 'r' -> 3
      | 'a', 'p', 'r' -> 4
      | 'm', 'a', 'y' -> 5
      | 'j', 'u', 'n' -> 6
      | 'j', 'u', 'l' -> 7
      | 'a', 'u', 'g' -> 8
      | 's', 'e', 'p' -> 9
      | 'o', 'c', 't' -> 10
      | 'n', 'o', 'v' -> 11
      | 'd', 'e', 'c' -> 12
      | _ -> 0
    in
    let name = if m = 0 then "" else full_names.(m - 1) in
    if m > 0 && (n = 3 || (n = String.length name && equal_ci s (i + 3) stop name 3))
    then m
    else 0

let[@inline] is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

(* Spaces between tokens are usually none, which [skip_spaces] tells
   without a call: this runs on every string literal an inference
   classifies. *)
let rec spaces_from s i stop =
  if i < stop && String.unsafe_get s i = ' ' then spaces_from s (i + 1) stop else i

let[@inline] skip_spaces s i stop =
  if i < stop && String.unsafe_get s i = ' ' then spaces_from s (i + 1) stop else i

let letters_end s i stop =
  let j = ref i in
  while !j < stop && is_letter (String.unsafe_get s !j) do incr j done;
  !j

(* The end of the number token at [i], or -1 when there is none *)
let num_end s i stop =
  let e = Slice.digits_end s i stop in
  if e > i && e - i <= 4 then e else -1

(* The value of the digits from [i] to [j] *)
let value s i j =
  let v = ref 0 in
  for k = i to j - 1 do
    v := (!v * 10) + Char.code (String.unsafe_get s k) - 48
  done;
  !v

let[@inline] is_sep s i stop c = i < stop && String.unsafe_get s i = c

(* The word at [i] is the one letter [c], in either case *)
let[@inline] is_letter_word s i stop c =
  letters_end s i stop = i + 1 && Char.lowercase_ascii (String.unsafe_get s i) = c

(* What may end a time: nothing, an ISO zone designator [Z], or an
   offset [+hh:mm] or [-hh:mm]. The zone is recognized and discarded:
   inference only needs to know the literal is a date, not its
   absolute instant. *)
let zone_ends s i stop =
  i = stop
  || (is_letter_word s i stop 'z' && skip_spaces s (i + 1) stop = stop)
  || (is_sep s i stop '+' || is_sep s i stop '-')
     &&
     let e = num_end s (skip_spaces s (i + 1) stop) stop in
     e >= 0
     &&
     let j = skip_spaces s e stop in
     is_sep s j stop ':'
     &&
     let e = num_end s (skip_spaces s (j + 1) stop) stop in
     e >= 0 && skip_spaces s e stop = stop

(* A valid time of day, the zone from [rest] on: packed as
   [(h lsl 12) lor (m lsl 6) lor s], or -1 *)
let clock s h m sec rest stop =
  if h <= 23 && m <= 59 && sec <= 59 && zone_ends s rest stop then
    (h lsl 12) lor (m lsl 6) lor sec
  else -1

(* An optional time suffix from [i] on: [hh:mm], [hh:mm:ss] or
   [hh:mm:ss.fff], then a zone; midnight when there is none. *)
let time s i stop =
  if i = stop then 0
  else
    let e = num_end s i stop in
    let j = if e < 0 then stop else skip_spaces s e stop in
    if not (is_sep s j stop ':') then -1
    else
      let k = skip_spaces s (j + 1) stop in
      let e' = num_end s k stop in
      if e' < 0 then -1
      else
        let h = value s i e and m = value s k e' in
        let l = skip_spaces s e' stop in
        if not (is_sep s l stop ':') then clock s h m 0 l stop
        else
          let p = skip_spaces s (l + 1) stop in
          let e = num_end s p stop in
          if e < 0 then -1
          else
            let q = skip_spaces s e stop in
            (* fractional seconds: .123 *)
            let f =
              if is_sep s q stop '.' then num_end s (skip_spaces s (q + 1) stop) stop
              else -1
            in
            clock s h m (value s p e) (if f < 0 then q else skip_spaces s f stop) stop

(* A valid calendar date and the time from [rest] on, packed into one
   int (a year takes 14 bits) so that recognizing allocates nothing *)
let build s y m d rest stop =
  let t = time s rest stop in
  if
    t >= 0 && y >= 1 && y <= 9999 && m >= 1 && m <= 12 && d >= 1
    && d <= days_in_month y m
  then (((((y lsl 4) lor m) lsl 5) lor d) lsl 17) lor t
  else -1

let current_year = 2016
(* Year-less dates ("May 3") need *a* year for calendar validation; F# Data
   uses the current year. We pin the paper's year so behaviour is
   deterministic. Only validity (e.g. Feb 29) depends on it. *)

(* After "May 3" or "3 May", at [i]: a year, as [, yyyy] or [yyyy], or
   none, then a time *)
let with_year s m d i stop =
  let j = if is_sep s i stop ',' then skip_spaces s (i + 1) stop else i in
  let e = Slice.digits_end s j stop in
  if e - j = 4 then build s (value s j e) m d (skip_spaces s e stop) stop
  else build s current_year m d i stop

(* yyyy-mm-dd or yyyy/mm/dd read up to the day's end [e]: an ISO date
   may have a T before its time *)
let year_first s sep y m d e stop =
  let q = skip_spaces s e stop in
  let q =
    if q < stop && sep = '-' && is_letter_word s q stop 't' then skip_spaces s (q + 1) stop
    else q
  in
  build s y m d q stop

let[@inline] is_digit c = c >= '0' && c <= '9'
let[@inline] two_digits s i = is_digit (String.unsafe_get s i) && is_digit (String.unsafe_get s (i + 1))
let[@inline] digit s i = Char.code (String.unsafe_get s i) - 48

(* The ten bytes from [i] are [dddd-dd-dd] or [dddd/dd/dd] *)
let[@inline] plain_year_first s i =
  let sep = String.unsafe_get s (i + 4) in
  (sep = '-' || sep = '/')
  && String.unsafe_get s (i + 7) = sep
  && two_digits s i
  && two_digits s (i + 2)
  && two_digits s (i + 5)
  && two_digits s (i + 8)

(* A literal that starts with a number of [n] digits, [a], and goes on
   at [j] *)
let numeric s a n j stop =
  if j >= stop then -1
  else
    match String.unsafe_get s j with
    | ('-' | '/') as sep when n = 4 ->
        (* ISO: yyyy-mm-dd, with optional T or space before the time;
           yyyy/mm/dd *)
        let k = skip_spaces s (j + 1) stop in
        let e = num_end s k stop in
        let l = if e < 0 then stop else skip_spaces s e stop in
        if not (is_sep s l stop sep) then -1
        else
          let p = skip_spaces s (l + 1) stop in
          let e' = num_end s p stop in
          if e' < 0 then -1 else year_first s sep a (value s k e) (value s p e') e' stop
    | '/' ->
        (* mm/dd/yyyy (invariant culture), falling back to dd/mm/yyyy when
           the first number cannot be a month. *)
        let k = skip_spaces s (j + 1) stop in
        let e = num_end s k stop in
        let l = if e < 0 then stop else skip_spaces s e stop in
        if not (is_sep s l stop '/') then -1
        else
          let p = skip_spaces s (l + 1) stop in
          let e' = Slice.digits_end s p stop in
          if e' - p <> 4 then -1
          else
            let b = value s k e and y = value s p e' in
            let rest = skip_spaces s e' stop in
            if a <= 12 then build s y a b rest stop else build s y b a rest stop
    | c when n <= 2 && is_letter c ->
        (* 3 May | 3 May 2012 *)
        let w = letters_end s j stop in
        let m = month_in s j w in
        if m = 0 then -1 else with_year s m a (skip_spaces s w stop) stop
    | _ -> -1

(* The date the slice from [i] to [stop], as it lies, spells, packed
   as by [build], or -1 *)
let find s i stop =
  if stop - i < 3 || stop - i > 40 then -1
  else
    let c = String.unsafe_get s i in
    if stop - i = 10 && plain_year_first s i then
      (* yyyy-mm-dd or yyyy/mm/dd and nothing else: the commonest
         spelling, read at its places rather than through [numeric] *)
      let y =
        (digit s i * 1000) + (digit s (i + 1) * 100) + (digit s (i + 2) * 10) + digit s (i + 3)
      and m = (digit s (i + 5) * 10) + digit s (i + 6)
      and d = (digit s (i + 8) * 10) + digit s (i + 9) in
      if y >= 1 && m >= 1 && m <= 12 && d >= 1 && d <= days_in_month y m then
        ((((y lsl 4) lor m) lsl 5) lor d) lsl 17
      else -1
    else if is_digit c then
      let e = Slice.digits_end s i stop in
      if e - i > 4 then -1 else numeric s (value s i e) (e - i) (skip_spaces s e stop) stop
    else if is_letter c then
      (* May 3 | May 3, 2012 *)
      let w = letters_end s i stop in
      let m = month_in s i w in
      if m = 0 then -1
      else
        let j = skip_spaces s w stop in
        let e = Slice.digits_end s j stop in
        if e = j || e - j > 2 then -1 else with_year s m (value s j e) (skip_spaces s e stop) stop
    else -1

(* [find] on the slice trimmed as by [String.trim] *)
let find_trimmed s i stop =
  let i = Slice.trim_start s i stop in
  find s i (Slice.trim_stop s i stop)

let of_sub s off len =
  Slice.check "Date.of_sub" s off len;
  match find_trimmed s off (off + len) with
  | -1 -> None
  | p ->
      Some
        {
          year = p lsr 26;
          month = (p lsr 22) land 15;
          day = (p lsr 17) land 31;
          hour = (p lsr 12) land 31;
          minute = (p lsr 6) land 63;
          second = p land 63;
        }

let of_string s = of_sub s 0 (String.length s)

let is_date s = find_trimmed s 0 (String.length s) >= 0

let is_date_sub s off len =
  Slice.check "Date.is_date_sub" s off len;
  find_trimmed s off (off + len) >= 0

let is_date_trimmed s off len =
  Slice.check "Date.is_date_trimmed" s off len;
  find s off (off + len) >= 0

(* The two digits of [v], 0 to 99, at [i] *)
let put2 b i v =
  Bytes.unsafe_set b i (Char.unsafe_chr (48 + (v / 10)));
  Bytes.unsafe_set b (i + 1) (Char.unsafe_chr (48 + (v mod 10)))

let to_iso8601 t =
  let midnight = t.hour = 0 && t.minute = 0 && t.second = 0 in
  let two v = v >= 0 && v <= 99 in
  if t.year >= 0 && t.year <= 9999 && two t.month && two t.day && two t.hour
     && two t.minute && two t.second
  then begin
    let b = Bytes.create (if midnight then 10 else 19) in
    put2 b 0 (t.year / 100);
    put2 b 2 (t.year mod 100);
    Bytes.unsafe_set b 4 '-';
    put2 b 5 t.month;
    Bytes.unsafe_set b 7 '-';
    put2 b 8 t.day;
    if not midnight then begin
      Bytes.unsafe_set b 10 'T';
      put2 b 11 t.hour;
      Bytes.unsafe_set b 13 ':';
      put2 b 14 t.minute;
      Bytes.unsafe_set b 16 ':';
      put2 b 17 t.second
    end;
    Bytes.unsafe_to_string b
  end
  else if midnight then Printf.sprintf "%04d-%02d-%02d" t.year t.month t.day
  else
    Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02d" t.year t.month t.day t.hour
      t.minute t.second

let pp ppf t = Fmt.string ppf (to_iso8601 t)

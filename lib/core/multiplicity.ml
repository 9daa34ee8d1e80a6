type t = Single | Optional_single | Multiple

let equal = ( = )

let rank = function Single -> 0 | Optional_single -> 1 | Multiple -> 2
let is_preferred a b = rank a <= rank b
let lub a b = if rank a >= rank b then a else b

let widen_absent = function
  | Single -> Optional_single
  | (Optional_single | Multiple) as m -> m

let of_count = function
  | n when n <= 0 -> invalid_arg "Multiplicity.of_count: non-positive count"
  | 1 -> Single
  | _ -> Multiple

let to_string = function Single -> "1" | Optional_single -> "1?" | Multiple -> "*"
let pp ppf m = Fmt.string ppf (to_string m)

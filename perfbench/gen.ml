(* Seeded input generation. Every input of every workload comes from the
   --seed argument through [rng]: corpora, request schedules, push
   batches and the pre-built registry state. The same seed gives the same
   bytes; sizes are fixed per input slot, so seeds vary content only. *)

(* splitmix64, truncated to OCaml's 63-bit ints *)
type rng = { mutable s : int64 }

let rng ~seed ~stream =
  { s = Int64.(add (mul (of_int seed) 0x9E3779B97F4A7C15L) (of_int (stream * 7919 + 1))) }

let next r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  Int64.to_int (Int64.shift_right_logical z 2)

let int r n = next r mod n
let float r = float_of_int (next r land 0xFFFFFF) /. float_of_int 0x1000000
let bool r = next r land 1 = 0

(* A low-discrepancy sequence in [0,1): frac(offset + k * step) with an
   irrational step and a seeded offset. Every stretch of it covers [0,1)
   almost evenly, so a request mix drawn through it has nearly the same
   proportions in every run, where i.i.d. draws would move a tail
   percentile by their sampling noise alone. *)
type lds = { mutable k : int; offset : float; step : float }

let lds r ~step = { k = 0; offset = float r; step }

let lds_next q =
  q.k <- q.k + 1;
  let x = q.offset +. (float_of_int q.k *. q.step) in
  x -. Float.floor x

let golden = 0.6180339887498949
let sqrt2 = 0.4142135623730951

(* --- JSON text helpers: documents are written directly as text --- *)

let add_str b s =
  Buffer.add_char b '"';
  Buffer.add_string b s;
  Buffer.add_char b '"'

let add_field b ~first k v =
  if not first then Buffer.add_char b ',';
  add_str b k;
  Buffer.add_char b ':';
  v b

let obj b fields =
  Buffer.add_char b '{';
  List.iteri (fun i (k, v) -> add_field b ~first:(i = 0) k v) fields;
  Buffer.add_char b '}'

let str s b = add_str b s
let int_v n b = Buffer.add_string b (string_of_int n)
let bool_v v b = Buffer.add_string b (if v then "true" else "false")
let null_v b = Buffer.add_string b "null"
let float_v x b = Buffer.add_string b (Printf.sprintf "%.3f" x)

let hex r = Printf.sprintf "%015x" (next r land 0xFFFFFFFFFFFFFFF)

(* --- the four corpus kinds --- *)

type kind = Events | Wide | Payload | Worldbank

let kinds = [| Events; Wide; Payload; Worldbank |]

let kind_name = function
  | Events -> "events"
  | Wide -> "wide"
  | Payload -> "payload"
  | Worldbank -> "worldbank"

let date r = Printf.sprintf "20%02d-%02d-%02d" (10 + int r 14) (1 + int r 12) (1 + int r 28)

(* varied event records: optional fields, nullable values, nested users,
   tag lists and dates, so every merge meets real optionality *)
let event r i b =
  let base =
    [
      ("id", int_v i);
      ("kind", str (Printf.sprintf "kind%d" (int r 7)));
      ("at", str (date r));
    ]
  in
  let extra =
    match int r 5 with
    | 0 -> []
    | 1 -> [ ("value", float_v (float r *. 1000.)) ]
    | 2 -> [ ("value", int_v (int r 1000)); ("flag", bool_v (bool r)) ]
    | 3 ->
        [
          ("note", null_v);
          ( "user",
            fun b ->
              obj b
                [
                  ("name", str (Printf.sprintf "user%d" (int r 500)));
                  ("age", int_v (18 + int r 60));
                ] );
        ]
    | _ ->
        [
          ( "tags",
            fun b ->
              Buffer.add_char b '[';
              for j = 0 to int r 4 - 1 do
                if j > 0 then Buffer.add_char b ',';
                add_str b (Printf.sprintf "t%d" (int r 20))
              done;
              Buffer.add_char b ']' );
        ]
  in
  obj b (base @ extra)

(* 200-field records; the field's index fixes its type *)
let wide_width = 200

let wide_value r j b =
  match j mod 4 with
  | 0 -> int_v (int r 100000) b
  | 1 -> str (Printf.sprintf "v%d" (int r 1000)) b
  | 2 -> bool_v (bool r) b
  | _ -> float_v (float r *. 100.) b

let wide r _i b =
  obj b (List.init wide_width (fun j -> (Printf.sprintf "f%03d" j, wide_value r j)))

(* B14-style: three small fields a query touches and a payload record an
   order of magnitude bigger that a pruned decoder skips *)
let payload r i b =
  obj b
    [
      ("name", str (Printf.sprintf "user%d" i));
      ("age", int_v (18 + int r 60));
      ("active", bool_v (bool r));
      ( "payload",
        fun b -> obj b (List.init 30 (fun j -> (Printf.sprintf "p%02d" j, str (hex r)))) );
    ]

(* World Bank style rows: nested id/value records, numeric strings,
   nulls, and a value that is sometimes a number and sometimes a string *)
let countries = [| "CZ"; "GB"; "US"; "FR"; "DE"; "JP"; "BR"; "IN" |]

let worldbank r _i b =
  let c = countries.(int r (Array.length countries)) in
  obj b
    [
      ( "indicator",
        fun b -> obj b [ ("id", str "GC.DOD.TOTL.GD.ZS"); ("value", str "Central government debt") ] );
      ("country", fun b -> obj b [ ("id", str c); ("value", str ("Country " ^ c)) ]);
      ( "value",
        match int r 4 with
        | 0 -> null_v
        | 1 -> float_v (float r *. 100.)
        | _ -> str (Printf.sprintf "%d.%04d" (int r 100) (int r 10000)) );
      ("decimal", str "1");
      ("date", str (string_of_int (1990 + int r 30)));
    ]

let doc_writer = function
  | Events -> event
  | Wide -> wide
  | Payload -> payload
  | Worldbank -> worldbank

(* Documents of one kind, newline-separated, until [bytes] is reached. *)
let docs kind r ~bytes =
  let w = doc_writer kind in
  let b = Buffer.create 256 in
  let rec go i acc total =
    if total >= bytes then List.rev acc
    else begin
      Buffer.clear b;
      w r i b;
      let d = Buffer.contents b in
      go (i + 1) (d :: acc) (total + String.length d + 1)
    end
  in
  go 0 [] 0

let text docs = String.concat "\n" docs ^ "\n"

(* A malformed copy of a document: its first key/value separator blanked.
   The document stays brace-balanced, so the recovering parser skips
   exactly this document. *)
let corrupt d =
  match String.index_opt d ':' with
  | Some j -> String.mapi (fun k c -> if k = j then ' ' else c) d
  | None -> "{" ^ d

(* [docs] as text with one malformed document inserted after every
   [every]-th (offset seeded, so a corpus shorter than [every] still gets
   one). *)
let with_faults r ~every docs =
  let off = int r (min every (List.length docs)) in
  text (List.concat (List.mapi (fun i d -> if i mod every = off then [ d; corrupt d ] else [ d ]) docs))

(* --- request bodies for the HTTP workloads --- *)

let url_encode s =
  let b = Buffer.create (String.length s * 2) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | '~' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let digest s = Digest.to_hex (Digest.string s)

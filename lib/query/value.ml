open Fsdata_core
open Fsdata_data
open Shape_compile
open Syntax

type stats = { scanned : int; matched : int; skipped : int; malformed : int }
type result = { rows : tvalue list; stats : stats }

let m_docs = Fsdata_obs.Metrics.counter "query.docs"
let m_rows = Fsdata_obs.Metrics.counter "query.rows"
let m_skipped = Fsdata_obs.Metrics.counter "query.skipped"
let m_malformed = Fsdata_obs.Metrics.counter "query.malformed"

let record_stats s =
  Fsdata_obs.Metrics.add m_docs s.scanned;
  Fsdata_obs.Metrics.add m_rows s.matched;
  Fsdata_obs.Metrics.add m_skipped s.skipped;
  Fsdata_obs.Metrics.add m_malformed s.malformed

let is_null = function Vnull | Vany Data_value.Null -> true | _ -> false

let rec get v p =
  match p with
  | [] -> v
  | f :: rest -> (
      match v with
      | Vrecord (_, fields) -> (
          match Array.find_opt (fun (k, _) -> String.equal k f) fields with
          | Some (_, v') -> get v' rest
          | None -> Vnull)
      | Vany (Data_value.Record (_, dfields)) -> (
          match List.assoc_opt f dfields with
          | Some d -> get (Vany d) rest
          | None -> Vnull)
      | _ -> Vnull)

let exists v = not (is_null v)

(* Compare a row value with a literal; [None] when the two are not
   comparable (null, or a shape the checker would have rejected). *)
let compare_lit (v : tvalue) (lit : literal) : int option =
  match (v, lit) with
  | Vint i, Lint j -> Some (compare i j)
  | Vint i, Lfloat f -> Some (Float.compare (float_of_int i) f)
  | Vfloat f, Lint j -> Some (Float.compare f (float_of_int j))
  | Vfloat f, Lfloat g -> Some (Float.compare f g)
  | Vbool b, Lbool c -> Some (compare b c)
  | Vstring s, Lstring t -> Some (compare s t)
  | Vdate d, Lstring t -> (
      match Date.of_string t with
      | Some dt -> Some (Date.compare d dt)
      | None -> None)
  | _ -> None

let test_compare v (c : cmp) lit =
  match lit with
  | Lnull -> ( match c with Eq -> is_null v | Ne -> not (is_null v) | _ -> false)
  | _ -> (
      if is_null v then false
      else
        match compare_lit v lit with
        | None -> false
        | Some n -> (
            match c with
            | Eq -> n = 0
            | Ne -> n <> 0
            | Lt -> n < 0
            | Le -> n <= 0
            | Gt -> n > 0
            | Ge -> n >= 0))

let render v = Json.to_string (to_data v)

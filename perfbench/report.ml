(* What one run prints: human-readable lines, then one JSON object. *)

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let line fmt = Printf.printf (fmt ^^ "\n%!")

(* Each input's size and digest, so a run records exactly what it fed. *)
let inputs (l : (string * string) list) =
  List.iter (fun (name, bytes) -> line "input %-28s %9d B  md5 %s" name (String.length bytes) (Gen.digest bytes)) l

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x else Printf.sprintf "%.17g" x

let print r =
  let metrics =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" r.correct
    r.attempted r.failed (String.concat ", " metrics)

(** The parallel JSON entry point of earlier releases, kept for callers
    written against it. Parallel inference is {!Infer.run}'s [?jobs]. *)

val of_json_tolerant :
  ?jobs:int ->
  budget:Fsdata_data.Diagnostic.budget ->
  string ->
  (Infer.report, string) result
(** [Infer.run ?jobs budget Json (String src)]. *)

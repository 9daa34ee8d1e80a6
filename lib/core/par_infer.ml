let of_json_tolerant ?jobs ~budget src = Infer.run ?jobs budget Json (String src)

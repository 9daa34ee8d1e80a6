(* corpus_ingest: the batch CLI path. One closed-loop client spawns one
   `fsdata` job per operation, at --jobs 1, over a fixed rotation of
   seeded corpora: `query --compiled` on a clean corpus and
   `infer --max-errors 1%` on the same corpus with ~0.5% malformed
   documents inserted. *)

module Shape = Fsdata_core.Shape

type corpus = {
  name : string;
  clean : string;
  faulty : string;
  query : string;
}

(* 16 corpora: the four kinds in turn, sizes 256 KiB to 976 KiB in 48 KiB
   steps, so job times spread evenly instead of clustering (a median of a
   clustered mix jumps between clusters from run to run). *)
let corpora_count = 16
let corpus_bytes j = (256 * 1024) + (j * 48 * 1024)
let fault_every = 200

let query_of = function
  | Gen.Events -> {|where .kind == "kind3" | select .id, .at|}
  | Gen.Wide -> {|where .f000 > 50000 | select .f001, .f002|}
  | Gen.Payload -> {|where .age >= 40 | select .name, .age|}
  | Gen.Worldbank -> {|where .country.id == "CZ" | select .date, .value|}

let corpora seed =
  Array.init corpora_count (fun j ->
      let kind = Gen.kinds.(j mod Array.length Gen.kinds) in
      let r = Gen.rng ~seed ~stream:(100 + j) in
      let docs = Gen.docs kind r ~bytes:(corpus_bytes j) in
      let faulty = Gen.with_faults r ~every:fault_every docs in
      {
        name = Printf.sprintf "%s-%02d" (Gen.kind_name kind) j;
        clean = Gen.text docs;
        faulty;
        query = query_of kind;
      })

(* The one-document input whose `fsdata infer` wall time is setup_s. *)
let one_doc seed =
  let r = Gen.rng ~seed ~stream:99 in
  match Gen.docs Gen.Events r ~bytes:1 with d :: _ -> d ^ "\n" | [] -> assert false

type job = Query of int | Infer of int

(* Both jobs of corpus (5i mod 16) in turn: every window of the rotation
   mixes kinds and sizes. *)
let rotation = Array.concat (List.init corpora_count (fun i -> let j = 5 * i mod corpora_count in [| Query j; Infer j |]))

(* Reference outputs: the shape the interpreted Infer.of_json gives for
   the clean documents, and the rows the reference query interpreter
   Fsdata_query.Eval gives, both rendered as the CLI prints them. *)
let render_shape s = Format.asprintf "%a@." Shape.pp s

let reference_rows sigma q src =
  let query = Fsdata_query.Parser.parse q in
  match Fsdata_query.Check.check sigma query with
  | Error e -> failwith (Format.asprintf "query %s rejected: %a" q Fsdata_query.Check.pp_error e)
  | Ok checked ->
      let res = Fsdata_query.Eval.eval checked src in
      String.concat "" (List.map (fun r -> Fsdata_query.Value.render r ^ "\n") res.Fsdata_query.Value.rows)

let references cs =
  Array.map
    (fun c ->
      let sigma = Result.get_ok (Fsdata_core.Infer.of_json c.clean) in
      (Gen.digest (render_shape sigma), Gen.digest (reference_rows sigma c.query c.clean)))
    cs

(* What the measuring process keeps of a corpus: paths, sizes and the
   digests of the expected outputs. *)
type prepared = {
  p_name : string;
  p_clean_bytes : int;
  p_faulty_bytes : int;
  p_shape_ref : string;
  p_rows_ref : string;
}

(* Generate and write the inputs and compute the reference outputs in a
   child process: the measuring process stays small, because a forked
   job's peak RSS starts from the size of the process that forked it. *)
let prepare ~dir ~seed =
  Util.in_child (fun () ->
      let cs = corpora seed in
      let one = one_doc seed in
      Report.inputs
        (("one.json", one)
        :: List.concat_map (fun c -> [ (c.name ^ ".json", c.clean); (c.name ^ ".faulty.json", c.faulty) ]) (Array.to_list cs));
      Util.write_file (Filename.concat dir "one.json") one;
      let refs = references cs in
      let prepared =
        Array.mapi
          (fun j c ->
            Util.write_file (Filename.concat dir (c.name ^ ".json")) c.clean;
            Util.write_file (Filename.concat dir (c.name ^ ".faulty.json")) c.faulty;
            {
              p_name = c.name;
              p_clean_bytes = String.length c.clean;
              p_faulty_bytes = String.length c.faulty;
              p_shape_ref = fst refs.(j);
              p_rows_ref = snd refs.(j);
            })
          cs
      in
      (prepared, Gen.digest (render_shape (Result.get_ok (Fsdata_core.Infer.of_json one)))))

let job_args dir (cs : prepared array) = function
  | Query j ->
      [ "query"; "--compiled"; "-q"; query_of Gen.kinds.(j mod Array.length Gen.kinds);
        Filename.concat dir (cs.(j).p_name ^ ".json") ]
  | Infer j ->
      [ "infer"; "--jobs"; "1"; "--max-errors"; "1%"; Filename.concat dir (cs.(j).p_name ^ ".faulty.json") ]

let setup_repeats = 21

let run ~fsdata ~dir ~seed ~seconds =
  let cs, one_ref = prepare ~dir ~seed in
  let one_path = Filename.concat dir "one.json" in
  (* set-up: the start-up cost every CLI job pays *)
  let setup_ok = ref true in
  let setups =
    List.init setup_repeats (fun _ ->
        let j = Util.run_job fsdata [ "infer"; "--jobs"; "1"; one_path ] in
        if j.Util.code <> 0 || Gen.digest j.Util.out <> one_ref then setup_ok := false;
        (Util.ms_of_ns j.Util.wall_ns /. 1e3, Probe.once ()))
  in
  let setup_scales, _ = Probe.local_scales (Array.of_list (List.map snd setups)) in
  let setups = List.mapi (fun i (s, _) -> s *. setup_scales.(i)) setups in
  let stop = Util.now_ns () + (seconds * 1_000_000_000) in
  let results = ref [] in
  let k = ref 0 in
  (* whole rotations only, so every run measures the same mix *)
  while Util.now_ns () < stop || !k mod Array.length rotation <> 0 do
    let job = rotation.(!k mod Array.length rotation) in
    incr k;
    let r = Util.run_job fsdata (job_args dir cs job) in
    let ok, bytes =
      match job with
      | Query j -> (r.Util.code = 0 && Gen.digest r.Util.out = cs.(j).p_rows_ref, cs.(j).p_clean_bytes)
      | Infer j ->
          (* exit 3: the malformed documents were quarantined *)
          (r.Util.code = 3 && Gen.digest r.Util.out = cs.(j).p_shape_ref, cs.(j).p_faulty_bytes)
    in
    if not ok then
      Report.line "corpus_ingest: FAILED %s (exit %d)" (String.concat " " (job_args dir cs job)) r.Util.code;
    results := (r, ok, bytes, Probe.once ()) :: !results
  done;
  let rs = Array.of_list (List.rev !results) in
  let scales, cpu_scales = Probe.local_scales (Array.map (fun (_, _, _, p) -> p) rs) in
  let attempted = Array.length rs in
  let failed = Array.fold_left (fun a (_, ok, _, _) -> if ok then a else a + 1) 0 rs in
  let wall i = let r, _, _, _ = rs.(i) in Util.ms_of_ns r.Util.wall_ns *. scales.(i) in
  let cpu i = let r, _, _, _ = rs.(i) in float_of_int r.Util.cpu_us /. 1e3 *. cpu_scales.(i) in
  let bytes i = let _, _, b, _ = rs.(i) in float_of_int b in
  (* Each rotation runs the same 32 jobs, so its percentiles pick the
     same jobs every time; the run reports the median over rotations, so
     a host slowdown during one rotation moves it little. *)
  let len = Array.length rotation in
  let rotations = List.init (attempted / len) (fun k -> List.init len (fun i -> (k * len) + i)) in
  let per_rotation f = Util.median (List.map f rotations) in
  let rss = Array.fold_left (fun a (r, _, _, _) -> max a r.Util.maxrss_kib) 0 rs in
  let raw = List.init attempted (fun i -> let r, _, _, _ = rs.(i) in Util.ms_of_ns r.Util.wall_ns) in
  Report.line "corpus_ingest: unscaled p50 %.3f ms p90 %.3f ms cpu %.3f ms; kernel median wall %.3f ms cpu %.3f ms (nominal %.1f)"
    (Util.median raw) (Util.quantile 0.9 raw)
    (float_of_int (Array.fold_left (fun a (r, _, _, _) -> a + r.Util.cpu_us) 0 rs) /. 1e3 /. float_of_int attempted)
    (Util.median (Array.to_list (Array.map (fun (_, _, _, p) -> p.Probe.wall) rs)))
    (Util.median (Array.to_list (Array.map (fun (_, _, _, p) -> p.Probe.cpu) rs))) Probe.nominal_ms;
  Report.line "corpus_ingest: %d jobs (%d failed), setup runs %d" attempted failed setup_repeats;
  {
    Report.correct = failed = 0 && !setup_ok;
    attempted;
    failed;
    metrics =
      [
        ("p50_ms", per_rotation (fun r -> Util.median (List.map wall r)), "ms");
        ("p90_ms", per_rotation (fun r -> Util.quantile 0.9 (List.map wall r)), "ms");
        ( "mib_per_s",
          per_rotation (fun r -> Util.sum (List.map bytes r) /. 1048576. /. (Util.sum (List.map wall r) /. 1e3)),
          "MiB/s" );
        ("cpu_ms_per_op", per_rotation (fun r -> Util.sum (List.map cpu r) /. float_of_int len), "ms");
        ("peak_rss_mib", float_of_int rss /. 1024., "MiB");
        ("setup_s", Util.median setups, "s");
      ];
  }

(* perfbench WORKLOAD: see perfbench/README.md. Invoked by run.py from
   the root of a checkout, after it has built bin/fsdata.exe. *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload corpus_ingest|serve_read|stream_write --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  Util.start_spawner ();
  Probe.start_echo ();
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: n :: rest ->
        seconds := int_of_string n;
        parse rest
    | "--trace" :: n :: rest ->
        trace := int_of_string n;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let fsdata = Filename.concat (Sys.getcwd ()) "_build/default/bin/fsdata.exe" in
  if not (Sys.file_exists fsdata) then begin
    prerr_endline ("perfbench: missing " ^ fsdata);
    exit 2
  end;
  let root = Filename.concat (Sys.getcwd ()) ".bench_build/perfbench" in
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ())) in
  Util.mkdir_p dir;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let report =
    Fun.protect
      ~finally:(fun () -> Util.rm_rf dir)
      (fun () ->
        if !trace = 1 then
          Traced.run ~workload:!workload ~dir ~seed:!seed ~seconds:!seconds
            ~spans_file:(Filename.concat root (Printf.sprintf "spans-%s-%d.json" !workload !seed))
        else
          match !workload with
          | "corpus_ingest" -> Ingest.run ~fsdata ~dir ~seed:!seed ~seconds:!seconds
          | "serve_read" -> Serve_read.run ~fsdata ~dir ~seed:!seed ~seconds:!seconds
          | "stream_write" -> Stream_write.run ~fsdata ~dir ~seed:!seed ~seconds:!seconds
          | _ -> usage ())
  in
  Report.print report

(* Fresh-process benchmark driver.

   OCaml 5.1 never compacts the major heap, so benchmark groups sharing
   one process contaminate each other: whichever group runs later pays
   allocation-rate and cache costs for heap growth it did not cause
   (EXPERIMENTS.md B9 records a fictitious +140% measured that way).
   Interleaving repeats inside a group — what the obs group does — only
   cancels drift within the group. This driver kills the remaining
   cross-group drift by running every group in its own main.exe process,
   so each starts from a pristine heap.

   Usage: driver.exe [--smoke] [group ...]   (default: every group)

   Every named group runs, even after one fails; the exit status is the
   first failing group's, so smoke assertions keep their teeth under
   `dune runtest` and one failure does not hide the others. *)

(* Must track bench/main.ml's group table; an unknown name fails the run
   (main.exe exits 1 listing what is available). *)
let default_groups =
  [
    "fig1"; "fig2"; "loc"; "infer"; "parse"; "access"; "shape"; "provider";
    "par"; "faults"; "obs"; "hetero"; "serve"; "compile"; "loadgen";
    "registry"; "query"; "evolve";
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (fun a -> a = "--smoke") args in
  let names = if names = [] then default_groups else names in
  let main =
    Filename.concat (Filename.dirname Sys.executable_name) "main.exe"
  in
  if not (Sys.file_exists main) then begin
    Printf.eprintf "driver: %s not found (build bench/main.exe first)\n" main;
    exit 1
  end;
  let run group =
    let argv = Array.of_list ((main :: flags) @ [ group ]) in
    let pid =
      Unix.create_process main argv Unix.stdin Unix.stdout Unix.stderr
    in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> 0
    | _, Unix.WEXITED code ->
        Printf.eprintf "driver: group %s exited with %d\n%!" group code;
        code
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
        Printf.eprintf "driver: group %s killed by signal %d\n%!" group s;
        1
  in
  let first_failure =
    List.fold_left
      (fun status group ->
        let code = run group in
        if status = 0 then code else status)
      0 names
  in
  exit first_failure

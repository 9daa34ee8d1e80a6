(* Storage-chaos tests for the durable registry (lib/registry), driven
   through the deterministic Fault_fs shim: injected I/O errors fail the
   push without corrupting state, a kill between any write and its fsync
   leaves at worst a torn tail that recovery truncates, and a kill at
   every injection point of a whole workload — the sweep at the bottom —
   recovers to exactly the last acknowledged version, byte-identically.
   The network twin is test_chaos.ml. *)

module Registry = Fsdata_registry.Registry
module Wal = Fsdata_registry.Wal
module Fault_fs = Fsdata_registry.Fault_fs
module Shape = Fsdata_core.Shape
module Shape_parser = Fsdata_core.Shape_parser

let check = Alcotest.check
let tc = Alcotest.test_case
let sh = Shape_parser.parse

let temp_dir () =
  let path = Filename.temp_file "fsdata-chaos-fs" "" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let find_exn t name =
  match Registry.find t name with
  | Some st -> st
  | None -> Alcotest.failf "stream %S not found" name

(* The states a stream can legitimately recover to: an observation of
   (version, shape text, pushes) taken at an acknowledged point. *)
let observe st =
  (st.Registry.version, Shape.to_string st.Registry.shape, st.Registry.pushes)

let check_state msg expected st = check
    (Alcotest.triple Alcotest.int Alcotest.string Alcotest.int)
    msg expected (observe st)

(* ----- the shim itself ----- *)

let test_shim_is_deterministic () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let fault = Fault_fs.create () in
  let fd =
    Unix.openfile (Filename.concat dir "f") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  Fault_fs.inject_write fault [ Fault_fs.Pass; Fault_fs.Error Unix.EIO ];
  check Alcotest.int "Pass lets the first write through" 5
    (Fault_fs.write_substring (Some fault) fd "hello" 0 5);
  (try
     ignore (Fault_fs.write_substring (Some fault) fd "boom" 0 4);
     Alcotest.fail "second write should have raised EIO"
   with Unix.Unix_error (Unix.EIO, _, _) -> ());
  check Alcotest.int "queue drained: third write passes" 2
    (Fault_fs.write_substring (Some fault) fd "ok" 0 2);
  check Alcotest.int "three ops observed" 3 (Fault_fs.ops fault);
  check Alcotest.int "one fault fired (Pass does not count)" 1
    (Fault_fs.injected fault);
  Unix.close fd

let test_short_writes_clamp () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let fault = Fault_fs.create () in
  Fault_fs.set_max_write fault 3;
  let fd =
    Unix.openfile (Filename.concat dir "f") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644
  in
  check Alcotest.int "write clamped" 3
    (Fault_fs.write_substring (Some fault) fd "0123456789" 0 10);
  Fault_fs.set_max_write fault 0;
  check Alcotest.int "clamp removed" 10
    (Fault_fs.write_substring (Some fault) fd "0123456789" 0 10);
  Unix.close fd

(* ----- failed appends leave the acknowledged state ----- *)

let failed_append_is_clean err () =
  with_dir @@ fun dir ->
  let fault = Fault_fs.create () in
  let t = Registry.open_ ~fault ~dir:(Some dir) () in
  let acked = observe (Registry.push t ~stream:"s" (sh "{a: int}")) in
  Fault_fs.inject_write fault [ Fault_fs.Error err ];
  (try
     ignore (Registry.push t ~stream:"s" (sh "{a: int, b: string}"));
     Alcotest.fail "push should have raised"
   with Unix.Unix_error (e, _, _) ->
     check Alcotest.string "the injected error surfaces"
       (Unix.error_message err) (Unix.error_message e));
  check_state "in-memory state unchanged by the failed push" acked
    (find_exn t "s");
  (* the stream is not wedged: a retry goes through *)
  let st = Registry.push t ~stream:"s" (sh "{a: int, b: string}") in
  check Alcotest.int "retry applies" 2 st.Registry.version;
  let acked = observe st in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check_state "recovery sees exactly the acknowledged pushes" acked
    (find_exn t2 "s");
  Registry.close t2

let test_eio_append = failed_append_is_clean Unix.EIO
let test_enospc_append = failed_append_is_clean Unix.ENOSPC

(* The nearly-full-disk shape of an append failure: a short write lands
   part of the frame, then the next write raises ENOSPC. The torn bytes
   must be rolled back before the push that retries — otherwise they
   sit between acked records and the next recovery truncates away
   everything after them, silently dropping acknowledged pushes. *)
let test_torn_append_rolled_back () =
  with_dir @@ fun dir ->
  let fault = Fault_fs.create () in
  let t = Registry.open_ ~fault ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  Fault_fs.set_max_write fault 4;
  Fault_fs.inject_write fault [ Fault_fs.Pass; Fault_fs.Error Unix.ENOSPC ];
  (try
     ignore (Registry.push t ~stream:"s" (sh "{a: int, b: string}"));
     Alcotest.fail "push should have raised ENOSPC"
   with Unix.Unix_error (Unix.ENOSPC, _, _) -> ());
  Fault_fs.set_max_write fault 0;
  (* the retry is acknowledged — it must survive recovery even though
     torn bytes briefly preceded it in the file *)
  let acked = observe (Registry.push t ~stream:"s" (sh "{a: int, b: string}")) in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check_state "acked retry recovered: no torn frame was left before it" acked
    (find_exn t2 "s");
  check Alcotest.int "both acked records replayed" 2 (Registry.wal_records t2);
  Registry.close t2

(* A frame whose write completed but whose fsync failed was never
   acknowledged; it too is rolled back, or its seq would collide with
   the acked retry that follows and replay would resurrect the failed
   delta instead. The deltas differ so the test can tell them apart. *)
let test_failed_fsync_rolls_back_frame () =
  with_dir @@ fun dir ->
  let fault = Fault_fs.create () in
  let t = Registry.open_ ~fault ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  Fault_fs.inject_fsync fault [ Fault_fs.Error Unix.EIO ];
  (try
     ignore (Registry.push t ~stream:"s" (sh "{b: bool}"));
     Alcotest.fail "push should have raised EIO"
   with Unix.Unix_error (Unix.EIO, _, _) -> ());
  let acked = observe (Registry.push t ~stream:"s" (sh "{c: string}")) in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check_state "recovery sees the acked pushes, not the unfsynced frame" acked
    (find_exn t2 "s");
  Registry.close t2

(* ----- kills around the write/fsync boundary ----- *)

let test_kill_between_write_and_fsync () =
  with_dir @@ fun dir ->
  let fault = Fault_fs.create () in
  let t = Registry.open_ ~fault ~dir:(Some dir) () in
  let acked = observe (Registry.push t ~stream:"s" (sh "{a: int}")) in
  Fault_fs.inject_fsync fault [ Fault_fs.Kill ];
  (try
     ignore (Registry.push t ~stream:"s" (sh "{a: int, b: string}"));
     Alcotest.fail "push should have crashed"
   with Fault_fs.Crash -> ());
  check_state "memory still at the last ack" acked (find_exn t "s");
  Registry.close t;
  (* the record was fully written before the kill: recovery may apply
     it — the unacked push is fully applied or absent, never torn *)
  let t2 = Registry.open_ ~dir:(Some dir) () in
  let recovered = find_exn t2 "s" in
  let applied =
    let merged = Fsdata_core.Csh.csh (sh "{a: int}") (sh "{a: int, b: string}") in
    (2, Shape.to_string merged, 2)
  in
  if observe recovered <> acked && observe recovered <> applied then
    Alcotest.failf "recovered to neither ack nor full application: %d %s"
      recovered.Registry.version
      (Shape.to_string recovered.Registry.shape);
  Registry.close t2

let test_kill_mid_record_write () =
  with_dir @@ fun dir ->
  let fault = Fault_fs.create () in
  let t = Registry.open_ ~fault ~dir:(Some dir) () in
  let acked = observe (Registry.push t ~stream:"s" (sh "{a: int}")) in
  (* tear the next record: 4 bytes land, then the process dies *)
  Fault_fs.set_max_write fault 4;
  Fault_fs.inject_write fault [ Fault_fs.Pass; Fault_fs.Kill ];
  (try
     ignore (Registry.push t ~stream:"s" (sh "{a: int, b: string}"));
     Alcotest.fail "push should have crashed"
   with Fault_fs.Crash -> ());
  Registry.close t;
  let t2 = Registry.open_ ~fsync:`Never ~dir:(Some dir) () in
  check_state "torn record absent: state is the last ack, byte-identical"
    acked (find_exn t2 "s");
  Registry.close t2

(* ----- torn and corrupted logs ----- *)

let test_torn_tail_never_parsed () =
  with_dir @@ fun dir ->
  let t = Registry.open_ ~dir:(Some dir) () in
  let acked = observe (Registry.push t ~stream:"s" (sh "{a: int}")) in
  Registry.close t;
  (* a torn frame header claiming more bytes than exist *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644
      (Filename.concat dir "wal.log")
  in
  output_string oc "\xff\xff\x00\x00half a record";
  close_out oc;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check_state "tail truncated, state intact" acked (find_exn t2 "s");
  Registry.close t2;
  (* and the repair is durable: a third open sees a clean log *)
  let t3 = Registry.open_ ~dir:(Some dir) () in
  check_state "clean after repair" acked (find_exn t3 "s");
  Registry.close t3

let test_checksum_failure_truncates () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.log" in
  let w, _ = Wal.open_ ~fsync:`Never path in
  Wal.append w "first";
  Wal.append w "second";
  Wal.close w;
  (* flip one payload byte of the second record: its CRC now fails *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (8 + 5 + 8) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd;
  let w, r = Wal.open_ ~fsync:`Never path in
  check (Alcotest.list Alcotest.string)
    "everything from the bad checksum on is gone, never parsed" [ "first" ]
    r.Wal.records;
  check Alcotest.bool "bytes were truncated" true (r.Wal.truncated_bytes > 0);
  Wal.close w

(* ----- crashes inside snapshot compaction ----- *)

let snapshot_crash_recovers ~inject () =
  with_dir @@ fun dir ->
  let fault = Fault_fs.create () in
  let t = Registry.open_ ~fault ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  let acked = observe (Registry.push t ~stream:"s" (sh "{a: int, b: string}")) in
  inject fault;
  (try
     Registry.snapshot t;
     Alcotest.fail "snapshot should have crashed"
   with Fault_fs.Crash -> ());
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check_state "recovered to the acknowledged state" acked (find_exn t2 "s");
  (* no stale tmp file survives recovery *)
  check Alcotest.bool "snapshot.tmp cleaned up" false
    (Sys.file_exists (Filename.concat dir "snapshot.tmp"));
  Registry.close t2

let test_kill_writing_snapshot_tmp =
  snapshot_crash_recovers ~inject:(fun fault ->
      Fault_fs.inject_write fault [ Fault_fs.Kill ])

let test_kill_between_rename_and_truncate =
  (* the nasty window: snapshot.bin already holds everything, the WAL
     still holds the same records — seq dedup must keep replay from
     applying them twice *)
  snapshot_crash_recovers ~inject:(fun fault ->
      Fault_fs.inject_truncate fault [ Fault_fs.Kill ])

let test_enospc_during_snapshot_fails_softly () =
  with_dir @@ fun dir ->
  let fault = Fault_fs.create () in
  let t = Registry.open_ ~fault ~snapshot_every:2 ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  (* this push trips compaction; the snapshot write fails but the push
     itself was already durable in the WAL, so it must succeed *)
  Fault_fs.inject_write fault [ Fault_fs.Pass; Fault_fs.Error Unix.ENOSPC ];
  let st = Registry.push t ~stream:"s" (sh "{a: int, b: string}") in
  check Alcotest.int "push acknowledged despite snapshot failure" 2
    st.Registry.version;
  let acked = observe st in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check_state "WAL alone carries the state" acked (find_exn t2 "s");
  Registry.close t2

(* The snapshot's commit point fails: renaming snapshot.tmp over
   snapshot.bin raises EIO. The push that tripped compaction was durable
   in the WAL before compaction began, so it is acknowledged; the
   failure is counted and the WAL kept whole, the next compaction
   commits, and a reopen replays every acknowledged push. *)
let test_eio_on_snapshot_rename () =
  with_dir @@ fun dir ->
  let module Metrics = Fsdata_obs.Metrics in
  let failures = Metrics.counter "registry.snapshot_failures" in
  let enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled enabled) @@ fun () ->
  let before = Metrics.value failures in
  let full st =
    ( observe st,
      List.map
        (fun (v, seq, s) -> Printf.sprintf "%d@%d %s" v seq (Shape.to_string s))
        st.Registry.history )
  in
  let snapshot = Filename.concat dir "snapshot.bin" in
  let fault = Fault_fs.create () in
  let t = Registry.open_ ~fault ~snapshot_every:2 ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  Fault_fs.inject_rename fault [ Fault_fs.Error Unix.EIO ];
  let st = Registry.push t ~stream:"s" (sh "{a: int, b: string}") in
  check Alcotest.int "push acknowledged despite the failed rename" 2
    st.Registry.version;
  check Alcotest.int "the failure is counted" 1 (Metrics.value failures - before);
  check Alcotest.int "the WAL is not reset" 2 (Registry.wal_records t);
  check Alcotest.bool "no snapshot committed" false (Sys.file_exists snapshot);
  let st = Registry.push t ~stream:"s" (sh "{a: int, b: string, c: bool}") in
  check Alcotest.int "the next compaction resets the WAL" 0 (Registry.wal_records t);
  check Alcotest.bool "and commits the snapshot" true (Sys.file_exists snapshot);
  check Alcotest.int "no second failure" 1 (Metrics.value failures - before);
  check Alcotest.int "one fault fired" 1 (Fault_fs.injected fault);
  let acked = full st in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check
    Alcotest.(pair (triple int string int) (list string))
    "reopened: every acknowledged push, with its history" acked
    (full (find_exn t2 "s"));
  Registry.close t2

(* ----- the sweep: kill -9 at every injection point in turn ----- *)

(* One deterministic workload, killed at faultable operation k for
   every k until a run completes crash-free. After each kill the
   directory is reopened shim-free and the recovered stream must be
   byte-identical to a state the workload acknowledged (the in-flight
   push may additionally have landed: fully applied or absent). *)
let test_kill_sweep () =
  let deltas =
    [
      sh "{a: int}";
      sh "{a: int}";
      sh "{a: int, b: string}";
      sh "[{c: bool}]";
      sh "{a: float, d: [int]}";
    ]
  in
  let rec sweep k =
    if k > 200 then Alcotest.fail "sweep did not terminate"
    else
      let crashed =
        with_dir @@ fun dir ->
        let fault = Fault_fs.create () in
        Fault_fs.set_kill_after fault k;
        let t = Registry.open_ ~fault ~snapshot_every:2 ~dir:(Some dir) () in
        (* every acknowledged state, newest first; ⊥ is always legal *)
        let acked = ref [ (0, Shape.to_string Shape.Bottom, 0) ] in
        let in_flight = ref None in
        let outcome =
          try
            List.iter
              (fun d ->
                (* what full application of this push would look like *)
                let current = Registry.find t "s" in
                in_flight := Some (current, d);
                let st = Registry.push t ~stream:"s" d in
                acked := observe st :: !acked;
                in_flight := None)
              deltas;
            `Completed
          with Fault_fs.Crash -> `Crashed
        in
        Registry.close t;
        (match outcome with
        | `Completed -> ()
        | `Crashed ->
            let t2 = Registry.open_ ~dir:(Some dir) () in
            let recovered =
              match Registry.find t2 "s" with
              | Some st -> observe st
              | None -> (0, Shape.to_string Shape.Bottom, 0)
            in
            let last_ack = List.hd !acked in
            let applied =
              match !in_flight with
              | None -> []
              | Some (current, d) ->
                  (* replaying the torn-or-landed record over the last
                     ack is exactly what recovery may do *)
                  let base =
                    match current with
                    | Some st -> st
                    | None ->
                        {
                          Registry.name = "s";
                          version = 0;
                          seq = 0;
                          pushes = 0;
                          shape = Shape.Bottom;
                          history = [];
                          hooks = [];
                        }
                  in
                  let merged = Fsdata_core.Csh.csh base.Registry.shape d in
                  let grew = not (Shape.equal merged base.Registry.shape) in
                  [
                    ( (if grew then base.Registry.version + 1
                       else base.Registry.version),
                      Shape.to_string merged,
                      base.Registry.pushes + 1 );
                  ]
            in
            if not (List.mem recovered (last_ack :: applied)) then
              Alcotest.failf
                "kill at op %d: recovered (v%d, %s, %d pushes), last ack v%d"
                k
                (let v, _, _ = recovered in v)
                (let _, s, _ = recovered in s)
                (let _, _, p = recovered in p)
                (let v, _, _ = last_ack in v);
            Registry.close t2);
        outcome = `Crashed
      in
      if crashed then sweep (k + 1)
  in
  sweep 0

let suite =
  [
    tc "fault shim: deterministic queue order" `Quick test_shim_is_deterministic;
    tc "fault shim: short-write clamp" `Quick test_short_writes_clamp;
    tc "EIO on append: push fails clean" `Quick test_eio_append;
    tc "ENOSPC on append: push fails clean" `Quick test_enospc_append;
    tc "short write then ENOSPC: torn frame rolled back, acked retry survives"
      `Quick test_torn_append_rolled_back;
    tc "failed fsync: unacknowledged frame rolled back" `Quick
      test_failed_fsync_rolls_back_frame;
    tc "kill between write and fsync: applied or absent" `Quick
      test_kill_between_write_and_fsync;
    tc "kill mid-record: torn tail, last ack byte-identical" `Quick
      test_kill_mid_record_write;
    tc "torn tail is truncated, never parsed" `Quick test_torn_tail_never_parsed;
    tc "checksum failure marks the torn tail" `Quick
      test_checksum_failure_truncates;
    tc "kill writing snapshot.tmp: old state wins" `Quick
      test_kill_writing_snapshot_tmp;
    tc "kill between rename and WAL truncate: no double replay" `Quick
      test_kill_between_rename_and_truncate;
    tc "ENOSPC during compaction: push still acknowledged" `Quick
      test_enospc_during_snapshot_fails_softly;
    tc "EIO on the snapshot rename: push acknowledged, WAL kept" `Quick
      test_eio_on_snapshot_rename;
    tc "sweep: kill -9 at every injected point recovers to last ack" `Quick
      test_kill_sweep;
  ]

module Metrics = Fsdata_obs.Metrics

let m_appends = Metrics.counter "registry.wal.appends"
let m_bytes = Metrics.counter "registry.wal.bytes"
let m_fsyncs = Metrics.counter "registry.wal.fsyncs"
let m_recovered = Metrics.counter "registry.wal.recovered_records"
let m_truncated = Metrics.counter "registry.wal.truncated_bytes"

type fsync_policy = [ `Always | `Never ]

type t = {
  fd : Unix.file_descr;
  fault : Fault_fs.t option;
  fsync : fsync_policy;
  lock_key : string;
  mutable wedged : bool;
  mutable records : int;
  mutable size : int;
}

type recovery = { records : string list; truncated_bytes : int }

(* CRC-32/IEEE (reflected, polynomial 0xEDB88320), table-driven. OCaml's
   63-bit ints hold the 32-bit state directly. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xff) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

let header_bytes = 8

(* Little-endian u32 read as a non-negative int. *)
let get_u32 s off =
  Int32.to_int (String.get_int32_le s off) land 0xFFFFFFFF

(* Scan [text] and return (payloads of the valid prefix, offset of the
   first byte that is not part of a well-formed record). *)
let scan text =
  let len = String.length text in
  let rec go acc off =
    if off + header_bytes > len then (List.rev acc, off)
    else
      let n = get_u32 text off in
      let crc = get_u32 text (off + 4) in
      if off + header_bytes + n > len then (List.rev acc, off)
      else
        let payload = String.sub text (off + header_bytes) n in
        if crc32 payload <> crc then (List.rev acc, off)
        else go (payload :: acc) (off + header_bytes + n)
  in
  go [] 0

let scan_one text =
  match scan text with
  | [ payload ], good_end when good_end = String.length text -> Some payload
  | _ -> None

let read_whole fd =
  let size = (Unix.fstat fd).Unix.st_size in
  let buf = Bytes.create size in
  let pos = ref 0 in
  (try
     while !pos < size do
       match Unix.read fd buf !pos (size - !pos) with
       | 0 -> raise Exit
       | n -> pos := !pos + n
     done
   with Exit -> ());
  Bytes.sub_string buf 0 !pos

(* One writer per log, enforced twice over. Across processes: an
   exclusive lockf over the whole file, held for the fd's lifetime and
   released by the kernel if the process dies — so a second server
   pointed at the same --state-dir (operator error, an overlapping
   restart) fails fast instead of interleaving appends, while kill -9
   never blocks recovery. Within a process: POSIX record locks do not
   conflict between fds of the same process (and closing *any* fd for
   the file would drop them), so in-process exclusion is a global table
   claimed before the file is even opened. *)
let held : (string, unit) Hashtbl.t = Hashtbl.create 4
let held_mutex = Mutex.create ()

let canonical path =
  (* the log may not exist yet; resolve its directory instead *)
  match Unix.realpath (Filename.dirname path) with
  | d -> Filename.concat d (Filename.basename path)
  | exception Unix.Unix_error _ -> path

let claim key =
  Mutex.protect held_mutex (fun () ->
      if Hashtbl.mem held key then false
      else begin
        Hashtbl.add held key ();
        true
      end)

let release key = Mutex.protect held_mutex (fun () -> Hashtbl.remove held key)

let locked_failure path =
  Failure
    (Printf.sprintf
       "wal: %s is locked by another registry (is a second server running \
        on this state directory?)"
       path)

let open_ ?fault ~fsync path =
  let lock_key = canonical path in
  if not (claim lock_key) then raise (locked_failure path);
  let fd =
    match Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
    | fd -> fd
    | exception e ->
        release lock_key;
        raise e
  in
  (match Unix.lockf fd Unix.F_TLOCK 0 with
  | () -> ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      release lock_key;
      raise (locked_failure path)
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      release lock_key;
      raise e);
  let text = read_whole fd in
  let records, good_end = scan text in
  let truncated = String.length text - good_end in
  if truncated > 0 then begin
    (* the torn tail is repaired with plain Unix calls: recovery is not
       a fault-injection point, the crash already happened *)
    Unix.ftruncate fd good_end;
    Unix.fsync fd
  end;
  ignore (Unix.lseek fd good_end Unix.SEEK_SET);
  Metrics.add m_recovered (List.length records);
  Metrics.add m_truncated truncated;
  ( {
      fd;
      fault;
      fsync;
      lock_key;
      wedged = false;
      records = List.length records;
      size = good_end;
    },
    { records; truncated_bytes = truncated } )

let write_all t s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Fault_fs.write_substring t.fault t.fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let frame payload =
  let b = Buffer.create (String.length payload + header_bytes) in
  Buffer.add_int32_le b (Int32.of_int (String.length payload));
  Buffer.add_int32_le b (Int32.of_int (crc32 payload));
  Buffer.add_string b payload;
  Buffer.contents b

let sync_fd t =
  Fault_fs.fsync t.fault t.fd;
  Metrics.incr m_fsyncs

(* A failed append must not leave bytes past the acknowledged prefix:
   recovery keeps the longest valid prefix, so a torn frame sitting
   *between* acked records (a short write followed by ENOSPC, say)
   would make the next recovery silently discard every acked push
   appended after it. Repair uses plain Unix calls — rolling back after
   a failure is not itself a fault-injection point. A frame that was
   fully written but whose fsync failed is rolled back too: it was
   never acknowledged, and leaving it would let its seq collide with
   the acked retry that follows. If even the rollback fails, the log is
   wedged and refuses all further appends rather than corrupt. *)
let rollback_to_acked t =
  match Unix.ftruncate t.fd t.size with
  | () -> ignore (Unix.lseek t.fd t.size Unix.SEEK_SET)
  | exception Unix.Unix_error _ -> t.wedged <- true

let append t payload =
  if t.wedged then
    raise (Unix.Unix_error (Unix.EIO, "Wal.append", "wedged after failed rollback"));
  let framed = frame payload in
  (try
     write_all t framed;
     match t.fsync with `Always -> sync_fd t | `Never -> ()
   with Unix.Unix_error _ as e ->
     (* Fault_fs.Crash deliberately skips this: the process is "dead",
        and recovery's prefix scan is what truncates its torn tail *)
     rollback_to_acked t;
     raise e);
  (* bookkeeping only after the record is (as durable as the policy
     makes it) on disk: a raised append leaves the counters at the
     acknowledged state, like the registry's own view *)
  t.records <- t.records + 1;
  t.size <- t.size + String.length framed;
  Metrics.incr m_appends;
  Metrics.add m_bytes (String.length framed)

let records (t : t) = t.records
let sync t = sync_fd t

let reset t =
  Fault_fs.ftruncate t.fault t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  (match t.fsync with `Always -> sync_fd t | `Never -> ());
  t.records <- 0;
  t.size <- 0

let close t =
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  release t.lock_key

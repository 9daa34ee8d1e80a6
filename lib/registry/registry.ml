module Shape = Fsdata_core.Shape
module Csh = Fsdata_core.Csh
module Shape_parser = Fsdata_core.Shape_parser
module Metrics = Fsdata_obs.Metrics
module Trace = Fsdata_obs.Trace

(* --- instruments (docs/OBSERVABILITY.md, "registry.*") --- *)

let m_pushes = Metrics.counter "registry.pushes"
let m_bumps = Metrics.counter "registry.version_bumps"
let m_snapshots = Metrics.counter "registry.snapshots"
let m_snapshot_failures = Metrics.counter "registry.snapshot_failures"
let g_streams = Metrics.gauge "registry.streams"

type hook = { url : string; delivered : int }

type stream = {
  name : string;
  version : int;
  seq : int;
  pushes : int;
  shape : Shape.t;
  history : (int * int * Shape.t) list;
  hooks : hook list;
}

(* A stream's absorption state for its current shape σ, matched by
   physical identity (σ only changes when a push grows it): [Seen] after
   one push against σ, [Indexed] once a second push has built the field
   index. Building lazily keeps WAL replay, where nearly every record
   grows its stream, from paying for indexes it never queries. *)
type absorb = Seen of Shape.t | Indexed of Csh.index

type t = {
  dir : string option;
  fault : Fault_fs.t option;
  fsync : Wal.fsync_policy;
  snapshot_every : int;
  history_limit : int;
  lock : Mutex.t;
  streams : (string, stream) Hashtbl.t;
  absorb : (string, absorb) Hashtbl.t;
  mutable wal : Wal.t option;
  mutable listener : (stream -> unit) option;
}

(* Stream names are str16-framed in the codec; a longer name would
   encode a truncated length whose decode misparses — a poison pill
   that permanently blocks recovery — so pushes reject it up front. *)
let max_name_length = 0xFFFF

let fresh_stream name =
  {
    name;
    version = 0;
    seq = 0;
    pushes = 0;
    shape = Shape.Bottom;
    history = [];
    hooks = [];
  }

(* History is a bounded window: only the newest [limit] bumps are
   retained (oldest evicted first), so a long-lived frequently-growing
   stream cannot grow its snapshots — or the per-bump append cost —
   without bound. *)
let trim_history limit h =
  let excess = List.length h - limit in
  if excess <= 0 then h else List.filteri (fun i _ -> i >= excess) h

(* Whether [delta] leaves the stream's shape as it is, through the
   stream's field index when a push has met this shape before. *)
let absorbed t st delta =
  let sigma = st.shape in
  match Hashtbl.find_opt t.absorb st.name with
  | Some (Indexed idx) when Csh.indexed idx == sigma ->
      Csh.absorbs_indexed idx delta
  | Some (Seen s) when s == sigma ->
      let idx = Csh.index sigma in
      Hashtbl.replace t.absorb st.name (Indexed idx);
      Csh.absorbs_indexed idx delta
  | _ ->
      Hashtbl.replace t.absorb st.name (Seen sigma);
      false

(* The one fold both live pushes and WAL replay go through, so replay is
   the in-memory fold by construction (property-tested in
   test/test_registry.ml). csh is the LUB of Lemma 1, hence the merged
   shape always satisfies old ⊑ merged and "strictly grew" is just
   inequality; a delta the shape already absorbs skips the merge, and
   any push that does not grow the shape keeps it physically. Grown
   shapes are interned: streams live for the process and their
   sub-shapes repeat across versions. *)
let apply t st ~seq ~count delta =
  let merged =
    if absorbed t st delta then st.shape else Csh.csh st.shape delta
  in
  let grew = not (Shape.equal merged st.shape) in
  let merged = if grew then Shape.hcons merged else st.shape in
  let version = if grew then st.version + 1 else st.version in
  {
    st with
    seq;
    pushes = st.pushes + count;
    shape = merged;
    version;
    history =
      (if grew then
         trim_history t.history_limit (st.history @ [ (version, seq, merged) ])
       else st.history);
  }

(* --- the binary codec ---

   Strings are length-prefixed (u16 for names, u32 for shape text);
   integers are little-endian. Shapes travel as the paper notation,
   which round-trips exactly through Shape_parser (the pinned
   [parse (to_string s) = s] property). Checksums live one layer down,
   in the WAL framing — a payload that reaches the codec is bit-exact,
   so a decode failure here is corruption or version skew and raises
   [Failure] rather than guessing. *)

let add_str16 b s =
  if String.length s > max_name_length then
    invalid_arg "registry: string too long for u16 framing";
  Buffer.add_int16_le b (String.length s);
  Buffer.add_string b s

let add_str32 b s =
  Buffer.add_int32_le b (Int32.of_int (String.length s));
  Buffer.add_string b s

let add_int b n = Buffer.add_int64_le b (Int64.of_int n)

type cursor = { text : string; mutable off : int }

let fail_corrupt what = failwith (Printf.sprintf "registry: corrupt %s" what)

let take c n what =
  if c.off + n > String.length c.text then fail_corrupt what
  else begin
    let s = String.sub c.text c.off n in
    c.off <- c.off + n;
    s
  end

let get_u16 c what =
  if c.off + 2 > String.length c.text then fail_corrupt what
  else begin
    let n = Char.code c.text.[c.off] lor (Char.code c.text.[c.off + 1] lsl 8) in
    c.off <- c.off + 2;
    n
  end

let get_u32 c what =
  let s = take c 4 what in
  Int32.to_int (String.get_int32_le s 0) land 0xFFFFFFFF

let get_int c what =
  let s = take c 8 what in
  Int64.to_int (String.get_int64_le s 0)

let get_str16 c what = take c (get_u16 c what) what
let get_str32 c what = take c (get_u32 c what) what

let get_shape c what =
  match Shape_parser.parse_result (get_str32 c what) with
  | Ok s -> Shape.hcons s
  | Error m -> fail_corrupt (what ^ ": " ^ m)

(* Push record: tag, stream name, per-stream seq, document count, the
   delta shape. The delta — not the merged result — is logged, so the
   log is literally a replayable trace of the fold. *)
let record_tag = '\001'

let encode_record ~name ~seq ~count delta =
  let b = Buffer.create 64 in
  Buffer.add_char b record_tag;
  add_str16 b name;
  add_int b seq;
  add_int b count;
  add_str32 b (Shape.to_string delta);
  Buffer.contents b

let decode_record payload =
  let c = { text = payload; off = 0 } in
  if take c 1 "record tag" <> String.make 1 record_tag then
    fail_corrupt "record tag";
  let name = get_str16 c "record name" in
  let seq = get_int c "record seq" in
  let count = get_int c "record count" in
  let delta = get_shape c "record shape" in
  (name, seq, count, delta)

(* Hook records: webhook subscriptions ride in the same WAL as pushes,
   so they share its durability story. Unlike pushes they carry no seq —
   every hook mutation is idempotent on its own (set-add, set-remove,
   cursor-max), which makes replay across the compaction crash window
   safe without bookkeeping. The add record stores the delivery cursor
   at registration time: recomputing it at replay would silently skip
   any version pushed between registration and the crash. *)
let hook_add_tag = '\003'
let hook_remove_tag = '\004'
let hook_ack_tag = '\005'

let encode_hook_add ~name ~url ~delivered =
  let b = Buffer.create 64 in
  Buffer.add_char b hook_add_tag;
  add_str16 b name;
  add_str16 b url;
  add_int b delivered;
  Buffer.contents b

let encode_hook_remove ~name ~url =
  let b = Buffer.create 64 in
  Buffer.add_char b hook_remove_tag;
  add_str16 b name;
  add_str16 b url;
  Buffer.contents b

let encode_hook_ack ~name ~url ~version =
  let b = Buffer.create 64 in
  Buffer.add_char b hook_ack_tag;
  add_str16 b name;
  add_str16 b url;
  add_int b version;
  Buffer.contents b

let decode_hook_add payload =
  let c = { text = payload; off = 1 } in
  let name = get_str16 c "hook name" in
  let url = get_str16 c "hook url" in
  let delivered = get_int c "hook delivered" in
  (name, url, delivered)

let decode_hook_remove payload =
  let c = { text = payload; off = 1 } in
  let name = get_str16 c "hook name" in
  let url = get_str16 c "hook url" in
  (name, url)

let decode_hook_ack payload =
  let c = { text = payload; off = 1 } in
  let name = get_str16 c "hook name" in
  let url = get_str16 c "hook url" in
  let version = get_int c "hook ack version" in
  (name, url, version)

(* Snapshot: every stream in full, history included. The current shape
   is not stored separately — it is the last history entry (or ⊥). *)
let snapshot_tag = '\002'

let encode_snapshot streams =
  let b = Buffer.create 256 in
  Buffer.add_char b snapshot_tag;
  add_int b (List.length streams);
  List.iter
    (fun st ->
      add_str16 b st.name;
      add_int b st.seq;
      add_int b st.version;
      add_int b st.pushes;
      add_int b (List.length st.history);
      List.iter
        (fun (version, seq, shape) ->
          add_int b version;
          add_int b seq;
          add_str32 b (Shape.to_string shape))
        st.history;
      add_int b (List.length st.hooks);
      List.iter
        (fun h ->
          add_str16 b h.url;
          add_int b h.delivered)
        st.hooks)
    streams;
  Buffer.contents b

let decode_snapshot payload =
  let c = { text = payload; off = 0 } in
  if take c 1 "snapshot tag" <> String.make 1 snapshot_tag then
    fail_corrupt "snapshot tag";
  let n = get_int c "snapshot stream count" in
  List.init n (fun _ ->
      let name = get_str16 c "snapshot stream name" in
      let seq = get_int c "snapshot seq" in
      let version = get_int c "snapshot version" in
      let pushes = get_int c "snapshot pushes" in
      let entries = get_int c "snapshot history length" in
      let history =
        List.init entries (fun _ ->
            let version = get_int c "history version" in
            let seq = get_int c "history seq" in
            let shape = get_shape c "history shape" in
            (version, seq, shape))
      in
      let hook_count = get_int c "snapshot hook count" in
      let hooks =
        List.init hook_count (fun _ ->
            let url = get_str16 c "snapshot hook url" in
            let delivered = get_int c "snapshot hook delivered" in
            { url; delivered })
      in
      let shape =
        match List.rev history with (_, _, s) :: _ -> s | [] -> Shape.Bottom
      in
      { name; version; seq; pushes; shape; history; hooks })

(* --- persistence plumbing --- *)

let wal_path dir = Filename.concat dir "wal.log"
let snapshot_path dir = Filename.concat dir "snapshot.bin"
let snapshot_tmp_path dir = Filename.concat dir "snapshot.tmp"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Directory fsync, so the snapshot rename itself is durable. Best
   effort: not every filesystem supports fsync on a directory fd. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())

let set_streams_gauge t =
  Metrics.gauge_set g_streams (float_of_int (Hashtbl.length t.streams))

(* A snapshot is loaded whole before its frame is checked; the file is
   written via atomic rename, so it is either a complete old snapshot or
   a complete new one — a frame that does not verify is corruption. *)
let load_snapshot t path =
  let text = read_file path in
  match Wal.scan_one text with
  | Some payload ->
      List.iter
        (fun st ->
          (* a snapshot taken under a larger limit re-trims on load *)
          Hashtbl.replace t.streams st.name
            { st with history = trim_history t.history_limit st.history })
        (decode_snapshot payload)
  | None -> fail_corrupt "snapshot frame"

let stream_or_fresh t name =
  match Hashtbl.find_opt t.streams name with
  | Some st -> st
  | None -> fresh_stream name

let replay_record t payload =
  if payload = "" then fail_corrupt "empty record";
  match payload.[0] with
  | c when c = record_tag ->
      let name, seq, count, delta = decode_record payload in
      let st = stream_or_fresh t name in
      (* seq dedup makes replay idempotent across the compaction crash
         window where the WAL still holds records the snapshot covers *)
      if seq > st.seq then
        Hashtbl.replace t.streams name
          (apply t st ~seq ~count delta)
  | c when c = hook_add_tag ->
      (* idempotent set-add; the recorded cursor wins only on first
         sight, so a re-added hook keeps any later acked progress *)
      let name, url, delivered = decode_hook_add payload in
      let st = stream_or_fresh t name in
      if not (List.exists (fun h -> h.url = url) st.hooks) then
        Hashtbl.replace t.streams name
          { st with hooks = st.hooks @ [ { url; delivered } ] }
  | c when c = hook_remove_tag ->
      let name, url = decode_hook_remove payload in
      let st = stream_or_fresh t name in
      Hashtbl.replace t.streams name
        { st with hooks = List.filter (fun h -> h.url <> url) st.hooks }
  | c when c = hook_ack_tag ->
      (* cursor-max: replaying an already-covered ack changes nothing *)
      let name, url, version = decode_hook_ack payload in
      let st = stream_or_fresh t name in
      Hashtbl.replace t.streams name
        {
          st with
          hooks =
            List.map
              (fun h ->
                if h.url = url then { h with delivered = max h.delivered version }
                else h)
              st.hooks;
        }
  | _ -> fail_corrupt "record tag"

let open_ ?fault ?(fsync = `Always) ?(snapshot_every = 512)
    ?(history_limit = 256) ~dir () =
  let t =
    {
      dir;
      fault;
      fsync;
      snapshot_every = max 1 snapshot_every;
      history_limit = max 1 history_limit;
      lock = Mutex.create ();
      streams = Hashtbl.create 16;
      absorb = Hashtbl.create 16;
      wal = None;
      listener = None;
    }
  in
  (match dir with
  | None -> ()
  | Some d ->
      Trace.with_span "registry.recover" @@ fun () ->
      if not (Sys.file_exists d) then Unix.mkdir d 0o755;
      (* an interrupted compaction may have left a partial tmp; the
         committed snapshot is whatever snapshot.bin names *)
      (try Sys.remove (snapshot_tmp_path d) with Sys_error _ -> ());
      if Sys.file_exists (snapshot_path d) then
        load_snapshot t (snapshot_path d);
      let wal, recovery = Wal.open_ ?fault ~fsync (wal_path d) in
      t.wal <- Some wal;
      List.iter (replay_record t) recovery.Wal.records);
  set_streams_gauge t;
  t

let do_snapshot t =
  match (t.dir, t.wal) with
  | Some d, Some wal ->
      Trace.with_span "registry.snapshot" @@ fun () ->
      let payload =
        encode_snapshot
          (Hashtbl.fold (fun _ st acc -> st :: acc) t.streams []
          |> List.sort (fun a b -> compare a.name b.name))
      in
      let tmp = snapshot_tmp_path d in
      let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let framed = Wal.frame payload in
          let pos = ref 0 in
          while !pos < String.length framed do
            match
              Fault_fs.write_substring t.fault fd framed !pos
                (String.length framed - !pos)
            with
            | n -> pos := !pos + n
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done;
          Fault_fs.fsync t.fault fd);
      Fault_fs.rename t.fault tmp (snapshot_path d);
      fsync_dir d;
      (* from here on the snapshot is the truth; the WAL records are
         redundant (and harmless: replay skips their seqs) *)
      Wal.reset wal;
      Metrics.incr m_snapshots
  | _ -> ()

(* Compaction is an optimization, not part of the push contract: an
   I/O failure inside it leaves a recoverable state (the seq dedup
   covers every window), so it must not fail the push that triggered
   it. A Crash is not caught — it is the simulated death of the
   process. *)
let maybe_snapshot t =
  match t.wal with
  | Some wal when Wal.records wal >= t.snapshot_every -> (
      try do_snapshot t
      with Unix.Unix_error _ -> Metrics.incr m_snapshot_failures)
  | _ -> ()

let push t ~stream:name ?(count = 1) delta =
  if String.length name > max_name_length then
    invalid_arg
      (Printf.sprintf "Registry.push: stream name is %d bytes (max %d)"
         (String.length name) max_name_length);
  Trace.with_span "registry.push" @@ fun () ->
  let st', bumped =
    Mutex.protect t.lock @@ fun () ->
    let st =
      match Hashtbl.find_opt t.streams name with
      | Some st -> st
      | None -> fresh_stream name
    in
    let seq = st.seq + 1 in
    (* WAL first, memory second: a raised append leaves the in-memory
       state at the last acknowledged push *)
    (match t.wal with
    | Some wal -> Wal.append wal (encode_record ~name ~seq ~count delta)
    | None -> ());
    let st' = apply t st ~seq ~count delta in
    Hashtbl.replace t.streams name st';
    set_streams_gauge t;
    Metrics.incr m_pushes;
    if st'.version > st.version then Metrics.incr m_bumps;
    maybe_snapshot t;
    (st', st'.version > st.version)
  in
  (* the bump listener runs outside the lock: it may call back into the
     registry (find, ack_delivery) without deadlocking *)
  (if bumped then match t.listener with Some f -> f st' | None -> ());
  st'

let set_listener t f = t.listener <- Some f

(* --- webhook subscriptions --- *)

let check_hook_args ~name ~url =
  if String.length name > max_name_length then
    invalid_arg "Registry hook: stream name too long for u16 framing";
  if String.length url > max_name_length then
    invalid_arg "Registry hook: url too long for u16 framing"

let add_hook t ~stream:name ~url =
  check_hook_args ~name ~url;
  Mutex.protect t.lock @@ fun () ->
  let st = stream_or_fresh t name in
  match List.find_opt (fun h -> h.url = url) st.hooks with
  | Some _ -> st (* idempotent: re-registration keeps the cursor *)
  | None ->
      (* the cursor starts at the current version: a hook hears about
         bumps from registration onward, never the back catalogue *)
      let delivered = st.version in
      (match t.wal with
      | Some wal -> Wal.append wal (encode_hook_add ~name ~url ~delivered)
      | None -> ());
      let st' = { st with hooks = st.hooks @ [ { url; delivered } ] } in
      Hashtbl.replace t.streams name st';
      set_streams_gauge t;
      maybe_snapshot t;
      st'

let remove_hook t ~stream:name ~url =
  check_hook_args ~name ~url;
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.streams name with
  | None -> None
  | Some st ->
      if List.exists (fun h -> h.url = url) st.hooks then begin
        (match t.wal with
        | Some wal -> Wal.append wal (encode_hook_remove ~name ~url)
        | None -> ());
        let st' =
          { st with hooks = List.filter (fun h -> h.url <> url) st.hooks }
        in
        Hashtbl.replace t.streams name st';
        maybe_snapshot t;
        Some st'
      end
      else Some st

let ack_delivery t ~stream:name ~url ~version =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.streams name with
  | None -> ()
  | Some st -> (
      match List.find_opt (fun h -> h.url = url) st.hooks with
      | None -> ()
      | Some h when version <= h.delivered -> ()
      | Some _ ->
          (* WAL first, memory second, like a push: an unacked delivery
             cursor is redelivered after a crash — at-least-once *)
          (match t.wal with
          | Some wal -> Wal.append wal (encode_hook_ack ~name ~url ~version)
          | None -> ());
          Hashtbl.replace t.streams name
            {
              st with
              hooks =
                List.map
                  (fun h ->
                    if h.url = url then
                      { h with delivered = max h.delivered version }
                    else h)
                  st.hooks;
            };
          maybe_snapshot t)

let find t name = Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.streams name)

let list t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold (fun _ st acc -> st :: acc) t.streams []
      |> List.sort (fun a b -> compare a.name b.name))

let version_shape st v =
  if v = 0 then Some Shape.Bottom
  else
    List.find_opt (fun (version, _, _) -> version = v) st.history
    |> Option.map (fun (_, _, shape) -> shape)

let oldest_retained st =
  match st.history with (v, _, _) :: _ -> v | [] -> st.version

let version_status st v =
  if v < 0 || v > st.version then `Unknown
  else match version_shape st v with Some s -> `Shape s | None -> `Evicted

let snapshot t = Mutex.protect t.lock (fun () -> do_snapshot t)

let wal_records t =
  Mutex.protect t.lock (fun () ->
      match t.wal with Some wal -> Wal.records wal | None -> 0)

let close t =
  Mutex.protect t.lock (fun () ->
      match t.wal with
      | Some wal ->
          Wal.close wal;
          t.wal <- None
      | None -> ())

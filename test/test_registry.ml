(* Tests for the durable live shape registry (lib/registry): version
   semantics of the incremental fold, the WAL framing, the durable
   round-trip, and the QCheck pin that WAL replay is exactly the
   in-memory csh fold. The storage-chaos side lives in
   test_chaos_fs.ml. *)

module Registry = Fsdata_registry.Registry
module Wal = Fsdata_registry.Wal
module Shape = Fsdata_core.Shape
module Csh = Fsdata_core.Csh
module Infer = Fsdata_core.Infer
module Shape_parser = Fsdata_core.Shape_parser
module Preference = Fsdata_core.Preference
module Gen = QCheck2.Gen

let check = Alcotest.check
let tc = Alcotest.test_case
let sh = Shape_parser.parse

(* A fresh directory path the registry will create on open. *)
let temp_dir () =
  let path = Filename.temp_file "fsdata-registry" "" in
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

(* ----- the incremental fold and version semantics ----- *)

let test_fresh_stream () =
  let t = Registry.open_ ~dir:None () in
  let st = Registry.push t ~stream:"s" (sh "{a: int}") in
  check Alcotest.int "first push bumps to version 1" 1 st.Registry.version;
  check Alcotest.int "one document" 1 st.Registry.pushes;
  check Generators.shape_testable "shape is the delta" (sh "{a: int}")
    st.Registry.shape;
  check Alcotest.int "one history entry" 1 (List.length st.Registry.history)

let test_idempotent_push_keeps_version () =
  let t = Registry.open_ ~dir:None () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  let st = Registry.push t ~stream:"s" (sh "{a: int}") in
  check Alcotest.int "no growth, no bump" 1 st.Registry.version;
  check Alcotest.int "but the push is tallied" 2 st.Registry.pushes;
  check Alcotest.int "history unchanged" 1 (List.length st.Registry.history)

let test_strict_growth_bumps () =
  let t = Registry.open_ ~dir:None () in
  let st1 = Registry.push t ~stream:"s" (sh "{a: int}") in
  let st2 = Registry.push t ~stream:"s" (sh "{a: int, b: string}") in
  check Alcotest.int "growth bumps" 2 st2.Registry.version;
  check Alcotest.bool "old preferred over merged (old ⊑ new)" true
    (Preference.is_preferred st1.Registry.shape st2.Registry.shape);
  (* a shape already below the accumulator cannot bump *)
  let st3 = Registry.push t ~stream:"s" (sh "{a: int}") in
  check Alcotest.int "subsumed push keeps version" 2 st3.Registry.version

let test_version_shape () =
  let t = Registry.open_ ~dir:None () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  let st = Registry.push t ~stream:"s" (sh "{a: int, b: string}") in
  check (Alcotest.option Generators.shape_testable) "version 0 is bottom"
    (Some Shape.Bottom)
    (Registry.version_shape st 0);
  check (Alcotest.option Generators.shape_testable) "version 1 recorded"
    (Some (sh "{a: int}"))
    (Registry.version_shape st 1);
  check (Alcotest.option Generators.shape_testable) "version 2 is current"
    (Some st.Registry.shape)
    (Registry.version_shape st 2);
  check (Alcotest.option Generators.shape_testable) "unknown version" None
    (Registry.version_shape st 3)

let test_count_tallies_documents () =
  let t = Registry.open_ ~dir:None () in
  let st = Registry.push t ~stream:"s" ~count:5 (sh "{a: int}") in
  check Alcotest.int "batch counts its documents" 5 st.Registry.pushes

let test_streams_are_independent () =
  let t = Registry.open_ ~dir:None () in
  let _ = Registry.push t ~stream:"a" (sh "{a: int}") in
  let _ = Registry.push t ~stream:"b" (sh "{b: string}") in
  check Alcotest.int "two streams" 2 (List.length (Registry.list t));
  check Alcotest.int "a at version 1" 1 (find_exn t "a").Registry.version;
  check Generators.shape_testable "b untouched by a" (sh "{b: string}")
    (find_exn t "b").Registry.shape

(* ----- WAL framing ----- *)

let test_crc32_check_value () =
  (* the standard CRC-32/IEEE check value *)
  check Alcotest.int "crc32(123456789)" 0xCBF43926 (Wal.crc32 "123456789")

let test_wal_roundtrip () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.log" in
  let w, r = Wal.open_ ~fsync:`Never path in
  check (Alcotest.list Alcotest.string) "fresh log" [] r.Wal.records;
  Wal.append w "one";
  Wal.append w "two";
  check Alcotest.int "two records" 2 (Wal.records w);
  Wal.close w;
  let w, r = Wal.open_ ~fsync:`Never path in
  check (Alcotest.list Alcotest.string) "recovered in order" [ "one"; "two" ]
    r.Wal.records;
  check Alcotest.int "no torn tail" 0 r.Wal.truncated_bytes;
  Wal.close w

let test_wal_truncates_torn_tail () =
  with_dir @@ fun dir ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "wal.log" in
  let w, _ = Wal.open_ ~fsync:`Never path in
  Wal.append w "solid";
  Wal.close w;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x40\x00\x00\x00torn";
  close_out oc;
  let w, r = Wal.open_ ~fsync:`Never path in
  check (Alcotest.list Alcotest.string) "valid prefix kept" [ "solid" ]
    r.Wal.records;
  check Alcotest.int "tail truncated" 8 r.Wal.truncated_bytes;
  check Alcotest.int "file repaired on disk" (8 + String.length "solid")
    (Unix.stat path).Unix.st_size;
  Wal.close w

(* ----- durability ----- *)

let streams_equal a b =
  check Alcotest.int "version" a.Registry.version b.Registry.version;
  check Alcotest.int "seq" a.Registry.seq b.Registry.seq;
  check Alcotest.int "pushes" a.Registry.pushes b.Registry.pushes;
  (* byte-identical, not just equal up to csh laws *)
  check Alcotest.string "shape text"
    (Shape.to_string a.Registry.shape)
    (Shape.to_string b.Registry.shape);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "history versions"
    (List.map (fun (v, s, _) -> (v, s)) a.Registry.history)
    (List.map (fun (v, s, _) -> (v, s)) b.Registry.history);
  List.iter2
    (fun (_, _, x) (_, _, y) ->
      check Alcotest.string "history shape" (Shape.to_string x)
        (Shape.to_string y))
    a.Registry.history b.Registry.history

let test_durable_roundtrip () =
  with_dir @@ fun dir ->
  let t = Registry.open_ ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  let _ = Registry.push t ~stream:"s" (sh "{a: int, b: [string]}") in
  let _ = Registry.push t ~stream:"other" ~count:3 (sh "[int]") in
  let before = Registry.list t in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  let after = Registry.list t2 in
  check Alcotest.int "stream count" (List.length before) (List.length after);
  List.iter2 streams_equal before after;
  Registry.close t2

let test_snapshot_compaction () =
  with_dir @@ fun dir ->
  let t = Registry.open_ ~snapshot_every:2 ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  let _ = Registry.push t ~stream:"s" (sh "{a: int, b: string}") in
  (* the second push hit the threshold: records moved into the snapshot *)
  check Alcotest.int "wal compacted" 0 (Registry.wal_records t);
  check Alcotest.bool "snapshot exists" true
    (Sys.file_exists (Filename.concat dir "snapshot.bin"));
  let _ = Registry.push t ~stream:"s" (sh "{c: bool}") in
  let before = Registry.list t in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  List.iter2 streams_equal before (Registry.list t2);
  Registry.close t2

let test_explicit_snapshot_then_reopen () =
  with_dir @@ fun dir ->
  let t = Registry.open_ ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  Registry.snapshot t;
  check Alcotest.int "wal reset" 0 (Registry.wal_records t);
  let before = Registry.list t in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  List.iter2 streams_equal before (Registry.list t2);
  Registry.close t2

(* ----- guard rails: locking, name framing, bounded history ----- *)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_second_open_refused () =
  with_dir @@ fun dir ->
  let t = Registry.open_ ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  (try
     ignore (Registry.open_ ~dir:(Some dir) ());
     Alcotest.fail "second open of a live state dir should be refused"
   with Failure msg ->
     check Alcotest.bool "the error names the lock" true
       (contains ~sub:"locked" msg));
  (* the holder is unharmed, and closing releases the lock *)
  let _ = Registry.push t ~stream:"s" (sh "{a: int, b: string}") in
  Registry.close t;
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check Alcotest.int "reopen after close succeeds" 2
    (find_exn t2 "s").Registry.version;
  Registry.close t2

let test_overlong_name_rejected () =
  with_dir @@ fun dir ->
  let t = Registry.open_ ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"s" (sh "{a: int}") in
  (try
     ignore (Registry.push t ~stream:(String.make 70_000 'n') (sh "{a: int}"));
     Alcotest.fail "a name too long for u16 framing should be rejected"
   with Invalid_argument _ -> ());
  check Alcotest.int "nothing was appended for it" 1 (Registry.wal_records t);
  Registry.close t;
  (* the log holds no truncated-length poison pill: recovery works *)
  let t2 = Registry.open_ ~dir:(Some dir) () in
  check Alcotest.int "one stream recovered" 1 (List.length (Registry.list t2));
  Registry.close t2

let test_history_is_bounded () =
  with_dir @@ fun dir ->
  let t = Registry.open_ ~history_limit:3 ~dir:(Some dir) () in
  List.iter
    (fun f ->
      ignore (Registry.push t ~stream:"s" (sh (Printf.sprintf "{%s: int}" f))))
    [ "a"; "b"; "c"; "d"; "e" ];
  let st = find_exn t "s" in
  check Alcotest.int "every growth bumped" 5 st.Registry.version;
  check
    (Alcotest.list Alcotest.int)
    "only the newest bumps retained, oldest first" [ 3; 4; 5 ]
    (List.map (fun (v, _, _) -> v) st.Registry.history);
  check (Alcotest.option Generators.shape_testable) "evicted version is gone"
    None
    (Registry.version_shape st 1);
  check (Alcotest.option Generators.shape_testable) "current still recorded"
    (Some st.Registry.shape)
    (Registry.version_shape st 5);
  Registry.snapshot t;
  Registry.close t;
  let t2 = Registry.open_ ~history_limit:3 ~dir:(Some dir) () in
  let st2 = find_exn t2 "s" in
  check Alcotest.int "version survives the bound" 5 st2.Registry.version;
  check Alcotest.int "bounded after snapshot + reopen" 3
    (List.length st2.Registry.history);
  Registry.close t2;
  (* a snapshot taken under a larger limit re-trims on load *)
  let t3 = Registry.open_ ~history_limit:2 ~dir:(Some dir) () in
  check Alcotest.int "tighter limit trims loaded state" 2
    (List.length (find_exn t3 "s").Registry.history);
  Registry.close t3

(* ----- replay ≡ the in-memory fold (QCheck) ----- *)

(* The reference: fold the same deltas through csh in memory, tracking
   versions the way the registry specifies them — bump iff the merge
   changed the shape. *)
let reference deltas =
  List.fold_left
    (fun (shape, version) delta ->
      let merged = Csh.csh shape delta in
      if Shape.equal merged shape then (shape, version)
      else (merged, version + 1))
    (Shape.Bottom, 0) deltas

let gen_deltas = Gen.list_size (Gen.int_range 1 8) Generators.gen_core_shape

let replay_equals_fold =
  QCheck2.Test.make ~count:1000 ~name:"WAL replay = in-memory csh fold"
    ~print:(fun ds -> String.concat " ; " (List.map Shape.to_string ds))
    gen_deltas
    (fun deltas ->
      with_dir @@ fun dir ->
      let t = Registry.open_ ~fsync:`Never ~dir:(Some dir) () in
      let live =
        List.fold_left
          (fun _ d -> Registry.push t ~stream:"s" d)
          (Registry.push t ~stream:"s" (List.hd deltas))
          (List.tl deltas)
      in
      Registry.close t;
      let t2 = Registry.open_ ~fsync:`Never ~dir:(Some dir) () in
      let recovered =
        match Registry.find t2 "s" with
        | Some st -> st
        | None -> QCheck2.Test.fail_report "stream lost on recovery"
      in
      Registry.close t2;
      let expected_shape, expected_version = reference deltas in
      if not (Shape.equal live.Registry.shape recovered.Registry.shape) then
        QCheck2.Test.fail_report "recovered shape differs from live";
      if
        Shape.to_string live.Registry.shape
        <> Shape.to_string recovered.Registry.shape
      then QCheck2.Test.fail_report "recovered shape not byte-identical";
      if not (Shape.equal expected_shape recovered.Registry.shape) then
        QCheck2.Test.fail_report "recovered shape differs from reference fold";
      if expected_version <> recovered.Registry.version then
        QCheck2.Test.fail_report "recovered version differs from reference";
      if live.Registry.pushes <> recovered.Registry.pushes then
        QCheck2.Test.fail_report "push tally not recovered";
      true)

(* A corpus pushed in random batches, each as the shape of its
   documents, then closed and reopened, renders the bytes of one fold
   over the whole corpus: csh keeps its left operand's field order, so
   joining a batch's fold into the stream's is the fold of the two
   runs. [sizes] cut the corpus (each taken modulo what is left, plus
   one); the last batch takes the rest. *)
let batchings_render_one_fold =
  QCheck2.Test.make ~count:500
    ~name:"pushes in any batching, reopened, render one fold"
    ~print:(fun (ds, sizes) ->
      String.concat " | " (List.map Generators.print_data ds)
      ^ " / sizes " ^ String.concat "," (List.map string_of_int sizes))
    Gen.(
      pair
        (list_size (int_range 1 12) Generators.gen_data)
        (list_size (int_range 0 12) (int_bound 12)))
    (fun (ds, sizes) ->
      let rec batches ds sizes =
        match (ds, sizes) with
        | [], _ -> []
        | _, [] -> [ ds ]
        | _, n :: sizes ->
            let n = 1 + (n mod List.length ds) in
            List.filteri (fun i _ -> i < n) ds
            :: batches (List.filteri (fun i _ -> i >= n) ds) sizes
      in
      with_dir @@ fun dir ->
      let t = Registry.open_ ~fsync:`Never ~dir:(Some dir) () in
      List.iter
        (fun b ->
          ignore
            (Registry.push t ~stream:"s" ~count:(List.length b)
               (Infer.shape_of_samples b)))
        (batches ds sizes);
      Registry.close t;
      let t2 = Registry.open_ ~fsync:`Never ~dir:(Some dir) () in
      let recovered = find_exn t2 "s" in
      Registry.close t2;
      let want = Shape.to_string (Infer.shape_of_samples ds) in
      let got = Shape.to_string recovered.Registry.shape in
      String.equal want got
      || QCheck2.Test.fail_reportf "want %s\ngot  %s" want got)

let growth_is_monotone =
  QCheck2.Test.make ~count:300 ~name:"version bumps only on strict ⊑ growth"
    ~print:(fun ds -> String.concat " ; " (List.map Shape.to_string ds))
    gen_deltas
    (fun deltas ->
      let t = Registry.open_ ~dir:None () in
      List.iter
        (fun delta ->
          let before =
            match Registry.find t "s" with
            | Some st -> (st.Registry.version, st.Registry.shape)
            | None -> (0, Shape.Bottom)
          in
          let st = Registry.push t ~stream:"s" delta in
          let bumped = st.Registry.version > fst before in
          let grew = not (Shape.equal st.Registry.shape (snd before)) in
          if bumped <> grew then
            QCheck2.Test.fail_report "bump without growth (or vice versa)";
          if not (Preference.is_preferred (snd before) st.Registry.shape) then
            QCheck2.Test.fail_report "accumulator not monotone under ⊑")
        deltas;
      true)

(* ----- the absorption fast path against the reference fold ----- *)

(* The push record as docs/REGISTRY.md lays it out (tag 1, u16 stream
   name, i64 seq, i64 document count, u32-prefixed shape in paper
   notation), framed as Wal.frame frames it. A push's WAL bytes depend
   on its delta alone, never on whether the stream absorbed it. *)
let push_record ~name ~seq delta =
  let b = Buffer.create 64 in
  Buffer.add_char b '\001';
  Buffer.add_int16_le b (String.length name);
  Buffer.add_string b name;
  Buffer.add_int64_le b (Int64.of_int seq);
  Buffer.add_int64_le b 1L;
  let text = Shape.to_string delta in
  Buffer.add_int32_le b (Int32.of_int (String.length text));
  Buffer.add_string b text;
  Wal.frame (Buffer.contents b)

(* the reference fold, with its history as the registry records it *)
let reference_states deltas =
  let _, states =
    List.fold_left
      (fun ((shape, version, history), acc) (seq, delta) ->
        let merged = Csh.csh shape delta in
        let state =
          if Shape.equal merged shape then (shape, version, history)
          else (merged, version + 1, history @ [ (version + 1, seq, merged) ])
        in
        (state, state :: acc))
      ((Shape.Bottom, 0, []), [])
      (List.mapi (fun i d -> (i + 1, d)) deltas)
  in
  List.rev states

let render_state (shape, version, history) =
  String.concat "\n"
    (Printf.sprintf "v%d %s" version (Shape.to_string shape)
    :: List.map
         (fun (v, seq, s) -> Printf.sprintf "  %d@%d %s" v seq (Shape.to_string s))
         history)

let stream_state (st : Registry.stream) =
  (st.Registry.shape, st.Registry.version, st.Registry.history)

(* σ first, then batches derived from it — mostly absorbed, some one
   edit away from it — so growing and absorbed pushes interleave, and
   runs of absorbed ones build and use the field index *)
let gen_absorb_pushes =
  let open Gen in
  let* sigma, first = Generators.gen_absorb_pair in
  let r = match sigma with Shape.Record r -> r | _ -> assert false in
  let* rest =
    list_size (int_range 1 10)
      (let* delta = Generators.gen_sub_record r in
       let d = match delta with Shape.Record d -> d | _ -> assert false in
       frequency [ (3, return delta); (1, Generators.gen_near_miss r d) ])
  in
  let* split = int_bound (List.length rest + 1) in
  return (sigma :: first :: rest, split + 1)

(* The first push against a shape merges; from the second on the field
   index answers, so an absorbed batch merges nothing and leaves the
   shape physically in place. *)
let test_absorbed_push_skips_merge () =
  let module M = Fsdata_obs.Metrics in
  let merges = M.counter "csh.merges" in
  let enabled = M.enabled () in
  M.set_enabled true;
  Fun.protect ~finally:(fun () -> M.set_enabled enabled) @@ fun () ->
  let t = Registry.open_ ~dir:None () in
  let sigma = (Registry.push t ~stream:"s" (sh "{a: int, b: nullable string, c: bool}")).Registry.shape in
  let batch = sh "{a: bit0, c: bool}" in
  let merging d =
    let before = M.value merges in
    let st = Registry.push t ~stream:"s" d in
    (st, M.value merges - before)
  in
  let st, _ = merging batch in
  check Alcotest.bool "first absorbed push keeps the shape" true
    (st.Registry.shape == sigma);
  let st, n = merging batch in
  check Alcotest.int "indexed absorbed push merges nothing" 0 n;
  check Alcotest.bool "and keeps the shape physically" true
    (st.Registry.shape == sigma);
  check Alcotest.int "no bump" 1 st.Registry.version;
  check Alcotest.int "tallied" 3 st.Registry.pushes;
  let st, n = merging (sh "{a: int, d: int}") in
  check Alcotest.bool "a growing push merges" true (n > 0);
  check Alcotest.int "and bumps" 2 st.Registry.version

let absorbed_pushes_match_fold =
  QCheck2.Test.make ~count:300
    ~name:"absorbed and growing pushes: bytes, versions, history and WAL = csh fold"
    ~print:(fun (ds, split) ->
      Printf.sprintf "split after %d: %s" split
        (String.concat " ; " (List.map Shape.to_string ds)))
    gen_absorb_pushes
    (fun (deltas, split) ->
      with_dir @@ fun dir ->
      let expected = reference_states deltas in
      let open_ () =
        Registry.open_ ~fsync:`Never ~snapshot_every:max_int ~dir:(Some dir) ()
      in
      let same what i st =
        let want = render_state (List.nth expected i)
        and got = render_state (stream_state st) in
        if want <> got then
          QCheck2.Test.fail_reportf "%s, push %d:\nwant %s\ngot  %s" what (i + 1)
            want got
      in
      (* live pushes, with a close/reopen after the first [split] *)
      let t = ref (open_ ()) in
      List.iteri
        (fun i d ->
          if i = split then begin
            Registry.close !t;
            t := open_ ();
            same "reopened" (i - 1) (find_exn !t "s")
          end;
          same "live" i (Registry.push !t ~stream:"s" d))
        deltas;
      Registry.close !t;
      let wal = In_channel.with_open_bin (Filename.concat dir "wal.log") In_channel.input_all in
      let want_wal =
        String.concat ""
          (List.mapi (fun i d -> push_record ~name:"s" ~seq:(i + 1) d) deltas)
      in
      if wal <> want_wal then QCheck2.Test.fail_report "WAL bytes differ";
      let t = open_ () in
      same "recovered" (List.length deltas - 1) (find_exn t "s");
      Registry.close t;
      true)

(* ----- the bytes on disk ----- *)

(* A wide record whose nested boxes open past column 68, so its paper
   notation spans many lines. *)
let wide_nested_shape extra =
  let open Shape in
  let inner i =
    record "a_nested_record_with_a_rather_long_name"
      [
        ("deeply_nested_field_" ^ string_of_int i, collection (Primitive Int));
        ( "mixed",
          hetero
            [ (Primitive String, Fsdata_core.Multiplicity.Single);
              (record "item" [ ("v", Nullable (Primitive Float)) ],
               Fsdata_core.Multiplicity.Multiple) ] );
        ("labels", top [ Primitive Bool; Primitive Date ]);
      ]
  in
  record "row"
    (List.init 120 (fun i ->
         ( Printf.sprintf "field_%03d" i,
           if i mod 5 = 0 then inner i else Primitive Int ))
    @ extra)

(* The registry's codec spelled out, with shapes printed by Format (the
   oracle of [Shape.to_string]): the WAL and snapshot keep their bytes. *)
let str16 b s =
  Buffer.add_int16_le b (String.length s);
  Buffer.add_string b s

let shape32 b s =
  let text = Fmt.str "%a" Shape.pp s in
  Buffer.add_int32_le b (Int32.of_int (String.length text));
  Buffer.add_string b text

let int64 b n = Buffer.add_int64_le b (Int64.of_int n)

let test_wal_and_snapshot_bytes () =
  with_dir @@ fun dir ->
  let d1 = wide_nested_shape [] in
  let d2 = wide_nested_shape [ ("added_late", Shape.Primitive Shape.String) ] in
  check Alcotest.bool "the shape spans many lines" true
    (List.length (String.split_on_char '\n' (Shape.to_string d1)) > 20);
  let t = Registry.open_ ~dir:(Some dir) () in
  let _ = Registry.push t ~stream:"wide" d1 in
  let _ = Registry.push t ~stream:"wide" ~count:2 d2 in
  Registry.close t;
  let record seq count delta =
    let b = Buffer.create 256 in
    Buffer.add_char b '\001';
    str16 b "wide";
    int64 b seq;
    int64 b count;
    shape32 b delta;
    Buffer.contents b
  in
  let w, r = Wal.open_ ~fsync:`Never (Filename.concat dir "wal.log") in
  Wal.close w;
  check (Alcotest.list Alcotest.string) "push records"
    [ record 1 1 d1; record 2 2 d2 ] r.Wal.records;
  let t = Registry.open_ ~dir:(Some dir) () in
  Registry.snapshot t;
  let st = find_exn t "wide" in
  Registry.close t;
  check Alcotest.int "two versions" 2 (List.length st.Registry.history);
  let b = Buffer.create 256 in
  Buffer.add_char b '\002';
  int64 b 1;
  str16 b "wide";
  int64 b st.Registry.seq;
  int64 b st.Registry.version;
  int64 b st.Registry.pushes;
  int64 b (List.length st.Registry.history);
  List.iter
    (fun (version, seq, shape) ->
      int64 b version;
      int64 b seq;
      shape32 b shape)
    st.Registry.history;
  int64 b 0;
  let text = In_channel.with_open_bin (Filename.concat dir "snapshot.bin") In_channel.input_all in
  check (Alcotest.option Alcotest.string) "snapshot payload"
    (Some (Buffer.contents b)) (Wal.scan_one text)

let suite =
  [
    tc "fresh stream: first push is version 1" `Quick test_fresh_stream;
    tc "idempotent push keeps the version" `Quick
      test_idempotent_push_keeps_version;
    tc "strict growth bumps the version" `Quick test_strict_growth_bumps;
    tc "version_shape walks the history" `Quick test_version_shape;
    tc "count tallies batch documents" `Quick test_count_tallies_documents;
    tc "streams are independent" `Quick test_streams_are_independent;
    tc "crc32 matches the IEEE check value" `Quick test_crc32_check_value;
    tc "wal: append and recover in order" `Quick test_wal_roundtrip;
    tc "wal: torn tail truncated on open" `Quick test_wal_truncates_torn_tail;
    tc "durable round-trip is byte-identical" `Quick test_durable_roundtrip;
    tc "snapshot compaction preserves state" `Quick test_snapshot_compaction;
    tc "explicit snapshot then reopen" `Quick test_explicit_snapshot_then_reopen;
    tc "second open of a live state dir is refused" `Quick
      test_second_open_refused;
    tc "oversized stream name rejected, log not poisoned" `Quick
      test_overlong_name_rejected;
    tc "stream history is a bounded window" `Quick test_history_is_bounded;
    QCheck_alcotest.to_alcotest replay_equals_fold;
    QCheck_alcotest.to_alcotest growth_is_monotone;
    QCheck_alcotest.to_alcotest batchings_render_one_fold;
    tc "an absorbed push skips the merge" `Quick test_absorbed_push_skips_merge;
    QCheck_alcotest.to_alcotest absorbed_pushes_match_fold;
    tc "wal and snapshot bytes are the paper notation" `Quick
      test_wal_and_snapshot_bytes;
  ]

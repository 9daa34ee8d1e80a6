(* stream_write: the serve and cache layers used for writes, open loop at
   a fixed rate, against `fsdata serve --state-dir` on a state directory
   this commit's own Registry API pre-builds from the seed: 8 streams
   grown to ~1000 fields.

   The mix is 70% pushes (most do not grow the shape, ~5% add a field),
   20% shape reads of the stream just pushed to (so they miss the cache
   the push invalidated; paper and schema formats alternate) and 10%
   /migrate. Each stream's requests travel on one connection, so the
   server applies them in schedule order and the in-process reference
   replay can reproduce every answer. *)

module Registry = Fsdata_registry.Registry

(* a push to a ~1000-field stream costs ~10 ms of server CPU on a 2-vCPU
   virtual machine; at this rate the generator's backlog stays empty even
   while that machine is contended (see README) *)
let rate = 30.
let streams = 8
let prebuild_pushes = 50
let prebuild_fields = 20 (* new fields per pre-build push: 1000 per stream *)
let setup_repeats = 3
let warm_segments = 1

(* Compaction writes and fsyncs a snapshot whatever the --fsync policy,
   which would measure the disk; the pre-built WAL stays below this. *)
let snapshot_every = 1_000_000

let stream_name s = Printf.sprintf "w%d" s
let field_name i = Printf.sprintf "f%04d" i

(* a field's index fixes its type, so pushes never widen a field *)
let field_value r i =
  match i mod 3 with
  | 0 -> Gen.int_v (Gen.int r 100000)
  | 1 -> Gen.str (Printf.sprintf "s%d" (Gen.int r 1000))
  | _ -> Gen.bool_v (Gen.bool r)

let doc r fields =
  let b = Buffer.create 512 in
  Gen.obj b (List.map (fun i -> (field_name i, field_value r i)) fields);
  Buffer.contents b

let sample r ~below k = List.sort_uniq compare (List.init k (fun _ -> Gen.int r below))

(* Pre-build push k of a stream: 4 documents, the 20 new fields each in
   half of them (nullable from birth), plus 8 older fields. *)
let prebuild_batch r k =
  let fresh = List.init prebuild_fields (fun f -> (k * prebuild_fields) + f) in
  Gen.text
    (List.init 4 (fun d ->
         let older = if k = 0 then [] else sample r ~below:(k * prebuild_fields) 8 in
         doc r (List.filter (fun f -> (f + d) mod 2 = 0) fresh @ older)))

(* Build the state directory with the Registry API; the pushes are
   interleaved across streams as a live server would log them. Returns
   each stream's version. *)
let prebuild ~seed ~dir =
  let reg = Registry.open_ ~fsync:`Never ~snapshot_every ~dir:(Some dir) () in
  for k = 0 to prebuild_pushes - 1 do
    for s = 0 to streams - 1 do
      let r = Gen.rng ~seed ~stream:(10_000 + (s * 1000) + k) in
      let shape = Result.get_ok (Fsdata_core.Infer.of_json (prebuild_batch r k)) in
      ignore (Registry.push reg ~stream:(stream_name s) ~count:4 shape)
    done
  done;
  let versions = Array.init streams (fun s -> (Option.get (Registry.find reg (stream_name s))).Registry.version) in
  Registry.close reg;
  versions

let post = Util.post
let get = Util.get

(* The measured schedule. *)
let schedule ~seed ~seconds ~versions =
  let r = Gen.rng ~seed ~stream:20_000 in
  let width = Array.make streams (prebuild_pushes * prebuild_fields) in
  let last = ref 0 and shape_reads = ref 0 in
  Array.init (Serve_common.schedule_length ~rate ~warm:warm_segments ~seconds) (fun _ ->
      let u = Gen.float r in
      if u < 0.70 then begin
        let s = Gen.int r streams in
        last := s;
        let grows = Gen.float r < 0.05 in
        let fresh = width.(s) in
        if grows then width.(s) <- width.(s) + 1;
        let body =
          Gen.text
            (List.init 8 (fun d ->
                 doc r ((if grows && d < 4 then [ fresh ] else []) @ sample r ~below:fresh 30)))
        in
        (s, "push", post (Printf.sprintf "/streams/%s/push" (stream_name s)) body)
      end
      else if u < 0.90 then begin
        incr shape_reads;
        let fmt = if !shape_reads mod 2 = 0 then "paper" else "schema" in
        (!last, "shape", get (Printf.sprintf "/streams/%s/shape?format=%s" (stream_name !last) fmt))
      end
      else begin
        let s = Gen.int r streams in
        let since = max 1 (versions.(s) - Gen.int r 10) in
        ( s,
          "migrate",
          post
            (Printf.sprintf "/streams/%s/migrate?since=%d" (stream_name s) since)
            (Printf.sprintf "y.%s" (String.capitalize_ascii (field_name (Gen.int r prebuild_fields)))) )
      end)

(* Reference bodies: the in-process server on a fresh copy of the
   pre-built directory, fed the schedule in order. *)
let reference ~dir sched =
  let t =
    Fsdata_serve.Server.create
      { (Serve_common.config ~state_dir:dir ()) with Fsdata_serve.Server.snapshot_every }
  in
  Array.map (fun (_, _, r) -> Serve_common.body_digest (Serve_common.handle t r)) sched

let run ~fsdata ~dir ~seed ~seconds =
  let built = Filename.concat dir "prebuilt" in
  let versions = Util.in_child (fun () -> prebuild ~seed ~dir:built) in
  let sched = schedule ~seed ~seconds ~versions in
  Report.inputs
    ([ ("prebuilt/wal.log", Util.read_file (Filename.concat built "wal.log")) ]
    @ Array.to_list (Array.mapi (fun i (_, route, r) -> (Printf.sprintf "%s-%05d" route i, r.Util.target ^ "\n" ^ r.Util.body)) sched));
  let state = Filename.concat dir "state" in
  let srv, setup_ok, setup =
    Serve_common.setups ~fsdata ~dir ~repeats:setup_repeats
      ~prepare:(fun () -> Util.copy_dir built state)
      ~args:(fun () ->
        Serve_common.serve_args
        @ [ "--state-dir"; state; "--snapshot-every"; string_of_int snapshot_every ])
      ~warm:(fun _ -> true)
  in
  let ops =
    Array.map
      (fun (s, route, req) -> { Loadgen.req; route; conn = Some (s mod Serve_common.connections) })
      sched
  in
  let expect () =
    let copy = Filename.concat dir "reference" in
    Util.copy_dir built copy;
    Util.in_child (fun () -> reference ~dir:copy sched)
  in
  Serve_common.measure ~name:"stream_write" ~srv ~rate ~warm:warm_segments ~ops ~setup ~setup_ok ~expect

(* serve_read: the read-heavy service path, open loop at a fixed rate.

   /infer bodies are drawn Zipf-like from 256 distinct corpora of 1-100
   KiB, more than the server's 64-entry response cache holds, so hits
   and misses both matter; the rest of the mix is /check?compiled=1,
   /query, and shape reads and queries on streams that the warm-up
   built. No pushes are measured. *)

module Shape = Fsdata_core.Shape

(* half of what `fsdata serve` sustained on a contended 2-vCPU virtual
   machine (150 req/s; 650 when it was quiet), so a slow phase does not
   build a queue; see README *)
let rate = 75.
let infer_corpora = 256
let setup_repeats = 3
let warm_segments = 1

type inputs = {
  pushes : Util.request array;  (** warm-up: builds the streams *)
  distinct : (string * Util.request) array;  (** route, request *)
  schedule : int array;  (** indices into [distinct] *)
}

let post = Util.post
let get = Util.get
let stream_query = {|where .kind == "kind3" | select .id, .at|}

(* Body size by popularity rank: log-spaced 1-100 KiB, visited in a
   fixed order (rank * 97 mod 256) so that popular and rare bodies both
   span the size range, identically for every seed. *)
let infer_bytes rank =
  let p = float_of_int (rank * 97 mod infer_corpora) /. float_of_int (infer_corpora - 1) in
  int_of_float (1024. *. (100. ** p))

(* Zipf(1) over ranks, by inverse CDF *)
let zipf_table n =
  let w = Array.init n (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw_rank table u =
  let rec go i = if i >= Array.length table - 1 || table.(i) >= u then i else go (i + 1) in
  go 0

let inputs ~seed ~seconds =
  let stream_names = Array.init 8 (Printf.sprintf "r%d") in
  let pushes =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun s name ->
              Array.init 8 (fun b ->
                  let r = Gen.rng ~seed ~stream:(1000 + (s * 8) + b) in
                  post
                    (Printf.sprintf "/streams/%s/push" name)
                    (Gen.text (Gen.docs Gen.Events r ~bytes:2048))))
            stream_names))
  in
  let infers =
    Array.init infer_corpora (fun rank ->
        let r = Gen.rng ~seed ~stream:(2000 + rank) in
        let kind = Gen.kinds.(rank mod Array.length Gen.kinds) in
        ("infer", post "/infer" (Gen.text (Gen.docs kind r ~bytes:(infer_bytes rank)))))
  in
  let check_kinds = [| Gen.Events; Gen.Payload; Gen.Worldbank |] in
  let checks =
    Array.init 32 (fun i ->
        let kind = check_kinds.(i mod 3) in
        let r = Gen.rng ~seed ~stream:(3000 + i) in
        let sigma = Result.get_ok (Fsdata_core.Infer.of_json (Gen.text (Gen.docs kind r ~bytes:16384))) in
        let doc = List.hd (Gen.docs kind r ~bytes:1) in
        ( "check",
          post ("/check?compiled=1&shape=" ^ Gen.url_encode (Shape.to_string sigma)) doc ))
  in
  let queries =
    Array.init 32 (fun i ->
        let kind = Gen.kinds.(i mod 4) in
        let r = Gen.rng ~seed ~stream:(4000 + i) in
        let body = Gen.text (Gen.docs kind r ~bytes:(4096 + (i * 896))) in
        ( "query",
          post
            (Printf.sprintf "/query?compiled=%d&q=%s" (i mod 2) (Gen.url_encode (Ingest.query_of kind)))
            body ))
  in
  let shapes =
    Array.concat
      (List.map
         (fun fmt -> Array.map (fun n -> ("shape", get (Printf.sprintf "/streams/%s/shape?format=%s" n fmt))) stream_names)
         [ "paper"; "schema" ])
  in
  let squeries =
    Array.init 16 (fun i ->
        let r = Gen.rng ~seed ~stream:(5000 + i) in
        ( "stream_query",
          post
            (Printf.sprintf "/streams/%s/query?compiled=1&q=%s" stream_names.(i mod 8) (Gen.url_encode stream_query))
            (Gen.text (Gen.docs Gen.Events r ~bytes:8192)) ))
  in
  let distinct = Array.concat [ infers; checks; queries; shapes; squeries ] in
  let base_check = infer_corpora and base_query = infer_corpora + 32 in
  let base_shape = base_query + 32 and base_squery = base_query + 32 + 16 in
  let table = zipf_table infer_corpora in
  let r = Gen.rng ~seed ~stream:6000 in
  let route = Gen.lds r ~step:Gen.golden and rank = Gen.lds r ~step:Gen.sqrt2 in
  let n = Serve_common.schedule_length ~rate ~warm:warm_segments ~seconds in
  let schedule =
    Array.init n (fun _ ->
        let u = Gen.lds_next route in
        if u < 0.50 then draw_rank table (Gen.lds_next rank)
        else if u < 0.65 then base_check + Gen.int r 32
        else if u < 0.80 then base_query + Gen.int r 32
        else if u < 0.90 then base_shape + Gen.int r 16
        else base_squery + Gen.int r 16)
  in
  { pushes; distinct; schedule }

(* Reference bodies: the in-process server after the same warm-up. *)
let reference inp =
  let t = Fsdata_serve.Server.create (Serve_common.config ()) in
  let pushes = Array.map (fun r -> Serve_common.body_digest (Serve_common.handle t r)) inp.pushes in
  let distinct = Array.map (fun (_, r) -> Serve_common.body_digest (Serve_common.handle t r)) inp.distinct in
  (pushes, distinct)

(* The warm-up: build the streams, then send every distinct request once. *)
let warm inp (pushes_ref, distinct_ref) srv =
  let rd = Util.reader (Util.connect srv.Util.port) in
  let ok = ref true in
  let send r expect =
    let resp = Util.call rd r in
    if resp.Util.status <> 200 || Gen.digest resp.Util.rbody <> expect then ok := false
  in
  Array.iteri (fun i r -> send r pushes_ref.(i)) inp.pushes;
  Array.iteri (fun i (_, r) -> send r distinct_ref.(i)) inp.distinct;
  Unix.close rd.Util.fd;
  !ok

let run ~fsdata ~dir ~seed ~seconds =
  let inp = Util.in_child (fun () -> inputs ~seed ~seconds) in
  Report.inputs
    (Array.to_list (Array.mapi (fun i r -> (Printf.sprintf "push-%03d" i, r.Util.body)) inp.pushes)
    @ Array.to_list
        (Array.mapi (fun i (route, r) -> (Printf.sprintf "%s-%03d" route i, r.Util.target ^ "\n" ^ r.Util.body)) inp.distinct)
    @ [ ("schedule", String.concat "," (Array.to_list (Array.map string_of_int inp.schedule))) ]);
  let refs = Util.in_child (fun () -> reference inp) in
  let srv, setup_ok, setup =
    Serve_common.setups ~fsdata ~dir ~repeats:setup_repeats ~prepare:ignore
      ~args:(fun () -> Serve_common.serve_args)
      ~warm:(warm inp refs)
  in
  let ops =
    Array.map
      (fun i ->
        let route, req = inp.distinct.(i) in
        { Loadgen.req; route; conn = None })
      inp.schedule
  in
  let expect () = Array.map (fun i -> (snd refs).(i)) inp.schedule in
  Serve_common.measure ~name:"serve_read" ~srv ~rate ~warm:warm_segments ~ops ~setup ~setup_ok ~expect

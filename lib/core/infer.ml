open Fsdata_data
module Obs_trace = Fsdata_obs.Trace
module Obs_metrics = Fsdata_obs.Metrics

type mode = [ `Paper | `Practical | `Xml ]

let m_samples = Obs_metrics.counter "infer.samples"

let classify_string s = Shape.of_hint (Primitive.classify s)

let csh_mode : mode -> Csh.mode = function
  | `Paper -> `Core
  | `Practical -> `Hetero
  | `Xml -> `Xml

let is_paper : mode -> bool = function `Paper -> true | `Practical | `Xml -> false

(* The accumulator of the S(d1, ..., dn) fold (see infer.mli): σ, and
   its index once a merge has left σ as it was. *)
type fold = { mutable shape : Shape.t; mutable index : Csh.index option }

(* A group of same-tag elements of a collection (Section 6.4): its fold,
   its element count, and the position of its latest element. *)
type group = { tag : Tag.t; fold : fold; mutable count : int; mutable last : int }

let rec shape_of_value ?(mode : mode = `Practical) (d : Data_value.t) : Shape.t =
  match d with
  | Null -> Null
  | Bool _ -> Primitive Bool
  | Int _ -> Primitive Int
  | Float _ -> Primitive Float
  | String s -> (
      match mode with
      | `Paper -> Primitive String
      | `Practical | `Xml -> classify_string s)
  | List ds -> infer_collection ~mode ds
  | Record (name, fields) ->
      Shape.record name
        (List.map (fun (n, v) -> (n, shape_of_value ~mode v)) fields)

and infer_collection ~mode ds =
  match mode with
  | `Paper ->
      (* Figure 3: S([d1; ...; dn]) = [S(d1, ..., dn)] *)
      Shape.collection (fold_samples ~mode ds)
  | (`Practical | `Xml) as mode ->
      (* Section 6.4: group element shapes by tag; per tag, join shapes
         and record the observed multiplicity. Element shapes produced by
         S are never nullable or tops, so same-tag joins preserve the tag
         and a single grouping pass suffices. A record or a collection
         is tagged without computing its shape, so that its group's fold
         can skip it when absorbed; a literal's shape is its tag. *)
      let groups = ref [] in
      List.iteri
        (fun i (d : Data_value.t) ->
          let tag, shape =
            match d with
            | Record (name, _) -> (Tag.Record name, None)
            | List _ -> (Tag.Collection, None)
            | _ ->
                let s = shape_of_value ~mode d in
                (Shape.tagof s, Some s)
          in
          match List.find_opt (fun g -> Tag.equal g.tag tag) !groups with
          | Some g -> (
              g.count <- g.count + 1;
              g.last <- i;
              match shape with
              | Some s -> merge ~mode g.fold s
              | None -> fold_value ~mode g.fold d)
          | None ->
              let shape =
                match shape with Some s -> s | None -> shape_of_value ~mode d
              in
              groups :=
                { tag; fold = { shape; index = None }; count = 1; last = i }
                :: !groups)
        ds;
      (* groups in the order of their latest element *)
      let pairs =
        List.sort (fun g h -> Int.compare g.last h.last) !groups
        |> List.map (fun g -> (g.fold.shape, Multiplicity.of_count g.count))
      in
      let pairs =
        match (mode, pairs) with
        | `Xml, _ :: _ :: _ ->
            (* Section 2.2: several element kinds under one parent join
               into a single labelled-top entry — the Element type with
               optional members — rather than per-tag accessors. *)
            let shape = Csh.csh_all ~mode:(csh_mode mode) (List.map fst pairs) in
            (* at least two element kinds means at least two elements *)
            [ (shape, Multiplicity.Multiple) ]
        | _ -> pairs
      in
      if pairs = [] then Shape.collection Shape.Bottom else Shape.hetero pairs

(* Whether [csh σ (shape_of_value ~mode d)] is σ, representation
   included, for σ = [Csh.indexed idx]: walks [d] instead of building
   its shape (see infer.mli). *)
and absorbs_value ~mode idx (d : Data_value.t) =
  match (Csh.indexed idx, d) with
  | ((Collection _ | Top _) as sigma), (Record _ | List _) ->
      joins_to_itself ~mode sigma d
  | (Record _ | Nullable _), Record (name, fields) ->
      Csh.absorbs_record idx name fields (absorbs_value ~mode)
  | _, (Record _ | List _) -> false
  | _, String s -> absorbs_string ~mode idx s
  | _, (Null | Bool _ | Int _ | Float _) ->
      absorbs_constant ~mode idx (shape_of_value ~mode d)

(* S of a literal is a constant shape; nothing to build *)
and absorbs_constant ~mode idx k =
  Csh.absorbs_literal ~mode:(csh_mode mode) idx k

and absorbs_string ~mode idx s =
  absorbs_constant ~mode idx
    (if is_paper mode then Primitive String else classify_string s)

(* The fallback for a collection or top on σ's side: the join itself *)
and joins_to_itself ~mode sigma d =
  Shape.equal (Csh.csh ~mode:(csh_mode mode) sigma (shape_of_value ~mode d)) sigma

(* One step of the fold: skip [d] when the index says σ absorbs it,
   otherwise merge S(d). *)
and fold_value ~mode acc d =
  match acc.index with
  | Some idx when absorbs_value ~mode idx d -> ()
  | _ -> merge ~mode acc (shape_of_value ~mode d)

(* csh is the least upper bound (Lemma 1), so a merge either grows σ or
   leaves it equal, and then with σ's representation, as csh keeps its
   left operand's field order. When it leaves σ as it was σ is kept
   physically and indexed; otherwise the merge is the new σ and the
   index goes with the old one. *)
and merge ~mode acc s =
  let merged = Csh.csh ~mode:(csh_mode mode) acc.shape s in
  if not (Shape.equal merged acc.shape) then begin
    acc.shape <- merged;
    acc.index <- None
  end
  else if Option.is_none acc.index then acc.index <- Some (Csh.index acc.shape)

and fold_samples ~mode ds =
  let acc = { shape = Shape.Bottom; index = None } in
  List.iter (fold_value ~mode acc) ds;
  acc.shape

let absorbs_tokens ~mode idx st = Csh.absorbs_tokens ~mode:(csh_mode mode) idx st

let absorbs_json ?(mode : mode = `Practical) idx text =
  let st = Json.Raw.make text in
  match absorbs_tokens ~mode idx st with
  | absorbed ->
      Json.Raw.skip_ws st;
      absorbed && Json.Raw.at_eof st
  | exception Diagnostic.Parse_error _ -> false

let absorbs_value ?(mode : mode = `Practical) idx d = absorbs_value ~mode idx d

let shape_of_samples ?(mode : mode = `Practical) ds =
  Obs_trace.with_span "infer.samples" @@ fun () ->
  if Obs_metrics.enabled () then Obs_metrics.add m_samples (List.length ds);
  fold_samples ~mode ds

(* ----- The ingestion engine ----- *)

type quarantined = {
  q_index : int;
  q_diagnostic : Diagnostic.t;
  q_text : string option;
}

type report = {
  shape : Shape.t;
  total : int;
  quarantined : quarantined list;
}

type format = Diagnostic.format = Json | Xml | Csv

type source =
  | String of string
  | Samples of string list
  | Values of Data_value.t list
  | Feed of (unit -> string)

(* Observability (docs/OBSERVABILITY.md). [count] is the one place the
   sample counters move, once per run, so they reconcile by
   construction: total = clean + quarantined, and [infer.samples] =
   clean. For CSV the unit of ingestion is the row, matching what the
   error budget counts. Each batch is an [infer.chunk] span recorded
   inside the domain that folds it, and the join of a parallel run's
   batches an [infer.merge] span on the calling domain.
   [par.domains_spawned] counts actual [Domain.spawn]s, so it stays 0
   on sequential runs. *)
let m_ingest_total = Obs_metrics.counter "ingest.samples_total"
let m_ingest_clean = Obs_metrics.counter "ingest.samples_clean"
let m_ingest_quarantined = Obs_metrics.counter "ingest.samples_quarantined"
let m_chunks = Obs_metrics.counter "par.chunks"
let m_spawned = Obs_metrics.counter "par.domains_spawned"
let h_chunk_size = Obs_metrics.histogram "par.chunk_size"

let count ~clean ~quarantined =
  if Obs_metrics.enabled () then begin
    Obs_metrics.add m_ingest_total (clean + quarantined);
    Obs_metrics.add m_ingest_clean clean;
    Obs_metrics.add m_ingest_quarantined quarantined;
    Obs_metrics.add m_samples clean
  end

(* A whole feed, for a format whose text is read at once *)
let buffer pull =
  let b = Buffer.create 4096 in
  let rec go () = match pull () with "" -> Buffer.contents b | s -> Buffer.add_string b s; go () in
  go ()

let sort_quarantined qs =
  List.stable_sort (fun a b -> Int.compare a.q_index b.q_index) qs

let budget_error ~budget ~total qs =
  match qs with
  | [] -> None
  | first :: _ ->
      let errors = List.length qs in
      if Diagnostic.allows budget ~errors ~total then None
      else
        Some
          (Printf.sprintf
             "error budget exceeded: %d of %d samples malformed (budget %s); \
              first: %s"
             errors total
             (Diagnostic.budget_to_string budget)
             (Diagnostic.to_string first.q_diagnostic))

(* The runtime supports ~128 concurrent domains; stay well below so a
   generous --jobs never aborts the program. *)
let max_jobs = 64

let normalize_jobs j =
  if j <= 0 then min max_jobs (max 1 (Domain.recommended_domain_count ()))
  else min max_jobs j

(* [k >= 1] contiguous runs of near-equal length, in order, none empty;
   the first [n mod k] runs get one extra element. *)
let chunk k xs =
  let n = List.length xs in
  let k = min k n in
  let rec take i acc xs =
    if i = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: rest -> take (i - 1) (x :: acc) rest
  in
  let rec go i xs =
    if i >= k then []
    else
      let c, rest = take ((n / k) + if i < n mod k then 1 else 0) [] xs in
      c :: go (i + 1) rest
  in
  go 0 xs

(* Adaptive granularity for a JSON stream (EXPERIMENTS.md B7): with a
   fixed 256-document batch, each hand-off to a domain carried only a
   few tens of kilobytes of work, so [Domain.spawn] dominated and
   [--jobs 2/4] ran slower than the sequential fold. A batch is cut at
   [bytes / (jobs * 8)] consumed source bytes, clamped to
   [64KiB..8MiB], or at [chunk_size] documents (default 65536), so
   corpora of millions of tiny documents still hand off bounded lists. *)
let stream_caps ~jobs ~bytes chunk_size =
  let chunk_bytes = max (64 * 1024) (min (8 * 1024 * 1024) (bytes / (jobs * 8))) in
  (Option.value chunk_size ~default:65536, chunk_bytes)

let spawn f =
  Obs_metrics.incr m_spawned;
  Domain.spawn f

(* [size] is asked once [f] is done, so that a batch read as it is
   folded can be annotated with its size. *)
let traced_chunk ~offset ~size f =
  let r =
    if Obs_trace.enabled () then
      Obs_trace.with_span "infer.chunk"
        ~args:[ ("offset", string_of_int offset) ]
        ~late_args:(fun () -> [ ("size", string_of_int (size ())) ])
        f
    else f ()
  in
  Obs_metrics.incr m_chunks;
  Obs_metrics.observe h_chunk_size (float_of_int (size ()));
  r

exception Stop

(* One batch's share of a run. *)
type batch = { b_shape : Shape.t; b_clean : int; b_faults : quarantined list }

(* Fold item [i] into [fold]. The item is isolated: a fault parsing or
   inferring it is answered, never raised. An exception other than a
   parse error names no position: the sample parsed, or was given
   parsed, and its inference failed. *)
let fold_item ~mode ~format (fold : fold) ~text read i item =
  match fold_value ~mode fold (read item) with
  | () -> None
  | exception e ->
      let d =
        match e with
        | Diagnostic.Parse_error d -> d
        | exn ->
            Diagnostic.make ~format ~line:0 ~column:0
              (Printf.sprintf "inference of sample %d failed: unexpected error: %s"
                 i (Printexc.to_string exn))
      in
      Some { q_index = i; q_diagnostic = Diagnostic.with_index i d; q_text = text item }

(* Fold a batch's items, each paired with its global index, into [fold]
   in order, under its own [infer.chunk] span at [offset]. No item from
   [stop] on is folded, and a strict run stops at its own first fault.
   The walk is the span's tail call, so the items it has passed are
   garbage at once. *)
let fold_batch ~mode ~format ~strict ~cancel ~read ~text (fold : fold) ~offset
    ~stop items =
  let rec go clean faults = function
    | (i, item) :: rest when i < stop -> (
        Cancel.check cancel;
        match fold_item ~mode ~format fold ~text read i item with
        | None -> go (clean + 1) faults rest
        | Some q -> go clean (q :: faults) (if strict then [] else rest))
    | _ -> { b_shape = fold.shape; b_clean = clean; b_faults = List.rev faults }
  in
  let size = List.length items in
  traced_chunk ~offset ~size:(fun () -> size) @@ fun () -> go 0 [] items

(* One batch of a JSON reader at one job, folded as it is read from its
   first item [item] on: [next] first walks each document against the
   index of σ as the previous document left it ([absorbs_tokens]), and
   only a document the walk declines is parsed and folded. A strict run
   stops folding at its first fault, its own or one the reader reported
   into [faults], and reads the rest of the batch. [size] counts the
   items read. *)
let fold_read ~mode ~strict ~cancel ~(faults : quarantined list ref) ~size ~next
    r (fold : fold) item =
  let rec go item clean batch_faults =
    incr size;
    let clean, batch_faults =
      match item with
      | _ when strict && (!faults <> [] || batch_faults <> []) ->
          (clean, batch_faults)
      | Json.Reader.Doc v -> (
          Cancel.check cancel;
          match
            fold_item ~mode ~format:Json fold
              ~text:(fun _ -> None)
              Fun.id (Json.Reader.index r) v
          with
          | None -> (clean + 1, batch_faults)
          | Some q -> (clean, q :: batch_faults))
      | _ -> (clean + 1, batch_faults)
    in
    match
      if Json.Reader.cut r then Json.Reader.End else next ()
    with
    | Json.Reader.End ->
        { b_shape = fold.shape; b_clean = clean; b_faults = List.rev batch_faults }
    | item -> go item clean batch_faults
  in
  go item 0 []

let run ?(cancel = Cancel.never) ?mode ?(jobs = 1) ?chunk_size budget format
    source =
  (* JSON is the one format whose mode is the caller's *)
  let mode =
    match format with
    | Json -> Option.value mode ~default:`Practical
    | Xml -> `Xml
    | Csv -> `Practical
  in
  (* One sample: a JSON or XML document, or a whole CSV table. Inference
     classifies XML's and CSV's raw strings itself, so they stay
     unconverted. *)
  let parse t =
    match
      match format with
      | Json -> Json.parse_diag t
      | Xml -> Result.map (Xml.to_data ~convert_primitives:false) (Xml.parse_diag t)
      | Csv -> Result.map (Csv.to_data ~convert_primitives:false) (Csv.parse_diag t)
    with
    | Ok d -> d
    | Error d -> raise (Diagnostic.Parse_error d)
  in
  let jobs = normalize_jobs jobs in
  let strict = budget = Diagnostic.Strict in
  let fresh () = { shape = Shape.Bottom; index = None } in
  (* the fold of a sequential run, and of a parallel run's last batch *)
  let acc = fresh () in
  (* Batches are jobs: a job folds its batch into the fold it is given,
     polling the token it is given. At one job each folds into [acc] at
     once. Otherwise the latest job is held back, and run on this domain
     once no other follows it, while the others finish, so a source of
     one batch spawns nothing; the others run in domains, at most [jobs]
     in flight, and are joined oldest first. Workers poll no token:
     their batch is bounded work, and joining them even when the run
     trips keeps every domain accounted for. *)
  let results = ref [] and inflight = Queue.create () and held = ref None in
  let join_one () = results := Domain.join (Queue.pop inflight) :: !results in
  let join_all () =
    while not (Queue.is_empty inflight) do
      join_one ()
    done
  in
  (* A text's reader quarantines its faults here, with the text it
     skipped. A strict run stops after the batch that holds or follows
     the first fault, its own at one job or the reader's. *)
  let faults = ref [] in
  let on_error (d : Diagnostic.t) ~skipped =
    let i = Option.value d.Diagnostic.index ~default:0 in
    faults := { q_index = i; q_diagnostic = d; q_text = Some skipped } :: !faults
  in
  let submit job =
    if jobs = 1 then begin
      let b = job cancel acc in
      results := b :: !results;
      if strict && b.b_faults <> [] then raise Stop
    end
    else begin
      Option.iter
        (fun job ->
          if Queue.length inflight >= jobs then join_one ();
          Queue.add (spawn (fun () -> job Cancel.never (fresh ()))) inflight)
        !held;
      held := Some job
    end;
    if strict && !faults <> [] then raise Stop
  in
  (* A batch of indexed items as a job. A strict batch folds none from
     the reader's first fault on. *)
  let batch ~read ~text ~offset items =
    let stop =
      if strict then List.fold_left (fun s q -> min s q.q_index) max_int !faults
      else max_int
    in
    fun cancel fold ->
      fold_batch ~mode ~format ~strict ~cancel ~read ~text fold ~offset ~stop
        items
  in
  (* A sample list is cut into [jobs] contiguous runs, each parsed where
     it is folded. *)
  let samples ~read ~text items =
    List.iter
      (fun items -> submit (batch ~read ~text ~offset:(fst (List.hd items)) items))
      (chunk jobs (List.mapi (fun i item -> (i, item)) items))
  in
  (* A JSON text or feed is read through one [Json.Reader] on this
     domain, batch by batch; a batch starts after the previous one's
     last document, at its first document or at a fault the reader met
     before it. At one job each batch is folded as it is read
     ([fold_read]). Otherwise its documents are collected with their
     indices and submitted. *)
  let read_json r ~refill =
    let absorb st =
      match acc.index with Some idx -> absorbs_tokens ~mode idx st | None -> false
    in
    let absorb = if jobs = 1 then Some absorb else None in
    let rec next () =
      match Json.Reader.next ?absorb r with
      | Json.Reader.Await -> refill r; next ()
      | item -> item
    in
    let rec collect items = function
      | Json.Reader.Doc v -> (
          let items = (Json.Reader.index r, v) :: items in
          match if Json.Reader.cut r then Json.Reader.End else next () with
          | Json.Reader.End -> List.rev items
          | item -> collect items item)
      | _ -> (* nothing is absorbed without [absorb] *) assert false
    in
    let size = ref 0 in
    let rec batches offset =
      match next () with
      | Json.Reader.End -> ()
      | first ->
          if jobs = 1 then
            submit (fun cancel fold ->
                size := 0;
                traced_chunk ~offset ~size:(fun () -> !size) (fun () ->
                    fold_read ~mode ~strict ~cancel ~faults ~size ~next r fold first))
          else
            submit
              (batch ~read:Fun.id ~text:(fun _ -> None) ~offset (collect [] first));
          batches (Json.Reader.index r + 1)
    in
    batches 0
  in
  (* A CSV text is a table whose rows are the samples (Section 6.2),
     numbered once, stepping over the ragged rows the parser
     quarantined, and folded as one batch. An unterminated quoted cell
     leaves no row boundary to resume from, so it fails the text
     whatever the budget. *)
  let rows text =
    Cancel.check cancel;
    match Csv.parse_tolerant ~on_error text with
    | Error d -> raise (Diagnostic.Parse_error d)
    | Ok table ->
        let[@tail_mod_cons] rec number i ragged = function
          | [] -> []
          | row :: rest as rows -> (
              match ragged with
              | r :: ragged when r = i -> number (i + 1) ragged rows
              | _ -> (i, row) :: number (i + 1) ragged rest)
        in
        let items =
          number 0 (List.rev_map (fun q -> q.q_index) !faults) table.Csv.rows
        in
        if items <> [] then
          submit
            (batch
               ~read:(Csv.row_to_data ~convert_primitives:false table)
               ~text:(fun _ -> None) ~offset:0 items)
  in
  (* a feed's length is unknown, so its batches take the least byte cap *)
  let chunk_size, chunk_bytes =
    stream_caps ~jobs
      ~bytes:(match source with String text -> String.length text | _ -> 0)
      chunk_size
  in
  let rec ingest = function
    | Samples texts -> samples ~read:parse ~text:Option.some texts
    | Values ds -> samples ~read:Fun.id ~text:(fun _ -> None) ds
    | String text -> (
        match format with
        | Json ->
            read_json ~refill:ignore
              (Json.Reader.create ~cancel ~chunk_size ~chunk_bytes ~on_error text)
        | Xml -> samples ~read:parse ~text:Option.some [ text ]
        | Csv -> rows text)
    | Feed pull when format = Json ->
        let refill r =
          match pull () with "" -> Json.Reader.finish r | s -> Json.Reader.feed r s
        in
        read_json ~refill
          (Json.Reader.incremental ~cancel ~chunk_size ~chunk_bytes ~on_error ())
    | Feed pull -> ingest (String (buffer pull))
  in
  let fatal =
    match ingest source with
    | () | (exception Stop) -> None
    | exception Diagnostic.Parse_error d -> Some d
    | exception exn ->
        (* no domain outlives the run, even a cancelled one *)
        join_all ();
        raise exn
  in
  let last =
    Option.map
      (fun job -> try job cancel acc with exn -> join_all (); raise exn)
      !held
  in
  join_all ();
  let batches = List.rev (Option.to_list last @ !results) in
  let clean = List.fold_left (fun n b -> n + b.b_clean) 0 batches in
  let qs =
    sort_quarantined (!faults @ List.concat_map (fun b -> b.b_faults) batches)
  in
  count ~clean ~quarantined:(List.length qs);
  let total = clean + List.length qs in
  let is_text = match source with String _ | Feed _ -> true | Samples _ | Values _ -> false in
  let shape () =
    let s =
      match batches with
      | _ when jobs = 1 -> acc.shape
      | [ b ] -> b.b_shape
      | bs ->
          Obs_trace.with_span "infer.merge" @@ fun () ->
          Csh.csh_all ~mode:(csh_mode mode) (List.map (fun b -> b.b_shape) bs)
    in
    (* a CSV text's shape is the collection of its rows' records *)
    match format with
    | Csv when is_text ->
        if clean = 0 then Shape.collection Shape.Bottom
        else Shape.hetero [ (s, Multiplicity.of_count clean) ]
    | _ -> s
  in
  match (qs, fatal) with
  | q :: _, _ when strict -> Error (Diagnostic.message_of q.q_diagnostic)
  | _, Some d -> Error (Diagnostic.message_of d)
  | [], None when is_text && format = Json && total = 0 ->
      Error "no JSON sample documents found"
  | _, None -> (
      match budget_error ~budget ~total qs with
      | Some m -> Error m
      | None -> Ok { shape = shape (); total; quarantined = qs })

let of_json ?mode src =
  Result.map
    (fun (r : report) -> r.shape)
    (run ?mode Diagnostic.Strict Json (String src))

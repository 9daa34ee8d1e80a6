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


(* How a format reads a whole text as a stream of documents, resuming
   after a malformed one: [read] hands the documents to its callback
   batch by batch, in order, and a malformed one to [on_error] with its
   index instead; it raises [Diagnostic.Parse_error] for a fault no
   boundary follows. [shape] is the shape of such a text given the fold
   of its clean documents, and [empty] the error for a text that holds
   none. *)
type stream = {
  read :
    cancel:Cancel.t ->
    chunk_size:int ->
    chunk_bytes:int ->
    on_error:(Diagnostic.t -> skipped:string -> unit) ->
    (Data_value.t list -> unit) ->
    string ->
    unit;
  shape : clean:int -> Shape.t -> Shape.t;
  empty : string option;
}

(* What the engine needs of a format, after Parsifal's
   ParsingParameters: the mode it folds in, how to parse one sample,
   and how to read a text as a stream of documents, unless a text is
   one document, read as the sample list of that text. *)
module type FORMAT = sig
  val format : Diagnostic.format

  val mode : mode option -> mode
  (** the mode a run folds in, given the one the caller names *)

  val parse : string -> (Data_value.t, Diagnostic.t) result
  val stream : stream option
end

let buffer pull =
  let b = Buffer.create 4096 in
  let rec go () = match pull () with "" -> Buffer.contents b | s -> Buffer.add_string b s; go () in
  go ()

(* A JSON text is a whitespace-separated document stream. JSON is the
   one format whose mode is the caller's. *)
module Json_format = struct
  let format = Diagnostic.Json
  let mode = Option.value ~default:`Practical
  let parse = Json.parse_diag

  let read ~cancel ~chunk_size ~chunk_bytes ~on_error emit text =
    Json.fold_many ~cancel ~chunk_size ~chunk_bytes ~on_error
      (fun () -> emit) () text

  let stream =
    Some
      {
        read;
        shape = (fun ~clean:_ s -> s);
        empty = Some "no JSON sample documents found";
      }
end

(* An XML text is one document. Inference classifies the raw attribute
   and body strings itself, so they stay unconverted. *)
module Xml_format = struct
  let format = Diagnostic.Xml
  let mode _ = `Xml

  let parse t =
    Result.map (Xml.to_data ~convert_primitives:false) (Xml.parse_diag t)

  let stream = None
end

(* A CSV text is a table whose rows are the documents, and its shape
   the collection of their records (Section 6.2). A CSV sample is one
   whole table. An unterminated quoted cell leaves no row boundary to
   resume from, so it fails the text whatever the budget. *)
module Csv_format = struct
  let format = Diagnostic.Csv
  let mode _ = `Practical

  let parse t =
    Result.map (Csv.to_data ~convert_primitives:false) (Csv.parse_diag t)

  let read ~cancel ~chunk_size:_ ~chunk_bytes:_ ~on_error emit text =
    Cancel.check cancel;
    match Csv.parse_tolerant ~on_error text with
    | Error d -> raise (Diagnostic.Parse_error d)
    | Ok table ->
        emit
          (List.map
             (Csv.row_to_data ~convert_primitives:false table)
             table.Csv.rows)

  let stream =
    Some
      {
        read;
        shape =
          (fun ~clean s ->
            if clean = 0 then Shape.collection Shape.Bottom
            else Shape.hetero [ (s, Multiplicity.of_count clean) ]);
        empty = None;
      }
end

let format_module : format -> (module FORMAT) = function
  | Json -> (module Json_format)
  | Xml -> (module Xml_format)
  | Csv -> (module Csv_format)

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
   the first [n mod k] runs get one extra element. Each run is paired
   with the index of its first element. *)
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
  let rec go i offset xs =
    if i >= k then []
    else
      let size = (n / k) + if i < n mod k then 1 else 0 in
      let c, rest = take size [] xs in
      (offset, c) :: go (i + 1) (offset + size) rest
  in
  go 0 0 xs

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

(* The position after [k] documents read from [index] on, stepping over
   the indices of the faults in [gaps] (ascending), and the faults
   beyond it. *)
let rec after index k gaps =
  match gaps with
  | g :: gaps when g = index -> after (index + 1) k gaps
  | _ when k = 0 -> (index, gaps)
  | _ -> after (index + 1) (k - 1) gaps

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

(* Fold a batch's items into [fold] in order, under its own
   [infer.chunk] span. The [i]th item sits at the next global index from
   [index] on that is not in [gaps], the indices of the faults the
   reader reported itself. A strict run stops at the first fault, its
   own or a gap. The walk is the span's tail call, so the items it has
   passed are garbage at once. *)
let fold_batch ~mode ~format ~strict ~cancel ~read ~text (fold : fold) ~index
    ~gaps items =
  let rec go i gaps clean faults = function
    | [] -> { b_shape = fold.shape; b_clean = clean; b_faults = List.rev faults }
    | item :: rest as items -> (
        match gaps with
        | g :: gaps when g = i ->
            go (i + 1) gaps clean faults (if strict then [] else items)
        | _ -> (
            Cancel.check cancel;
            match fold_item ~mode ~format fold ~text read i item with
            | None -> go (i + 1) gaps (clean + 1) faults rest
            | Some q -> go (i + 1) gaps clean (q :: faults) (if strict then [] else rest)))
  in
  let size = List.length items in
  traced_chunk ~offset:index ~size:(fun () -> size) @@ fun () ->
  go index gaps 0 [] items

(* A JSON text or feed at one job, folded as it is read: each document
   is first walked against the index of σ as the previous document left
   it ([absorbs_tokens]), and only a document the walk declines is
   parsed and folded. The batches are the reader's, each an
   [infer.chunk] span opened once its first document is read; the
   reader's faults are reported to its [on_error] as they are met. A
   strict run stops folding at its first fault, reads the rest of that
   batch, and stops. *)
let fold_read ~mode ~strict ~cancel ~(faults : quarantined list ref) ~on_batch r
    ~refill (fold : fold) =
  let absorb st =
    match fold.index with
    | Some idx -> absorbs_tokens ~mode idx st
    | None -> false
  in
  let rec next () =
    match Json.Reader.next ~absorb r with
    | Json.Reader.Await -> refill r; next ()
    | item -> item
  in
  let size = ref 0 in
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
  (* a batch starts after the previous one's last document: at its
     first document, or at a fault the reader met before it *)
  let rec batches offset =
    match next () with
    | Json.Reader.End -> ()
    | first ->
        size := 0;
        on_batch
          (traced_chunk ~offset ~size:(fun () -> !size) (fun () ->
               go first 0 []));
        batches (Json.Reader.index r + 1)
  in
  batches 0

let run ?(cancel = Cancel.never) ?mode ?(jobs = 1) ?chunk_size budget format
    source =
  let (module F : FORMAT) = format_module format in
  let mode = F.mode mode in
  let jobs = normalize_jobs jobs in
  (* only a JSON feed at one job is read as it arrives; any other is
     read as its text, so a parallel run's batches are a text's *)
  let source =
    match source with
    | Feed pull when F.format <> Json || jobs > 1 -> String (buffer pull)
    | source -> source
  in
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
  (* A stream's reader quarantines its faults here, with the text it
     skipped (see [on_error] below). A strict run stops after the batch
     that holds or follows the first fault. *)
  let faults = ref [] in
  let on_batch b =
    results := b :: !results;
    if strict && (b.b_faults <> [] || !faults <> []) then raise Stop
  in
  let submit job =
    if jobs = 1 then on_batch (job cancel acc)
    else begin
      Option.iter
        (fun job ->
          if Queue.length inflight >= jobs then join_one ();
          Queue.add (spawn (fun () -> job Cancel.never (fresh ()))) inflight)
        !held;
      held := Some job
    end
  in
  let fold_batch ~cancel ~read ~text fold ~index ~gaps items =
    fold_batch ~mode ~format:F.format ~strict ~cancel ~read ~text fold ~index
      ~gaps items
  in
  (* A sample list is cut into [jobs] contiguous runs, each parsed where
     it is folded. *)
  let samples ~read ~text items =
    List.iter
      (fun (index, items) ->
        submit (fun cancel fold ->
            fold_batch ~cancel ~read ~text fold ~index ~gaps:[] items))
      (chunk jobs items)
  in
  let parse t =
    match F.parse t with Ok d -> d | Error d -> raise (Diagnostic.Parse_error d)
  in
  (* A stream is parsed on this domain, batch by batch. A strict run
     stops reading at the end of the batch that holds the first fault,
     and still folds that batch, so every document before the fault is.
     At one job JSON is read and folded together ([fold_read]). [next]
     is where the next batch starts, [pending] the reader's faults
     since. *)
  let next = ref 0 and pending = ref [] in
  let on_error (d : Diagnostic.t) ~skipped =
    let i = Option.value d.Diagnostic.index ~default:!next in
    faults := { q_index = i; q_diagnostic = d; q_text = Some skipped } :: !faults;
    pending := i :: !pending
  in
  let emit docs =
    if docs <> [] then begin
      let index = !next and gaps = List.rev !pending in
      let index', gaps' = after index (List.length docs) gaps in
      next := index';
      pending := List.rev gaps';
      submit (fun cancel fold ->
          fold_batch ~cancel ~read:Fun.id ~text:(fun _ -> None) fold ~index
            ~gaps docs)
    end;
    if strict && !faults <> [] then raise Stop
  in
  let stream =
    match source with String _ | Feed _ -> F.stream | Samples _ | Values _ -> None
  in
  (* a feed's length is unknown, so its batches take the least byte cap *)
  let chunk_size, chunk_bytes =
    stream_caps ~jobs
      ~bytes:(match source with String text -> String.length text | _ -> 0)
      chunk_size
  in
  let fold_read r ~refill =
    fold_read ~mode ~strict ~cancel ~faults ~on_batch r ~refill acc
  in
  let fatal =
    match
      match (source, stream) with
      | Samples texts, _ -> samples ~read:parse ~text:Option.some texts
      | Values ds, _ -> samples ~read:Fun.id ~text:(fun _ -> None) ds
      | String text, None -> samples ~read:parse ~text:Option.some [ text ]
      | String text, Some _ when jobs = 1 && F.format = Json ->
          fold_read ~refill:ignore
            (Json.Reader.create ~cancel ~chunk_size ~chunk_bytes ~on_error text)
      | String text, Some st ->
          st.read ~cancel ~chunk_size ~chunk_bytes ~on_error emit text
      | Feed pull, _ ->
          let refill r = match pull () with "" -> Json.Reader.finish r | s -> Json.Reader.feed r s in
          fold_read ~refill
            (Json.Reader.incremental ~cancel ~chunk_size ~chunk_bytes ~on_error ())
    with
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
  let shape () =
    let s =
      match batches with
      | _ when jobs = 1 -> acc.shape
      | [ b ] -> b.b_shape
      | bs ->
          Obs_trace.with_span "infer.merge" @@ fun () ->
          Csh.csh_all ~mode:(csh_mode mode) (List.map (fun b -> b.b_shape) bs)
    in
    match stream with Some st -> st.shape ~clean s | None -> s
  in
  match (qs, fatal, Option.bind stream (fun st -> st.empty)) with
  | q :: _, _, _ when strict -> Error (Diagnostic.message_of q.q_diagnostic)
  | _, Some d, _ -> Error (Diagnostic.message_of d)
  | [], None, Some m when total = 0 -> Error m
  | _, None, _ -> (
      match budget_error ~budget ~total qs with
      | Some m -> Error m
      | None -> Ok { shape = shape (); total; quarantined = qs })

let of_json ?mode src =
  Result.map
    (fun (r : report) -> r.shape)
    (run ?mode Diagnostic.Strict Json (String src))

(* Deterministic synthetic workloads for the benchmark harness.

   The sealed environment has no live services (DESIGN.md substitution
   rule), so the corpora the paper's library would meet in the wild are
   modelled synthetically: wide/deep JSON documents with controlled field
   optionality and value heterogeneity, CSV tables, and XML trees. A tiny
   deterministic PRNG keeps runs reproducible. *)

module Dv = Fsdata_data.Data_value

(* xorshift64* — deterministic, dependency-free *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int (if seed = 0 then 88172645463325252 else seed) }

let next r =
  let x = r.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  r.state <- x;
  Int64.to_int (Int64.logand x 0x3FFFFFFFFFFFFFFFL)

let pick r n = next r mod n

(* A people-like array: n records, [optional_every] records miss the age
   field, [float_every] records carry a float age (drives nullable/float
   inference exactly like Section 2.1). *)
let people_array ?(optional_every = 3) ?(float_every = 5) n =
  let r = rng 42 in
  Dv.List
    (List.init n (fun i ->
         let base = [ ("name", Dv.String (Printf.sprintf "person%d" i)) ] in
         let fields =
           if i mod optional_every = 1 then base
           else if i mod float_every = 2 then
             base @ [ ("age", Dv.Float (float_of_int (pick r 90) +. 0.5)) ]
           else base @ [ ("age", Dv.Int (pick r 90)) ]
         in
         Dv.Record (Dv.json_record_name, fields)))

(* A record with [width] primitive fields, the [i]th of a kind fixed by
   [i]; [r] draws the values. *)
let wide_record ?(r = rng 7) width =
  Dv.Record
    ( Dv.json_record_name,
      List.init width (fun i ->
          ( Printf.sprintf "field%d" i,
            match i mod 4 with
            | 0 -> Dv.Int (pick r 1000)
            | 1 -> Dv.Float (float_of_int (pick r 1000) /. 10.)
            | 2 -> Dv.String (Printf.sprintf "value%d" (pick r 100))
            | _ -> Dv.Bool (pick r 2 = 0) )) )

(* A nested record chain of the given depth, ending in an int. *)
let rec deep_record depth =
  if depth = 0 then Dv.Int 1
  else Dv.Record (Dv.json_record_name, [ ("nested", deep_record (depth - 1)) ])

(* A heterogeneous collection in the World Bank style: one metadata
   record and one data array of n rows. *)
let worldbank_like n =
  let r = rng 9 in
  Dv.List
    [
      Dv.Record (Dv.json_record_name, [ ("pages", Dv.Int (1 + pick r 50)) ]);
      Dv.List
        (List.init n (fun i ->
             Dv.Record
               ( Dv.json_record_name,
                 [
                   ("indicator", Dv.String "GC.DOD.TOTL.GD.ZS");
                   ("date", Dv.String (string_of_int (1990 + (i mod 30))));
                   ( "value",
                     if pick r 4 = 0 then Dv.Null
                     else Dv.String (Printf.sprintf "%d.%04d" (pick r 100) (pick r 10000))
                   );
                 ] )));
    ]

(* A collection mixing tag families — ints, strings, records of two
   distinct field sets, null, and nested lists — so inference builds a
   labelled top with multiplicities (Section 6.4) and csh saturates
   primitive labels across entries. *)
let mixed_tags_array n =
  let r = rng 13 in
  Dv.List
    (List.init n (fun i ->
         match pick r 6 with
         | 0 -> Dv.Int (pick r 1000)
         | 1 -> Dv.String (Printf.sprintf "label%d" (pick r 50))
         | 2 ->
             Dv.Record
               ( Dv.json_record_name,
                 [
                   ("city", Dv.String (Printf.sprintf "city%d" (pick r 20)));
                   ("population", Dv.Int (pick r 1_000_000));
                   (* bit-string / record / bool across elements: the
                      record forces a labelled top for this field, and
                      the bit label then joins into bool when it meets
                      it there (csh.top_label_saturations) *)
                   ( "mixed",
                     match i mod 3 with
                     | 0 -> Dv.String "0"
                     | 1 -> Dv.Record ("point", [ ("x", Dv.Int (pick r 9)) ])
                     | _ -> Dv.Bool (pick r 2 = 0) );
                 ] )
         | 3 ->
             Dv.Record
               ( "country",
                 [
                   ("name", Dv.String (Printf.sprintf "country%d" i));
                   ("gdp", Dv.Float (float_of_int (pick r 5000) /. 10.));
                 ] )
         | 4 -> Dv.Null
         | _ -> Dv.List (List.init (pick r 3) (fun j -> Dv.Int j))))

let json_text d = Fsdata_data.Json.to_string d

(* A stream of worldbank-style documents (§2.3 / §6.4): each document is
   the [metadata record; data array] heterogeneous pair, rows_per_doc
   rows each. Exercises nested lists and labelled-top merging across
   documents — the shape every doc contributes is a 2-entry top. *)
let hetero_corpus_text ?(rows_per_doc = 20) n =
  let buf = Buffer.create (n * rows_per_doc * 32) in
  for i = 0 to n - 1 do
    (* vary the row count so per-document shapes differ in multiplicity
       and the cross-document csh merges stay non-trivial *)
    Buffer.add_string buf (json_text (worldbank_like (rows_per_doc + (i mod 7))));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* CSV text with n rows over the ozone-style columns. *)
let csv_text n =
  let r = rng 3 in
  let buf = Buffer.create (n * 24) in
  Buffer.add_string buf "Ozone,Temp,Date,Autofilled\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d.%d,%s,%04d-%02d-%02d,%d\n" (pick r 100) (pick r 10)
         (if pick r 10 = 0 then "#N/A" else string_of_int (50 + pick r 40))
         (1990 + (i mod 30))
         (1 + (i mod 12))
         (1 + (i mod 28))
         (pick r 2))
  done;
  Buffer.contents buf

(* XML text with n children drawn from three element kinds (the open-world
   document format of Section 2.2). *)
let xml_text n =
  let r = rng 5 in
  let buf = Buffer.create (n * 32) in
  Buffer.add_string buf "<doc>";
  for i = 0 to n - 1 do
    match pick r 3 with
    | 0 -> Buffer.add_string buf (Printf.sprintf "<heading>Section %d</heading>" i)
    | 1 -> Buffer.add_string buf (Printf.sprintf "<p>Paragraph number %d with text.</p>" i)
    | _ -> Buffer.add_string buf (Printf.sprintf "<image source=\"img%d.png\"/>" i)
  done;
  Buffer.add_string buf "</doc>";
  Buffer.contents buf

(* k samples of the same people-ish shape, for multi-sample csh folding. *)
let sample_set k n = List.init k (fun i -> people_array ~optional_every:(2 + i) n)

(* A corpus of n standalone sample documents for the parallel
   multi-sample inference benchmarks: event-like records whose field
   sets and literal kinds vary from document to document, so per-chunk
   folds meet genuine optionality/nullability merges rather than
   collapsing after the first few samples. *)
let sample_doc r i =
  let base =
    [
      ("id", Dv.Int i);
      ("kind", Dv.String (Printf.sprintf "kind%d" (i mod 7)));
    ]
  in
  let fields =
    match pick r 5 with
    | 0 -> base
    | 1 -> base @ [ ("value", Dv.Float (float_of_int (pick r 1000) /. 10.)) ]
    | 2 -> base @ [ ("value", Dv.Int (pick r 1000)); ("flag", Dv.Bool true) ]
    | 3 ->
        base
        @ [
            ("when", Dv.String (Printf.sprintf "%04d-%02d-%02d" (1990 + (i mod 30))
                                  (1 + (i mod 12)) (1 + (i mod 28))));
            ("note", Dv.Null);
          ]
    | _ ->
        base
        @ [
            ( "tags",
              Dv.List
                (List.init (pick r 3) (fun j ->
                     Dv.String (Printf.sprintf "t%d" j))) );
          ]
  in
  Dv.Record (Dv.json_record_name, fields)

let sample_corpus n =
  let r = rng 11 in
  List.init n (fun i -> sample_doc r i)

(* The same corpus as whitespace-separated JSON text, for the streaming
   parse+infer pipeline. *)
let corpus_text n =
  let r = rng 11 in
  let buf = Buffer.create (n * 48) in
  for i = 0 to n - 1 do
    Buffer.add_string buf (json_text (sample_doc r i));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* The same corpus with every [stride]-th document corrupted by blanking
   its first field separator. The corrupt document stays brace-balanced,
   so the recovering parser resynchronizes at its own closing brace and
   one fault costs exactly one sample. *)
let faulty_corpus_text ?(stride = 50) n =
  let r = rng 11 in
  let buf = Buffer.create (n * 48) in
  for i = 0 to n - 1 do
    let line = json_text (sample_doc r i) in
    let line =
      if i mod stride <> 0 then line
      else
        match String.index_opt line ':' with
        | Some j -> String.mapi (fun k c -> if k = j then ' ' else c) line
        | None -> line
    in
    Buffer.add_string buf line;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* Newline-separated wide records of one shape, [bytes] long or just
   over. *)
let wide_corpus_text ~width bytes =
  let r = rng 13 in
  let buf = Buffer.create (bytes + 8192) in
  while Buffer.length buf < bytes do
    Buffer.add_string buf (json_text (wide_record ~r width));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* Newline-separated event records, [bytes] long or just over: an id, a
   kind and an ISO date on every record, then one of five tails (none,
   a float value, an int value and a flag, a null note and a nested
   user, or a list of zero to three tags), so that the inference fold
   classifies a date on every document and walks a tag list on a fifth
   of them. *)
let events_corpus_text bytes =
  let r = rng 29 in
  let buf = Buffer.create (bytes + 8192) in
  let i = ref 0 in
  while Buffer.length buf < bytes do
    let str s = Dv.String s in
    let date =
      Printf.sprintf "20%02d-%02d-%02d" (10 + pick r 14) (1 + pick r 12) (1 + pick r 28)
    in
    let tail =
      match pick r 5 with
      | 0 -> []
      | 1 -> [ ("value", Dv.Float (float_of_int (pick r 100_000) /. 100.)) ]
      | 2 -> [ ("value", Dv.Int (pick r 1000)); ("flag", Dv.Bool (pick r 2 = 0)) ]
      | 3 ->
          [
            ("note", Dv.Null);
            ( "user",
              Dv.Record
                ( Dv.json_record_name,
                  [ ("name", str (Printf.sprintf "user%d" (pick r 500)));
                    ("age", Dv.Int (18 + pick r 60)) ] ) );
          ]
      | _ ->
          [ ("tags", Dv.List (List.init (pick r 4) (fun _ -> str (Printf.sprintf "t%d" (pick r 20))))) ]
    in
    let d =
      Dv.Record
        ( Dv.json_record_name,
          [ ("id", Dv.Int !i); ("kind", str (Printf.sprintf "kind%d" (pick r 7))); ("at", str date) ]
          @ tail )
    in
    Buffer.add_string buf (json_text d);
    Buffer.add_char buf '\n';
    incr i
  done;
  Buffer.contents buf

(* A corpus for the query-pushdown benchmarks (B14): every document
   carries the three fields queries touch plus a [payload] record an
   order of magnitude bigger than the rest — exactly the bytes a
   pruned compiled decoder skips at the lexer level while the generic
   reference evaluator must still parse them. *)
let query_corpus_text ?(payload_fields = 30) n =
  let r = rng 23 in
  let buf = Buffer.create (n * 768) in
  for i = 0 to n - 1 do
    let payload =
      Dv.Record
        ( Dv.json_record_name,
          List.init payload_fields (fun j ->
              ( Printf.sprintf "p%02d" j,
                Dv.String (Printf.sprintf "%016x" (pick r 1_000_000_000)) )) )
    in
    let d =
      Dv.Record
        ( Dv.json_record_name,
          [
            ("name", Dv.String (Printf.sprintf "user%d" i));
            ("age", Dv.Int (18 + pick r 60));
            ("active", Dv.Bool (pick r 2 = 0));
            ("payload", payload);
          ] )
    in
    Buffer.add_string buf (json_text d);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

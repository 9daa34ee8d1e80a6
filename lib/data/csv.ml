type table = { headers : string list; rows : string list list }

exception Parse_error of { line : int; message : string }

(* Faults are reported as structured {!Diagnostic.t}s carrying both the
   line and the column (historically CSV errors carried only a line);
   the legacy exception above is the thin compatibility wrapper the
   public entry points convert to. *)
let reraise_legacy (d : Diagnostic.t) =
  raise (Parse_error { line = d.line; message = d.message })

let error ~line ~column fmt =
  Diagnostic.error ~format:Diagnostic.Csv ~line ~column fmt

(* A cell together with the stream position of its first character, so
   later structural errors (arity mismatches) can point at the offending
   cell even when earlier cells contained embedded newlines. *)
type cell = { cline : int; ccol : int; text : string }

(* Split the input into rows of positioned cells, honouring RFC 4180
   quoting. Row and cell line numbers are exact: quoted cells may span
   lines and the bookkeeping follows them. *)
let split_rows ~separator src =
  let len = String.length src in
  let rows = ref [] in
  let cells = ref [] in
  let buf = Buffer.create 16 in
  let line = ref 1 in
  let bol = ref 0 in
  let pos = ref 0 in
  let row_nonempty = ref false in
  let cell_line = ref 1 in
  let cell_col = ref 1 in
  let mark_cell_start () =
    cell_line := !line;
    cell_col := !pos - !bol + 1
  in
  let flush_cell () =
    cells := { cline = !cell_line; ccol = !cell_col; text = Buffer.contents buf } :: !cells;
    Buffer.clear buf
  in
  let flush_row () =
    flush_cell ();
    (* A completely empty line is skipped rather than read as a row with a
       single empty cell. *)
    (match !cells with
    | [ { text = ""; _ } ] when not !row_nonempty -> ()
    | cs -> rows := List.rev cs :: !rows);
    cells := [];
    row_nonempty := false
  in
  while !pos < len do
    let c = src.[!pos] in
    if c = '"' then begin
      row_nonempty := true;
      (* remember where the quote opened: that is where an unterminated
         quoted cell goes wrong, not the end of the input *)
      let qline = !line and qcol = !pos - !bol + 1 in
      incr pos;
      let closed = ref false in
      while not !closed do
        if !pos >= len then error ~line:qline ~column:qcol "unterminated quoted cell"
        else begin
          let c = src.[!pos] in
          if c = '"' then
            if !pos + 1 < len && src.[!pos + 1] = '"' then begin
              Buffer.add_char buf '"';
              pos := !pos + 2
            end
            else begin
              closed := true;
              incr pos
            end
          else begin
            if c = '\n' then begin
              incr line;
              bol := !pos + 1
            end;
            Buffer.add_char buf c;
            incr pos
          end
        end
      done
    end
    else if c = separator then begin
      row_nonempty := true;
      flush_cell ();
      incr pos;
      mark_cell_start ()
    end
    else if c = '\r' && !pos + 1 < len && src.[!pos + 1] = '\n' then begin
      flush_row ();
      incr line;
      pos := !pos + 2;
      bol := !pos;
      mark_cell_start ()
    end
    else if c = '\n' || c = '\r' then begin
      flush_row ();
      incr line;
      incr pos;
      bol := !pos;
      mark_cell_start ()
    end
    else begin
      row_nonempty := true;
      Buffer.add_char buf c;
      incr pos
    end
  done;
  if Buffer.length buf > 0 || !cells <> [] then flush_row ();
  List.rev !rows

let default_header i = Printf.sprintf "Column%d" (i + 1)

let cell_texts row = List.map (fun c -> c.text) row

(* Shared frame: split, name the columns, then hand each positioned data
   row to [on_row], which normalizes it to the header width or deals
   with an arity fault its own way. *)
(* Observability: every public parse entry funnels through
   {!parse_rows}, so counting here covers strict, diagnostic and
   tolerant parsing alike (docs/OBSERVABILITY.md). *)
let m_docs = Fsdata_obs.Metrics.counter "parse.csv.documents"
let m_bytes = Fsdata_obs.Metrics.counter "parse.csv.bytes"
let m_ns = Fsdata_obs.Metrics.counter "parse.csv.ns"

let parse_rows ?(separator = ',') ?(has_headers = true) ~on_row src =
  Fsdata_obs.Trace.with_span "parse.csv" @@ fun () ->
  Fsdata_obs.Metrics.incr m_docs;
  Fsdata_obs.Metrics.add m_bytes (String.length src);
  Fsdata_obs.Metrics.time m_ns @@ fun () ->
  match split_rows ~separator src with
  | [] -> { headers = []; rows = [] }
  | first :: rest ->
      let headers, data_rows =
        if has_headers then
          ( List.mapi
              (fun i h ->
                if String.trim h.text = "" then default_header i
                else String.trim h.text)
              first,
            rest )
        else (List.mapi (fun i _ -> default_header i) first, first :: rest)
      in
      (* a row is a record, whose field names are the headers *)
      (match Data_value.first_duplicate (List.map (fun h -> (h, ())) headers) with
      | Some name ->
          (* at its second occurrence *)
          let _, cell =
            List.nth
              (List.filter
                 (fun (h, _) -> String.equal h name)
                 (List.combine headers first))
              1
          in
          error ~line:cell.cline ~column:cell.ccol "duplicate header %S" name
      | None -> ());
      let width = List.length headers in
      let index = ref (-1) in
      let rows =
        List.filter_map
          (fun row ->
            incr index;
            let n = List.length row in
            if n > width then on_row ~index:!index ~width ~n row
            else if n < width then
              Some (cell_texts row @ List.init (width - n) (fun _ -> ""))
            else Some (cell_texts row))
          data_rows
      in
      { headers; rows }

let arity_error ~width ~n row =
  (* point at the first cell beyond the header width *)
  let offending = List.nth row width in
  error ~line:offending.cline ~column:offending.ccol
    "row has %d cells but the header has %d columns" n width

let parse ?separator ?has_headers src =
  try
    parse_rows ?separator ?has_headers
      ~on_row:(fun ~index:_ ~width ~n row -> arity_error ~width ~n row)
      src
  with Diagnostic.Parse_error d -> reraise_legacy d

let parse_diag ?separator ?has_headers src =
  match
    parse_rows ?separator ?has_headers
      ~on_row:(fun ~index:_ ~width ~n row -> arity_error ~width ~n row)
      src
  with
  | t -> Ok t
  | exception Diagnostic.Parse_error d -> Error d

let parse_result ?separator ?has_headers src =
  match parse_diag ?separator ?has_headers src with
  | Ok t -> Ok t
  | Error d -> Error (Diagnostic.message_of d)

let needs_quoting ~separator s =
  String.exists (fun c -> c = separator || c = '"' || c = '\n' || c = '\r') s

let quote_cell ~separator s =
  if needs_quoting ~separator s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let parse_tolerant ?separator ?has_headers ?(on_error = fun _ ~skipped:_ -> ())
    src =
  let sep = match separator with Some c -> c | None -> ',' in
  match
    parse_rows ?separator ?has_headers
      ~on_row:(fun ~index ~width ~n row ->
        (* a ragged row is a per-sample fault: quarantine it and keep
           the rest of the table *)
        let offending = List.nth row width in
        let d =
          Diagnostic.make ~index ~format:Diagnostic.Csv ~line:offending.cline
            ~column:offending.ccol
            (Printf.sprintf "row has %d cells but the header has %d columns" n
               width)
        in
        let skipped =
          String.concat (String.make 1 sep)
            (List.map (fun c -> quote_cell ~separator:sep c.text) row)
        in
        on_error d ~skipped;
        None)
      src
  with
  | t -> Ok t
  | exception Diagnostic.Parse_error d -> Error d

let row_to_data ?(convert_primitives = true) table row =
  (* Unquoted cells keep the whitespace around separators; conversion
     normalizes it away, matching how classification trims literals. *)
  let conv s =
    if convert_primitives then fst (Primitive.to_value (String.trim s))
    else Data_value.String s
  in
  Data_value.Record
    (Data_value.csv_record_name, List.map2 (fun h c -> (h, conv c)) table.headers row)

let to_data ?convert_primitives table =
  Data_value.List (List.map (row_to_data ?convert_primitives table) table.rows)

let to_string ?(separator = ',') table =
  let buf = Buffer.create 256 in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_char buf separator;
        Buffer.add_string buf (quote_cell ~separator cell))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row table.headers;
  List.iter emit_row table.rows;
  Buffer.contents buf

exception Parse_error of { line : int; column : int; message : string }

(* Observability (docs/OBSERVABILITY.md): document counts, input bytes and
   parse nanoseconds per format. Registered at module initialization so
   the exported key set does not depend on which paths a run exercises;
   recording costs one branch until enabled. *)
let m_docs = Fsdata_obs.Metrics.counter "parse.json.documents"
let m_bytes = Fsdata_obs.Metrics.counter "parse.json.bytes"
let m_ns = Fsdata_obs.Metrics.counter "parse.json.ns"

(* The parser reports errors as structured {!Diagnostic.t}s; this legacy
   exception is a thin compatibility wrapper the public entry points
   convert to, so pre-diagnostic handlers keep working unchanged. *)
let reraise_legacy (d : Diagnostic.t) =
  raise (Parse_error { line = d.line; column = d.column; message = d.message })

let legacy f = try f () with Diagnostic.Parse_error d -> reraise_legacy d

(* [src] holds the input in its first [len] bytes. A string's state
   never writes it; a fed reader's grows by appending past [len] and is
   replaced when it compacts (see [Reader]). *)
type state = {
  mutable src : Bytes.t;
  mutable len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* offset of the beginning of the current line *)
  mutable depth : int; (* current nesting depth, bounded by [max_depth] *)
}

(* The parser is recursive-descent; bounding the nesting keeps adversarial
   inputs from overflowing the OCaml stack. 10_000 levels is far beyond
   any data document and well within the default stack. *)
let max_depth = 10_000

let make_state src =
  let src = Bytes.unsafe_of_string src in
  { src; len = Bytes.length src; pos = 0; line = 1; bol = 0; depth = 0 }

let error st fmt =
  Diagnostic.error ~format:Diagnostic.Json ~line:st.line
    ~column:(st.pos - st.bol + 1) fmt

let enter st =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then
    error st "nesting deeper than %d levels" max_depth

let leave st = st.depth <- st.depth - 1

let peek st = if st.pos < st.len then Some (Bytes.get st.src st.pos) else None

let at_eof st = st.pos >= st.len

(* Non-allocating [peek] for the hot loops: [peek] boxes its option on
   every call. NUL doubles as the end-of-input sentinel; a literal NUL
   byte in the source is a control character and errors on every path
   that could consume it, so a caller that must tell the two apart asks
   [at_eof]. *)
let peek_char st =
  if st.pos >= st.len then '\000' else Bytes.unsafe_get st.src st.pos

let advance st =
  (if st.pos < st.len && Bytes.get st.src st.pos = '\n' then begin
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   end);
  st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek_char st with
    | ' ' | '\t' | '\r' -> st.pos <- st.pos + 1
    | '\n' ->
        st.pos <- st.pos + 1;
        st.line <- st.line + 1;
        st.bol <- st.pos
    | _ -> continue := false
  done

(* [c] is never NUL, so a match is never the end-of-input sentinel, and
   never a newline, so consuming it needs no line bookkeeping. *)
let expect st c =
  let c' = peek_char st in
  if c' = c then st.pos <- st.pos + 1
  else if at_eof st then error st "expected %C but found end of input" c
  else error st "expected %C but found %C" c c'

(* Encode a Unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> error st "invalid hexadecimal digit %C in \\u escape" c

let parse_hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    match peek st with
    | Some c ->
        v := (!v * 16) + hex_digit st c;
        advance st
    | None -> error st "unterminated \\u escape"
  done;
  !v

(* Slow path: decode escape sequences through a buffer. The cursor is
   just past the opening quote. *)
let parse_string_slow st =
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error st "unterminated escape sequence"
        | Some c -> (
            advance st;
            match c with
            | '"' -> Buffer.add_char buf '"'; loop ()
            | '\\' -> Buffer.add_char buf '\\'; loop ()
            | '/' -> Buffer.add_char buf '/'; loop ()
            | 'b' -> Buffer.add_char buf '\b'; loop ()
            | 'f' -> Buffer.add_char buf '\012'; loop ()
            | 'n' -> Buffer.add_char buf '\n'; loop ()
            | 'r' -> Buffer.add_char buf '\r'; loop ()
            | 't' -> Buffer.add_char buf '\t'; loop ()
            | 'u' ->
                let u = parse_hex4 st in
                if u >= 0xD800 && u <= 0xDBFF then begin
                  (* high surrogate: require a low surrogate escape next *)
                  if peek st = Some '\\' then begin
                    advance st;
                    if peek st = Some 'u' then begin
                      advance st;
                      let lo = parse_hex4 st in
                      if lo >= 0xDC00 && lo <= 0xDFFF then
                        add_utf8 buf
                          (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                      else error st "invalid low surrogate \\u%04X" lo
                    end
                    else error st "expected \\u escape after high surrogate"
                  end
                  else error st "expected \\u escape after high surrogate"
                end
                else if u >= 0xDC00 && u <= 0xDFFF then
                  error st "unexpected low surrogate \\u%04X" u
                else add_utf8 buf u;
                loop ()
            | c -> error st "invalid escape character %C" c))
    | Some c when Char.code c < 0x20 ->
        error st "unescaped control character %C in string" c
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ()

(* The end of the run from [i] that needs no decoding: the offset of
   the first quote, backslash or control character, or the end of the
   input. Nothing in the run can be a newline (those are control
   characters), so consuming it needs no line bookkeeping. *)
let rec plain_end src len i =
  if i < len
     &&
     let c = Bytes.unsafe_get src i in
     c <> '"' && c <> '\\' && Char.code c >= 0x20
  then plain_end src len (i + 1)
  else i

(* After the opening quote, the offset of the closing one when the
   literal holds no escape or control character: its content is then
   the source bytes in between, and the cursor moves past it.
   Otherwise -1, with the cursor left where it was. *)
let plain_literal st =
  let i = plain_end st.src st.len st.pos in
  if i < st.len && Bytes.unsafe_get st.src i = '"' then begin
    st.pos <- i + 1;
    i
  end
  else -1

(* A literal without escapes or control characters decodes to a
   substring of the source. *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  match plain_literal st with
  | -1 -> parse_string_slow st
  | stop -> Bytes.sub_string st.src start (stop - start)

(* [Primitive.classify] of a string literal, in the source when the
   literal needs no decoding: the source is read through a string view
   that lives only for the call. *)
let classify_string ~dates st =
  expect st '"';
  let start = st.pos in
  match plain_literal st with
  | -1 ->
      let s = parse_string_slow st in
      Primitive.classify_sub ~dates s 0 (String.length s)
  | stop -> Primitive.classify_sub ~dates (Bytes.unsafe_to_string st.src) start (stop - start)

let skip_string st =
  expect st '"';
  if plain_literal st < 0 then ignore (parse_string_slow st)

let digit_at src len j =
  j < len && Bytes.get src j >= '0' && Bytes.get src j <= '9'

(* Scan a number from the cursor to its end and answer whether it is
   written with a fraction or an exponent. Index-scanned for speed: none
   of the scanned characters can be a newline, so no line bookkeeping
   until the position is committed. *)
let scan_number st =
  let src = st.src and len = st.len in
  let i = ref st.pos in
  if !i < len && Bytes.unsafe_get src !i = '-' then incr i;
  let is_float = ref false in
  (* integer part: a lone '0', or a run starting with a nonzero digit *)
  (match if !i < len then Bytes.unsafe_get src !i else '\000' with
  | '0' -> incr i
  | '1' .. '9' -> while digit_at src len !i do incr i done
  | _ ->
      st.pos <- !i;
      error st "invalid number");
  if !i < len && Bytes.unsafe_get src !i = '.' then begin
    is_float := true;
    incr i;
    let d0 = !i in
    while digit_at src len !i do incr i done;
    if !i = d0 then begin
      st.pos <- !i;
      error st "expected digits after decimal point"
    end
  end;
  if !i < len && (Bytes.get src !i = 'e' || Bytes.get src !i = 'E') then begin
    is_float := true;
    incr i;
    if !i < len && (Bytes.get src !i = '+' || Bytes.get src !i = '-') then incr i;
    let d0 = !i in
    while digit_at src len !i do incr i done;
    if !i = d0 then begin
      st.pos <- !i;
      error st "expected digits in exponent"
    end
  end;
  st.pos <- !i;
  !is_float

(* An integer literal of at most 18 digits always fits a native int. *)
let short_int src ~start ~stop =
  let dig0 = if Bytes.unsafe_get src start = '-' then start + 1 else start in
  stop - dig0 <= 18

let parse_number st =
  let src = st.src and start = st.pos in
  let is_float = scan_number st in
  let stop = st.pos in
  if is_float then
    Data_value.Float (float_of_string (Bytes.sub_string src start (stop - start)))
  else if short_int src ~start ~stop then begin
    (* accumulate without the substring + int_of_string round-trip *)
    let neg = Bytes.unsafe_get src start = '-' in
    let acc = ref 0 in
    for j = (if neg then start + 1 else start) to stop - 1 do
      acc := (!acc * 10) + (Char.code (Bytes.unsafe_get src j) - 48)
    done;
    Data_value.Int (if neg then - !acc else !acc)
  end
  else
    let text = Bytes.sub_string src start (stop - start) in
    match int_of_string_opt text with
    | Some v -> Data_value.Int v
    | None -> Data_value.Float (float_of_string text)

(* Whether the number at the cursor reads as an [Int], as {!parse_number}
   decides, without building it. *)
let number_is_int st =
  let src = st.src and start = st.pos in
  (not (scan_number st))
  && (short_int src ~start ~stop:st.pos
     || Option.is_some
          (int_of_string_opt (Bytes.sub_string src start (st.pos - start))))

let parse_literal st word value =
  for i = 0 to String.length word - 1 do
    expect st (String.unsafe_get word i)
  done;
  value

(* The members of an object, given newest first, in document order under
   the duplicate-key rule: the last binding of a key wins, at the
   position of its last occurrence. Duplicates are rare, so they are
   detected once per object ({!Data_value.first_duplicate}: pairwise for
   narrow objects, hashed for wide ones) and resolved only when present:
   walking newest first, the first binding met for each key is its last
   one. *)
let object_fields rev_fields =
  if Option.is_none (Data_value.first_duplicate rev_fields) then List.rev rev_fields
  else
    let seen = Hashtbl.create 16 in
    List.fold_left
      (fun acc ((key, _) as field) ->
        if Hashtbl.mem seen key then acc
        else begin
          Hashtbl.add seen key ();
          field :: acc
        end)
      [] rev_fields

let rec parse_value st =
  skip_ws st;
  match peek_char st with
  | '{' -> parse_object st
  | '[' -> parse_array st
  | '"' -> Data_value.String (parse_string st)
  | 't' -> parse_literal st "true" (Data_value.Bool true)
  | 'f' -> parse_literal st "false" (Data_value.Bool false)
  | 'n' -> parse_literal st "null" Data_value.Null
  | '-' | '0' .. '9' -> parse_number st
  | c ->
      if at_eof st then error st "unexpected end of input"
      else error st "unexpected character %C" c

and parse_object st =
  enter st;
  expect st '{';
  skip_ws st;
  if peek_char st = '}' then begin
    advance st;
    leave st;
    Data_value.Record (Data_value.json_record_name, [])
  end
  else begin
    let rec members rev_fields =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let rev_fields = (key, parse_value st) :: rev_fields in
      skip_ws st;
      match peek_char st with
      | ',' ->
          advance st;
          members rev_fields
      | '}' ->
          advance st;
          rev_fields
      | c ->
          if at_eof st then error st "unterminated object"
          else error st "expected ',' or '}' in object but found %C" c
    in
    let rev_fields = members [] in
    leave st;
    Data_value.Record (Data_value.json_record_name, object_fields rev_fields)
  end

and parse_array st =
  enter st;
  expect st '[';
  skip_ws st;
  if peek_char st = ']' then begin
    advance st;
    leave st;
    Data_value.List []
  end
  else begin
    let rec elements rev_items =
      let rev_items = parse_value st :: rev_items in
      skip_ws st;
      match peek_char st with
      | ',' ->
          advance st;
          skip_ws st;
          elements rev_items
      | ']' ->
          advance st;
          rev_items
      | c ->
          if at_eof st then error st "unterminated array"
          else error st "expected ',' or ']' in array but found %C" c
    in
    let rev_items = elements [] in
    leave st;
    Data_value.List (List.rev rev_items)
  end

(* [parse_value] that builds nothing: it reads the same syntax, stops
   where the parser stops and faults where it faults. [mark] is told
   the offset after each separator of the value's own members or
   elements, from where {!skip_elements} reads on as this reading
   would. *)
let rec skip_value ?(mark = ignore) st =
  skip_ws st;
  match peek_char st with
  | '{' -> skip_members ~mark st '{' '}'
  | '[' -> skip_members ~mark st '[' ']'
  | '"' -> skip_string st
  | 't' -> parse_literal st "true" ()
  | 'f' -> parse_literal st "false" ()
  | 'n' -> parse_literal st "null" ()
  | '-' | '0' .. '9' -> ignore (scan_number st)
  | c ->
      if at_eof st then error st "unexpected end of input"
      else error st "unexpected character %C" c

(* An object's members or an array's elements, between [opening] and
   [closing] *)
and skip_members ~mark st opening closing =
  enter st;
  expect st opening;
  skip_ws st;
  if peek_char st = closing then advance st else skip_elements ~mark st opening closing;
  leave st

(* The members or elements from the first or from after a separator,
   through [closing] *)
and skip_elements ~mark st opening closing =
  skip_ws st;
  if opening = '{' then begin
    skip_string st;
    skip_ws st;
    expect st ':'
  end;
  skip_value st;
  skip_ws st;
  match peek_char st with
  | ',' ->
      advance st;
      mark st.pos;
      skip_elements ~mark st opening closing
  | c when c = closing -> advance st
  | c ->
      if at_eof st then error st "unterminated"
      else error st "expected ',' or %C but found %C" closing c

let parse s =
  Fsdata_obs.Trace.with_span "parse.json" @@ fun () ->
  Fsdata_obs.Metrics.incr m_docs;
  Fsdata_obs.Metrics.add m_bytes (String.length s);
  Fsdata_obs.Metrics.time m_ns @@ fun () ->
  legacy (fun () ->
      let st = make_state s in
      let v = parse_value st in
      skip_ws st;
      (match peek st with
      | Some c -> error st "trailing content after JSON value: %C" c
      | None -> ());
      v)

let parse_diag s =
  match parse s with
  | v -> Ok v
  | exception Parse_error { line; column; message } ->
      Error (Diagnostic.make ~format:Diagnostic.Json ~line ~column message)

let parse_result s =
  match parse_diag s with
  | Ok v -> Ok v
  | Error d -> Error (Diagnostic.message_of d)

(* The bracket-depth, in-string and escape state of a scan that finds
   where a top-level document ends without parsing it, shared by
   {!resync} and a fed reader's boundary scan. *)
type scanner = { mutable nest : int; mutable in_str : bool; mutable esc : bool }

let scanner () = { nest = 0; in_str = false; esc = false }

let scan sc c =
  if sc.in_str then begin
    if sc.esc then sc.esc <- false
    else if c = '\\' then sc.esc <- true
    else if c = '"' then sc.in_str <- false
  end
  else
    match c with
    | '"' -> sc.in_str <- true
    | '{' | '[' -> sc.nest <- sc.nest + 1
    | '}' | ']' -> sc.nest <- sc.nest - 1
    | _ -> ()

(* A byte that may continue a literal or a number *)
let in_token = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '+' | '-' | '.' -> true
  | _ -> false

(* The scan of a malformed document from [start] to its fault *)
let seed_scanner st ~start =
  let sc = scanner () in
  for i = start to min st.pos st.len - 1 do
    scan sc (Bytes.get st.src i)
  done;
  sc

(* Resynchronize after a malformed document, whose text up to the
   cursor [sc] has scanned: advance to the most plausible start of the
   next top-level document, so one corrupt document does not consume
   the rest of the stream. Two boundary rules, checked per character:

   - structural: a '}' or ']' outside any string literal that returns
     the bracket depth to zero closes the document — this recovers
     balanced-but-invalid documents like [{"a": tru}] in full;
   - line-based: a newline whose very next character is '{' or '[' (a
     document opener at column 1) starts a fresh document — the
     newline-delimited-corpus fallback for truncated documents whose
     brackets never re-balance.

   Returns [true] when a boundary was found, and [false] at the end of
   the buffer, having consumed it; unless [finished], a newline ending
   the buffer is left for when its next byte is in. Advancing through
   {!advance} keeps the positions of later diagnostics exact. *)
let rec resume_resync ~finished st sc =
  st.pos < st.len
  &&
  let c = Bytes.get st.src st.pos in
  if c = '\n' && st.pos + 1 = st.len && not finished then false
  else if
    c = '\n' && st.pos + 1 < st.len
    && (Bytes.get st.src (st.pos + 1) = '{' || Bytes.get st.src (st.pos + 1) = '[')
  then begin
    advance st;
    true
  end
  else begin
    scan sc c;
    advance st;
    ((c = '}' || c = ']') && (not sc.in_str) && sc.nest <= 0)
    || resume_resync ~finished st sc
  end

let resync st ~start = resume_resync ~finished:true st (seed_scanner st ~start)

(* A document stream read one document at a time. Each document is
   offered to [absorb] first, which may consume it and answer [true];
   when it answers [false] or raises a parse error, the reader rewinds
   to the document's start and parses it. A malformed document goes to
   [on_error] with its global index and the skipped text, and the
   reader resumes at the next boundary; without [on_error] it raises.
   Batches are cut after [chunk_size] documents or once they have
   consumed [chunk_bytes] source bytes, whichever fills first; faults
   count towards neither. Until a fed reader's input is finished, a
   document is read once its reading ends in the buffer ([ended],
   [document]), and a fault's resync resumes on the next fragment. *)
module Reader = struct
  type item = End | Await | Doc of Data_value.t | Absorbed

  type t = {
    st : state;
    cancel : Cancel.t;
    on_error : (Diagnostic.t -> skipped:string -> unit) option;
    chunk_size : int;
    byte_cap : int;
    mutable finished : bool; (* no input follows the buffer *)
    mutable start : int; (* offset of the document being read; -1 between documents *)
    mutable from : int; (* offset of the document the boundary scan is for *)
    mutable scanned : int; (* how far that scan has come *)
    mutable declined : bool; (* that scan passed a line [cut_off] declined *)
    mutable tried : int; (* bytes buffered at the latest try of a held document *)
    mutable resume : int; (* where that try can read on from, or -1 *)
    mutable sc : scanner; (* that scan, or the resync of a fault *)
    mutable fault : Diagnostic.t option; (* a fault whose resync awaits input *)
    mutable index : int; (* global index of the latest document, read or skipped *)
    mutable n : int; (* documents in the current batch *)
    mutable bytes : int; (* and their source bytes *)
    mutable cut : bool; (* the latest document filled its batch *)
  }

  let make ~finished ?(cancel = Cancel.never) ?(chunk_size = 256) ?chunk_bytes
      ?on_error s =
    if chunk_size < 1 then invalid_arg "Json.fold_many: chunk_size must be positive";
    let byte_cap =
      match chunk_bytes with
      | None -> max_int
      | Some b ->
          if b < 1 then invalid_arg "Json.fold_many: chunk_bytes must be positive"
          else b
    in
    {
      st = make_state s;
      cancel;
      on_error;
      chunk_size;
      byte_cap;
      finished;
      start = -1;
      from = -1;
      scanned = 0;
      declined = false;
      tried = 0;
      resume = -1;
      sc = scanner ();
      fault = None;
      index = -1;
      n = 0;
      bytes = 0;
      cut = false;
    }

  let create = make ~finished:true

  let incremental ?cancel ?chunk_size ?chunk_bytes ?on_error () =
    make ~finished:false ?cancel ?chunk_size ?chunk_bytes ?on_error ""

  let index r = r.index
  let cut r = r.cut
  let finish r = r.finished <- true

  (* Append [s], first dropping what precedes the document being read
     if it does not fit, with the capacity doubled to twice what is
     kept. [bol] may go negative: columns are [pos - bol + 1]. *)
  let feed r s =
    if r.finished then invalid_arg "Json.Reader.feed: the input is finished";
    let st = r.st and n = String.length s in
    if st.len + n > Bytes.length st.src then begin
      let keep = if r.start >= 0 then r.start else st.pos in
      let live = st.len - keep and cap = ref (max 4096 (Bytes.length st.src)) in
      while !cap < 2 * (live + n) do cap := 2 * !cap done;
      let src = if !cap > Bytes.length st.src then Bytes.create !cap else st.src in
      Bytes.blit st.src keep src 0 live;
      st.src <- src;
      st.len <- live;
      st.pos <- st.pos - keep;
      st.bol <- st.bol - keep;
      r.start <- (if r.start >= 0 then r.start - keep else -1);
      r.from <- r.from - keep;
      r.scanned <- r.scanned - keep;
      if r.resume >= 0 then r.resume <- r.resume - keep
    end;
    Bytes.blit_string s 0 st.src st.len n;
    st.len <- st.len + n

  (* Whether a line opening with '{' or '[' at [i] cuts off the
     document before it: the parser reads a value only after ',', '['
     or ':' and faults on a newline in a string, so it faults by [i].
     This is the resync's line rule, for brackets that never
     re-balance. *)
  let cut_off st sc i =
    let j = ref (i - 2) in
    sc.in_str
    || begin
         while String.contains " \t\r\n" (Bytes.get st.src !j) do decr j done;
         not (String.contains ",[:" (Bytes.get st.src !j))
       end

  (* Whether the reading of the document at [start] ends in the buffer:
     at a byte out of strings and brackets that cannot continue a
     literal or number, or at a line that cuts it off. The parser reads
     no further, so it reads the document as in the whole text; a number
     flush with the buffer waits for more digits. A line that opens with
     '{' or '[' but does not cut the document off is noted in
     [declined]. *)
  let ended r =
    let st = r.st in
    if r.from <> r.start then begin
      r.from <- r.start;
      r.sc <- scanner ();
      r.scanned <- r.start;
      r.declined <- false
    end;
    let sc = r.sc and i = ref r.scanned and stop = ref false in
    while (not !stop) && !i < st.len do
      let c = Bytes.unsafe_get st.src !i in
      if (c = '{' || c = '[') && !i > r.start && Bytes.unsafe_get st.src (!i - 1) = '\n'
      then begin
        stop := cut_off st sc !i;
        r.declined <- r.declined || not !stop
      end;
      scan sc c;
      incr i;
      stop := !stop || ((not sc.in_str) && sc.nest <= 0 && not (in_token c))
    done;
    r.scanned <- !i;
    !stop

  let read ?absorb st =
    let pos = st.pos and line = st.line and bol = st.bol in
    match absorb with
    | Some absorb when (try absorb st with Diagnostic.Parse_error _ -> false) ->
        Absorbed
    | _ ->
        st.pos <- pos;
        st.line <- line;
        st.bol <- bol;
        st.depth <- 0;
        Doc (parse_value st)

  (* Whether reading the held document, without building it, stops
     before the buffer's end, at its end or at a fault; the cursor stays
     where it is. The reading reads on from the latest separator of the
     document's own members or elements that the previous try passed,
     so a try reads the bytes fed since then and the member or element
     that ran into the end. *)
  let stops_short r =
    let st = r.st in
    let pos = st.pos and line = st.line and bol = st.bol in
    let mark i = r.resume <- i in
    r.tried <- st.len - r.start;
    (try
       if r.resume < 0 then skip_value ~mark st
       else begin
         let opening = Bytes.get st.src r.start in
         st.pos <- r.resume;
         st.depth <- 1;
         skip_elements ~mark st opening (if opening = '{' then '}' else ']')
       end
     with Diagnostic.Parse_error _ -> ());
    let short = st.pos < st.len in
    st.pos <- pos;
    st.line <- line;
    st.bol <- bol;
    st.depth <- 0;
    short

  let rec next ?absorb r =
    let st = r.st in
    match r.fault with
    | Some d -> skip ?absorb r d
    | None when r.start >= 0 -> document ?absorb r
    | None ->
        skip_ws st;
        if st.pos < st.len then begin
          Cancel.check r.cancel;
          r.index <- r.index + 1;
          r.start <- st.pos;
          r.tried <- 0;
          r.resume <- -1;
          document ?absorb r
        end
        else if r.finished then End
        else Await

  (* A document that starts in bytes an earlier document's scan has
     passed is read at once: faultless documents before it leave that
     scan where its own would be, and a fault's resync may cut at a line
     inside it. The reading counts unless it ran into the buffer's end;
     then the reader rewinds and scans from the document, which covers
     the bytes after it. So no byte is scanned more than twice.

     A document the scan holds past a line that opens with '{' or '['
     after a comma, a '[' or a colon ([declined]) may hold a fault that
     no line can cut off: the line is an element of a pretty-printed
     array or the rest of the feed after a fault. Such a document is
     tried each time its buffered bytes double, by a reading that builds
     nothing and reads on where the previous try stopped
     ([stops_short]). When it stops before the buffer's end, at the
     document's end or at a fault, the document is read as in the text,
     and a fault resyncs as in the text; when it runs into the end, the
     document waits. So the tries of a held document cost about one
     reading of it, and a document with no such line none. *)
  and document ?absorb r =
    let st = r.st and start = r.start and line = r.st.line and bol = r.st.bol in
    let at_once = (not r.finished) && r.from <> start && start < r.scanned in
    let held = not (r.finished || at_once || ended r) in
    if held && r.declined && r.tried = 0 then r.tried <- st.len - start;
    if held && not (r.declined && st.len - start >= 2 * r.tried && stops_short r) then
      Await
    else begin
      match
        Fsdata_obs.Metrics.time m_ns (fun () ->
            try Ok (read ?absorb st) with Diagnostic.Parse_error d -> Error d)
      with
      | _ when at_once && st.pos >= st.len ->
          st.pos <- start;
          st.line <- line;
          st.bol <- bol;
          r.scanned <- start;
          document ?absorb r
      | Ok item ->
          r.start <- -1;
          let len = st.pos - start in
          Fsdata_obs.Metrics.incr m_docs;
          Fsdata_obs.Metrics.add m_bytes len;
          r.n <- r.n + 1;
          r.bytes <- r.bytes + len;
          r.cut <- r.n >= r.chunk_size || r.bytes >= r.byte_cap;
          if r.cut then begin
            r.n <- 0;
            r.bytes <- 0
          end;
          item
      | Error d -> (
          match r.on_error with
          | None -> reraise_legacy d
          | Some _ ->
              r.sc <- seed_scanner st ~start;
              r.fault <- Some d;
              skip ?absorb r d)
    end

  (* Once its resync finds the next boundary or the input ends, report
     the malformed document with its global index and raw text. *)
  and skip ?absorb r d =
    let st = r.st and start = r.start in
    if not (resume_resync ~finished:r.finished st r.sc || r.finished) then Await
    else begin
      r.fault <- None;
      r.start <- -1;
      let skipped = String.trim (Bytes.sub_string st.src start (st.pos - start)) in
      Option.iter (fun h -> h (Diagnostic.with_index r.index d) ~skipped) r.on_error;
      next ?absorb r
    end
end

let fold_many ?cancel ?chunk_size ?chunk_bytes ?on_error f acc s =
  let r = Reader.create ?cancel ?chunk_size ?chunk_bytes ?on_error s in
  let rec loop acc chunk =
    match Reader.next r with
    | Reader.End -> if chunk = [] then acc else f acc (List.rev chunk)
    | Reader.Doc v ->
        if Reader.cut r then loop (f acc (List.rev (v :: chunk))) []
        else loop acc (v :: chunk)
    | Reader.Absorbed | Reader.Await ->
        (* nothing absorbs without [absorb], and a whole text awaits nothing *)
        assert false
  in
  loop acc []

let parse_many s =
  List.rev (fold_many (fun acc c -> List.rev_append c acc) [] s)

(* Raw lexer access for the walkers a [Reader] offers documents to
   (lib/core/shape_compile's decoders, the inference fold's token walk):
   the same state, token readers and error reporting as the generic
   parser, so their diagnostics are the parser's by construction. *)
module Raw = struct
  type nonrec state = state

  let make = make_state
  let offset st = st.pos
  let at_eof = at_eof
  let peek_char = peek_char

  (* Zero-allocation literal match: when the source bytes at the cursor
     are exactly [s], consume them and return true; otherwise leave the
     cursor untouched. [s] must not contain newlines (no line
     bookkeeping). *)
  let lit st s =
    let n = String.length s in
    st.pos + n <= st.len
    && begin
         let i = ref 0 in
         while
           !i < n
           && Bytes.unsafe_get st.src (st.pos + !i) = String.unsafe_get s !i
         do
           incr i
         done;
         if !i = n then begin
           st.pos <- st.pos + n;
           true
         end
         else false
       end
  (* [lit] for an object key: the quoted [name], when [name] needs no
     escape, so that the source bytes are exactly its JSON literal. *)
  let key st name =
    let n = String.length name in
    let src = st.src and p = st.pos in
    p + n + 2 <= st.len
    && Bytes.unsafe_get src p = '"'
    && Bytes.unsafe_get src (p + n + 1) = '"'
    && begin
         let i = ref 0 in
         while
           !i < n
           &&
           let c = String.unsafe_get name !i in
           c <> '"' && c <> '\\' && Char.code c >= 0x20
           && Bytes.unsafe_get src (p + 1 + !i) = c
         do
           incr i
         done;
         !i = n && (st.pos <- p + n + 2; true)
       end

  (* A key matched, then its colon: the key's number and the first
     character of its value *)
  let matched st i =
    skip_ws st;
    expect st ':';
    skip_ws st;
    (i lsl 8) lor Char.code (peek_char st)

  let next_value st =
    skip_ws st;
    peek_char st

  let colon st =
    skip_ws st;
    expect st ':';
    next_value st

  let literal st ~classify ~dates =
    match peek_char st with
    | '"' ->
        if classify then classify_string ~dates st
        else begin
          skip_string st;
          Primitive.Hint_string
        end
    | 't' -> parse_literal st "true" Primitive.Hint_bool
    | 'f' -> parse_literal st "false" Primitive.Hint_bool
    | 'n' -> parse_literal st "null" Primitive.Hint_null
    | '-' | '0' .. '9' -> if number_is_int st then Primitive.Hint_int else Primitive.Hint_float
    | c ->
        if at_eof st then error st "unexpected end of input"
        else error st "unexpected character %C" c

  let open_ st closing =
    enter st;
    st.pos <- st.pos + 1;
    skip_ws st;
    peek_char st = closing
    && begin
         st.pos <- st.pos + 1;
         leave st;
         true
       end

  let after st closing =
    skip_ws st;
    let c = peek_char st in
    if c = ',' then begin
      st.pos <- st.pos + 1;
      1
    end
    else if c = closing then begin
      st.pos <- st.pos + 1;
      leave st;
      0
    end
    else -1

  (* A key table: the names, and each name's index plus one at the first
     free place from its hash's, in a power-of-two array with at least
     four places per name (0 marks a free place); [skip] says whether
     [wanted] reads past a member whose key is no name *)
  type keys = { names : string array; places : int array; skip : bool }

  let[@inline] mix h c = (h * 31) + Char.code c

  (* The place a hash starts probing at: its high bits after a
     multiplication, which spreads keys that differ in a last digit *)
  let[@inline] place places h =
    ((h * 0x2545F4914F6CDD1D) lsr 20) land (Array.length places - 1)

  let keys ~skip names =
    let size = ref 16 in
    while !size < 4 * Array.length names do size := 2 * !size done;
    let places = Array.make !size 0 in
    Array.iteri
      (fun i name ->
        let j = ref (place places (String.fold_left mix 0 name)) in
        while places.(!j) <> 0 do j := (!j + 1) land (!size - 1) done;
        places.(!j) <- i + 1)
      names;
    { names; places; skip }

  let rec same_bytes src i name l =
    l = String.length name
    || (Bytes.unsafe_get src (i + l) = String.unsafe_get name l && same_bytes src i name (l + 1))

  (* The index of the name that is the source bytes [i] to [stop], or
     -1, probing the table from its place [j] *)
  let rec probe k src i stop j =
    match Array.unsafe_get k.places j with
    | 0 -> -1
    | p ->
        let name = Array.unsafe_get k.names (p - 1) in
        if String.length name = stop - i && same_bytes src i name 0 then p - 1
        else probe k src i stop ((j + 1) land (Array.length k.places - 1))

  let find k name =
    probe k (Bytes.unsafe_of_string name) 0 (String.length name)
      (place k.places (String.fold_left mix 0 name))

  (* The key at the cursor against the name at [from], then scanned once
     to its closing quote, hashed on the way, and probed in the table;
     a member whose key is no name is read past, its value by
     [skip_value], when the table says so *)
  let rec wanted st k ~from =
    skip_ws st;
    if from < Array.length k.names && key st (Array.unsafe_get k.names from) then
      matched st from
    else begin
      let start = st.pos in
      expect st '"';
      let src = st.src and len = st.len in
      let i = ref st.pos and h = ref 0 in
      while
        !i < len
        &&
        let c = Bytes.unsafe_get src !i in
        c <> '"' && c <> '\\' && Char.code c >= 0x20
      do
        h := mix !h (Bytes.unsafe_get src !i);
        incr i
      done;
      let plain = !i < len && Bytes.unsafe_get src !i = '"' in
      let slot = if plain then probe k src st.pos !i (place k.places !h) else -1 in
      if slot >= 0 then begin
        st.pos <- !i + 1;
        matched st slot
      end
      else if plain && k.skip then begin
        st.pos <- !i + 1;
        skip_ws st;
        expect st ':';
        skip_value st;
        next_wanted st k ~from
      end
      else begin
        st.pos <- start;
        -1
      end
    end

  and next_wanted st k ~from =
    match after st '}' with 1 -> wanted st k ~from | 0 -> -2 | _ -> -3

  let read_string st f =
    expect st '"';
    let start = st.pos in
    match plain_literal st with
    | -1 ->
        let s = parse_string_slow st in
        f s 0 (String.length s)
    | stop -> f (Bytes.unsafe_to_string st.src) start (stop - start)

  let seek st i = st.pos <- i
  let skip_value st = skip_value st
  let advance = advance
  let skip_ws = skip_ws
  let expect = expect
  let parse_string = parse_string
  let parse_number = parse_number
  let parse_value = parse_value
  let resync = resync
  let fail st msg = error st "%s" msg
end

(* ----- Printing ----- *)

(* Runs of bytes that need no escaping — all of them but the quote, the
   backslash and the control characters — are copied whole. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let flush start i = if i > start then Buffer.add_substring buf s start (i - start) in
  let rec go start i =
    if i = String.length s then flush start i
    else
      let c = String.unsafe_get s i in
      if c >= ' ' && c <> '"' && c <> '\\' then go start (i + 1)
      else begin
        flush start i;
        (match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\b' -> Buffer.add_string buf "\\b"
        | '\012' -> Buffer.add_string buf "\\f"
        | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      end
  in
  go 0 0;
  Buffer.add_char buf '"'

let float_to_json f =
  if Float.is_nan f || Float.is_integer f && Float.abs f < 1e16 then
    (* JSON has no NaN; print NaN as 0 like many serializers reject — we
       choose to fail loudly instead. *)
    if Float.is_nan f then invalid_arg "Json.to_string: cannot print NaN"
    else Printf.sprintf "%.1f" f
  else if Float.is_integer f then Printf.sprintf "%.0f" f
  else
    let shorter = Printf.sprintf "%.12g" f in
    if float_of_string shorter = f then shorter else Printf.sprintf "%.17g" f

let to_string ?indent ?escaped d =
  let buf = Buffer.create 256 in
  let newline_and_pad level =
    match indent with
    | None -> ()
    | Some n ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (n * level) ' ')
  in
  let rec go level (d : Data_value.t) =
    match d with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_json f)
    | String s -> (
        match escaped with
        | Some f -> (
            match f s with
            | Some literal -> Buffer.add_string buf literal
            | None -> escape_string buf s)
        | None -> escape_string buf s)
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            newline_and_pad (level + 1);
            go (level + 1) item)
          items;
        newline_and_pad level;
        Buffer.add_char buf ']'
    | Record (_, []) -> Buffer.add_string buf "{}"
    | Record (_, fields) ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            newline_and_pad (level + 1);
            escape_string buf k;
            Buffer.add_char buf ':';
            if indent <> None then Buffer.add_char buf ' ';
            go (level + 1) v)
          fields;
        newline_and_pad level;
        Buffer.add_char buf '}'
  in
  go 0 d;
  Buffer.contents buf

let pp ppf d = Fmt.string ppf (to_string d)

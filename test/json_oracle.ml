(* The generic JSON parser as it was before objects were collected in
   linear time: each member ran [List.remove_assoc] over the members
   before it, and every lookahead went through the boxed [peek]. Kept
   verbatim (minus its metrics and trace span) as the oracle for the
   differential properties in test_json.ml: the production parser must
   produce the same values, diagnostics and skipped texts. The string
   escaper at the end is likewise the per-character one the printer used
   before it copied clean runs whole. *)

open Fsdata_data

exception Parse_error of { line : int; column : int; message : string }

(* The parser reports errors as structured {!Diagnostic.t}s; this legacy
   exception is a thin compatibility wrapper the public entry points
   convert to, so pre-diagnostic handlers keep working unchanged. *)
let reraise_legacy (d : Diagnostic.t) =
  raise (Parse_error { line = d.line; column = d.column; message = d.message })

let legacy f = try f () with Diagnostic.Parse_error d -> reraise_legacy d

type state = {
  src : string;
  len : int;
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
  { src; len = String.length src; pos = 0; line = 1; bol = 0; depth = 0 }

let error st fmt =
  Diagnostic.error ~format:Diagnostic.Json ~line:st.line
    ~column:(st.pos - st.bol + 1) fmt

let enter st =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then
    error st "nesting deeper than %d levels" max_depth

let leave st = st.depth <- st.depth - 1

let peek st = if st.pos < st.len then Some st.src.[st.pos] else None

let advance st =
  (if st.pos < st.len && st.src.[st.pos] = '\n' then begin
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   end);
  st.pos <- st.pos + 1

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st "expected %C but found %C" c c'
  | None -> error st "expected %C but found end of input" c

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

let parse_string st =
  expect st '"';
  (* Fast path: a literal without escapes or control characters decodes
     to a substring of the source. Nothing in the scanned run can be a
     newline (those are control characters), so no line bookkeeping. *)
  let src = st.src and len = st.len in
  let start = st.pos in
  let i = ref start in
  let stop = ref '\000' in
  while
    !i < len
    &&
    let c = String.unsafe_get src !i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      stop := c;
      false
    end
    else true
  do
    incr i
  done;
  if !stop = '"' then begin
    st.pos <- !i + 1;
    String.sub src start (!i - start)
  end
  else parse_string_slow st

let parse_number st =
  (* Index-scanned for speed: none of the scanned characters can be a
     newline, so no line bookkeeping until the position is committed. *)
  let src = st.src and len = st.len in
  let start = st.pos in
  let i = ref start in
  let neg = !i < len && String.unsafe_get src !i = '-' in
  if neg then incr i;
  let is_digit j = j < len && src.[j] >= '0' && src.[j] <= '9' in
  let is_float = ref false in
  (* integer part: a lone '0', or a run starting with a nonzero digit *)
  (match if !i < len then String.unsafe_get src !i else '\000' with
  | '0' -> incr i
  | '1' .. '9' -> while is_digit !i do incr i done
  | _ ->
      st.pos <- !i;
      error st "invalid number");
  if !i < len && String.unsafe_get src !i = '.' then begin
    is_float := true;
    incr i;
    let d0 = !i in
    while is_digit !i do incr i done;
    if !i = d0 then begin
      st.pos <- !i;
      error st "expected digits after decimal point"
    end
  end;
  if !i < len && (src.[!i] = 'e' || src.[!i] = 'E') then begin
    is_float := true;
    incr i;
    if !i < len && (src.[!i] = '+' || src.[!i] = '-') then incr i;
    let d0 = !i in
    while is_digit !i do incr i done;
    if !i = d0 then begin
      st.pos <- !i;
      error st "expected digits in exponent"
    end
  end;
  let stop = !i in
  st.pos <- stop;
  if !is_float then
    Data_value.Float (float_of_string (String.sub src start (stop - start)))
  else begin
    let dig0 = if neg then start + 1 else start in
    if stop - dig0 <= 18 then begin
      (* at most 18 digits always fits a native int: accumulate without
         the substring + int_of_string round-trip *)
      let acc = ref 0 in
      for j = dig0 to stop - 1 do
        acc := (!acc * 10) + (Char.code (String.unsafe_get src j) - 48)
      done;
      Data_value.Int (if neg then - !acc else !acc)
    end
    else
      let text = String.sub src start (stop - start) in
      match int_of_string_opt text with
      | Some v -> Data_value.Int v
      | None -> Data_value.Float (float_of_string text)
  end

let parse_literal st word value =
  String.iter (fun c -> expect st c) word;
  value

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' -> parse_object st
  | Some '[' -> parse_array st
  | Some '"' -> Data_value.String (parse_string st)
  | Some 't' -> parse_literal st "true" (Data_value.Bool true)
  | Some 'f' -> parse_literal st "false" (Data_value.Bool false)
  | Some 'n' -> parse_literal st "null" Data_value.Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st "unexpected character %C" c

and parse_object st =
  enter st;
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    leave st;
    Data_value.Record (Data_value.json_record_name, [])
  end
  else begin
    let fields = ref [] in
    let rec members () =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      (* last binding wins on duplicate keys *)
      fields := (key, v) :: List.remove_assoc key !fields;
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          members ()
      | Some '}' -> advance st
      | Some c -> error st "expected ',' or '}' in object but found %C" c
      | None -> error st "unterminated object"
    in
    members ();
    leave st;
    Data_value.Record (Data_value.json_record_name, List.rev !fields)
  end

and parse_array st =
  enter st;
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    leave st;
    Data_value.List []
  end
  else begin
    let items = ref [] in
    let rec elements () =
      let v = parse_value st in
      items := v :: !items;
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          skip_ws st;
          elements ()
      | Some ']' -> advance st
      | Some c -> error st "expected ',' or ']' in array but found %C" c
      | None -> error st "unterminated array"
    in
    elements ();
    leave st;
    Data_value.List (List.rev !items)
  end

let parse s =
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

(* Resynchronize after a malformed document starting at [start]: advance
   the state to the most plausible start of the next top-level document,
   so one corrupt document does not consume the rest of the stream. Two
   boundary rules, checked per character:

   - structural: a '}' or ']' outside any string literal that returns
     the bracket depth (seeded by rescanning from [start]) to zero
     closes the document — this recovers balanced-but-invalid documents
     like [{"a": tru}] in full;
   - line-based: a newline whose very next character is '{' or '[' (a
     document opener at column 1) starts a fresh document — the
     newline-delimited-corpus fallback for truncated documents whose
     brackets never re-balance.

   Returns [true] when a boundary was found and [false] when the rest of
   the input was consumed (the corrupt document was the last one). The
   scan advances through {!advance} so line/bol bookkeeping — and hence
   the positions of later diagnostics — stays exact. *)
let resync st ~start =
  let depth = ref 0 and in_str = ref false and esc = ref false in
  let scan c =
    if !in_str then begin
      if !esc then esc := false
      else if c = '\\' then esc := true
      else if c = '"' then in_str := false
    end
    else
      match c with
      | '"' -> in_str := true
      | '{' | '[' -> incr depth
      | '}' | ']' -> decr depth
      | _ -> ()
  in
  for i = start to min st.pos st.len - 1 do
    scan st.src.[i]
  done;
  let found = ref false in
  while (not !found) && st.pos < st.len do
    let c = st.src.[st.pos] in
    if
      c = '\n' && st.pos + 1 < st.len
      && (st.src.[st.pos + 1] = '{' || st.src.[st.pos + 1] = '[')
    then begin
      advance st;
      found := true
    end
    else begin
      scan c;
      advance st;
      if (c = '}' || c = ']') && (not !in_str) && !depth <= 0 then found := true
    end
  done;
  !found

let fold_many ?(cancel = Cancel.never) ?(chunk_size = 256) ?chunk_bytes ?on_error
    f acc s =
  if chunk_size < 1 then invalid_arg "Json.fold_many: chunk_size must be positive";
  let byte_cap =
    match chunk_bytes with
    | None -> max_int
    | Some b ->
        if b < 1 then invalid_arg "Json.fold_many: chunk_bytes must be positive"
        else b
  in
  let st = make_state s in
  let rec loop acc chunk n bytes idx =
    skip_ws st;
    if st.pos >= st.len then if n = 0 then acc else f acc (List.rev chunk)
    else begin
      Cancel.check cancel;
      let mark = st.pos in
      match parse_value st with
      | v ->
          let bytes = bytes + (st.pos - mark) in
          (* cut the chunk at whichever cap fills first: the document
             count, or the consumed source bytes (so huge documents keep
             chunk residency bounded) *)
          if n + 1 >= chunk_size || bytes >= byte_cap then
            loop (f acc (List.rev (v :: chunk))) [] 0 0 (idx + 1)
          else loop acc (v :: chunk) (n + 1) bytes (idx + 1)
      | exception Diagnostic.Parse_error d -> (
          match on_error with
          | None -> reraise_legacy d
          | Some handler ->
              (* skip the malformed document, report it with its global
                 index and raw text, and keep going *)
              ignore (resync st ~start:mark);
              let skipped = String.trim (String.sub s mark (st.pos - mark)) in
              handler (Diagnostic.with_index idx d) ~skipped;
              loop acc chunk n bytes (idx + 1))
    end
  in
  loop acc [] 0 0 0

(* ----- Printing ----- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

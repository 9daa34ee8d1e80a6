type tree = {
  name : string;
  attributes : (string * string) list;
  children : node list;
}

and node = Element of tree | Text of string | Cdata of string

exception Parse_error of { line : int; column : int; message : string }

(* The parser reports faults as structured {!Diagnostic.t}s; the legacy
   exception above is the thin compatibility wrapper the public entry
   points convert to. *)
let reraise_legacy (d : Diagnostic.t) =
  raise (Parse_error { line = d.line; column = d.column; message = d.message })

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
  mutable depth : int;
}

(* bound element nesting so adversarial inputs cannot overflow the stack *)
let max_depth = 10_000

let make_state src =
  { src; len = String.length src; pos = 0; line = 1; bol = 0; depth = 0 }

let error st fmt =
  Diagnostic.error ~format:Diagnostic.Xml ~line:st.line
    ~column:(st.pos - st.bol + 1) fmt

let peek st = if st.pos < st.len then Some st.src.[st.pos] else None
let peek_at st off = if st.pos + off < st.len then Some st.src.[st.pos + off] else None

let advance st =
  (if st.pos < st.len && st.src.[st.pos] = '\n' then begin
     st.line <- st.line + 1;
     st.bol <- st.pos + 1
   end);
  st.pos <- st.pos + 1

let advance_n st n = for _ = 1 to n do advance st done

let looking_at st s =
  let n = String.length s in
  st.pos + n <= st.len && String.sub st.src st.pos n = s

let skip_ws st =
  let continue = ref true in
  while !continue do
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') -> advance st
    | _ -> continue := false
  done

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  || Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

let parse_name st =
  match peek st with
  | Some c when is_name_start c ->
      let start = st.pos in
      while (match peek st with Some c -> is_name_char c | None -> false) do
        advance st
      done;
      String.sub st.src start (st.pos - start)
  | Some c -> error st "expected a name but found %C" c
  | None -> error st "expected a name but found end of input"

(* Decode a character or entity reference starting at '&'. *)
let parse_entity st buf =
  advance st (* '&' *);
  let start = st.pos in
  while (match peek st with Some ';' | None -> false | Some _ -> true) do
    advance st
  done;
  if peek st <> Some ';' then error st "unterminated entity reference";
  let name = String.sub st.src start (st.pos - start) in
  advance st (* ';' *);
  let add_scalar u =
    (* Reuse the JSON module's UTF-8 encoder would create a cycle of
       convenience only; inline the encoding here. *)
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
  in
  match name with
  | "amp" -> Buffer.add_char buf '&'
  | "lt" -> Buffer.add_char buf '<'
  | "gt" -> Buffer.add_char buf '>'
  | "quot" -> Buffer.add_char buf '"'
  | "apos" -> Buffer.add_char buf '\''
  | _ ->
      if String.length name > 1 && name.[0] = '#' then begin
        let num =
          if name.[1] = 'x' || name.[1] = 'X' then
            int_of_string_opt ("0x" ^ String.sub name 2 (String.length name - 2))
          else int_of_string_opt (String.sub name 1 (String.length name - 1))
        in
        match num with
        | Some u when u > 0 && u <= 0x10FFFF -> add_scalar u
        | _ -> error st "invalid character reference &%s;" name
      end
      else error st "unknown entity &%s;" name

let parse_attr_value st =
  let quote =
    match peek st with
    | Some (('"' | '\'') as q) ->
        advance st;
        q
    | _ -> error st "expected quoted attribute value"
  in
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> error st "unterminated attribute value"
    | Some c when c = quote -> advance st
    | Some '&' ->
        parse_entity st buf;
        loop ()
    | Some '<' -> error st "'<' is not allowed in attribute values"
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ();
  Buffer.contents buf

let skip_comment st =
  advance_n st 4 (* <!-- *);
  let rec loop () =
    if looking_at st "-->" then advance_n st 3
    else if st.pos >= st.len then error st "unterminated comment"
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let skip_pi st =
  advance_n st 2 (* <? *);
  let rec loop () =
    if looking_at st "?>" then advance_n st 2
    else if st.pos >= st.len then error st "unterminated processing instruction"
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

let skip_doctype st =
  (* Skip <!DOCTYPE ...>, handling nested [...] internal subsets. *)
  advance_n st 2 (* "<!" *);
  let depth = ref 1 in
  let in_subset = ref false in
  while !depth > 0 do
    match peek st with
    | None -> error st "unterminated DOCTYPE"
    | Some '[' ->
        in_subset := true;
        advance st
    | Some ']' ->
        in_subset := false;
        advance st
    | Some '<' ->
        if not !in_subset then incr depth;
        advance st
    | Some '>' ->
        if not !in_subset then decr depth;
        advance st
    | Some _ -> advance st
  done

let parse_cdata st =
  advance_n st 9 (* <![CDATA[ *);
  let start = st.pos in
  let rec loop () =
    if looking_at st "]]>" then begin
      let s = String.sub st.src start (st.pos - start) in
      advance_n st 3;
      s
    end
    else if st.pos >= st.len then error st "unterminated CDATA section"
    else begin
      advance st;
      loop ()
    end
  in
  loop ()

(* Attribute count from which duplicate checks hash, see [attrs]. *)
let wide_tag = 32

let rec parse_element st =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then
    error st "elements nested deeper than %d levels" max_depth;
  advance st (* '<' *);
  let name = parse_name st in
  (* Duplicates are rejected as soon as the second value is read. The
     names seen so far are [acc]'s, scanned pairwise while the tag is
     narrow; from [wide_tag] attributes on they are also in [seen], so
     the check stays linear. *)
  let rec attrs acc n seen =
    skip_ws st;
    match peek st with
    | Some '/' | Some '>' -> List.rev acc
    | Some c when is_name_start c ->
        let line = st.line and column = st.pos - st.bol + 1 in
        let attr_name = parse_name st in
        (* an element is a record with its attributes and its body as
           fields, so the body's field name is no attribute's *)
        if String.equal attr_name Data_value.body_field then
          Diagnostic.error ~format:Diagnostic.Xml ~line ~column
            "attribute %s is reserved for the element body" attr_name;
        skip_ws st;
        (match peek st with
        | Some '=' -> advance st
        | _ -> error st "expected '=' after attribute name %s" attr_name);
        skip_ws st;
        let value = parse_attr_value st in
        let duplicate =
          match seen with
          | Some seen -> Hashtbl.mem seen attr_name
          | None -> List.mem_assoc attr_name acc
        in
        if duplicate then error st "duplicate attribute %s" attr_name;
        let acc = (attr_name, value) :: acc in
        let seen =
          match seen with
          | Some tbl ->
              Hashtbl.add tbl attr_name ();
              seen
          | None when n + 1 < wide_tag -> None
          | None ->
              let tbl = Hashtbl.create (2 * wide_tag) in
              List.iter (fun (k, _) -> Hashtbl.add tbl k ()) acc;
              Some tbl
        in
        attrs acc (n + 1) seen
    | Some c -> error st "unexpected character %C in element tag" c
    | None -> error st "unterminated element tag"
  in
  let attributes = attrs [] 0 None in
  match peek st with
  | Some '/' ->
      advance st;
      (match peek st with
      | Some '>' -> advance st
      | _ -> error st "expected '>' after '/'");
      st.depth <- st.depth - 1;
      { name; attributes; children = [] }
  | Some '>' ->
      advance st;
      let children = parse_content st name in
      st.depth <- st.depth - 1;
      { name; attributes; children }
  | _ -> error st "malformed element tag"

and parse_content st element_name =
  let nodes = ref [] in
  let buf = Buffer.create 16 in
  let flush_text () =
    if Buffer.length buf > 0 then begin
      let s = Buffer.contents buf in
      Buffer.clear buf;
      if String.trim s <> "" then nodes := Text s :: !nodes
    end
  in
  let rec loop () =
    if st.pos >= st.len then error st "unterminated element <%s>" element_name
    else if looking_at st "</" then begin
      flush_text ();
      advance_n st 2;
      let close = parse_name st in
      if close <> element_name then
        error st "mismatched closing tag </%s> for <%s>" close element_name;
      skip_ws st;
      match peek st with
      | Some '>' -> advance st
      | _ -> error st "expected '>' in closing tag"
    end
    else if looking_at st "<!--" then begin
      flush_text ();
      skip_comment st;
      loop ()
    end
    else if looking_at st "<![CDATA[" then begin
      flush_text ();
      nodes := Cdata (parse_cdata st) :: !nodes;
      loop ()
    end
    else if looking_at st "<?" then begin
      flush_text ();
      skip_pi st;
      loop ()
    end
    else if peek st = Some '<' then begin
      flush_text ();
      (match peek_at st 1 with
      | Some c when is_name_start c -> nodes := Element (parse_element st) :: !nodes
      | _ -> error st "unexpected markup");
      loop ()
    end
    else if peek st = Some '&' then begin
      parse_entity st buf;
      loop ()
    end
    else begin
      Buffer.add_char buf (match peek st with Some c -> c | None -> assert false);
      advance st;
      loop ()
    end
  in
  loop ();
  List.rev !nodes

let parse_prolog st =
  let rec loop () =
    skip_ws st;
    if looking_at st "<?" then begin
      skip_pi st;
      loop ()
    end
    else if looking_at st "<!--" then begin
      skip_comment st;
      loop ()
    end
    else if looking_at st "<!" then begin
      skip_doctype st;
      loop ()
    end
  in
  loop ()

(* Observability: both {!parse} and {!parse_diag} (which calls {!parse})
   are counted once per document here (docs/OBSERVABILITY.md). *)
let m_docs = Fsdata_obs.Metrics.counter "parse.xml.documents"
let m_bytes = Fsdata_obs.Metrics.counter "parse.xml.bytes"
let m_ns = Fsdata_obs.Metrics.counter "parse.xml.ns"

let parse s =
  Fsdata_obs.Trace.with_span "parse.xml" @@ fun () ->
  Fsdata_obs.Metrics.incr m_docs;
  Fsdata_obs.Metrics.add m_bytes (String.length s);
  Fsdata_obs.Metrics.time m_ns @@ fun () ->
  try
    let st = make_state s in
    parse_prolog st;
    skip_ws st;
    if peek st <> Some '<' then error st "expected root element";
    let root = parse_element st in
    (* trailing comments/PIs/whitespace are allowed *)
    let rec trailer () =
      skip_ws st;
      if looking_at st "<!--" then begin
        skip_comment st;
        trailer ()
      end
      else if looking_at st "<?" then begin
        skip_pi st;
        trailer ()
      end
      else if st.pos < st.len then error st "trailing content after root element"
    in
    trailer ();
    root
  with Diagnostic.Parse_error d -> reraise_legacy d

let parse_diag s =
  match parse s with
  | v -> Ok v
  | exception Parse_error { line; column; message } ->
      Error (Diagnostic.make ~format:Diagnostic.Xml ~line ~column message)

let parse_result s =
  match parse_diag s with
  | Ok v -> Ok v
  | Error d -> Error (Diagnostic.message_of d)

let text_content tree =
  let buf = Buffer.create 16 in
  let rec go node =
    match node with
    | Text s -> Buffer.add_string buf s
    | Cdata s -> Buffer.add_string buf s
    | Element t -> List.iter go t.children
  in
  List.iter go tree.children;
  Buffer.contents buf

let to_data ?(convert_primitives = true) tree =
  let conv s =
    if convert_primitives then fst (Primitive.to_value s) else Data_value.String s
  in
  let rec element t =
    let attrs = List.map (fun (k, v) -> (k, conv v)) t.attributes in
    let child_elements =
      List.filter_map (function Element e -> Some e | _ -> None) t.children
    in
    let body =
      match child_elements with
      | [] ->
          let text = String.trim (text_content t) in
          if text = "" then [] else [ (Data_value.body_field, conv text) ]
      | elements ->
          (* Mixed-content text is dropped (Section 6.3: raw XElement access
             is the escape hatch in F# Data; we expose [text_content]). *)
          [ (Data_value.body_field, Data_value.List (List.map element elements)) ]
    in
    Data_value.Record (t.name, attrs @ body)
  in
  element tree

(* ----- Serialization ----- *)

let escape_text buf s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | c -> Buffer.add_char buf c)
    s

let escape_attr buf s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let to_string ?indent tree =
  let buf = Buffer.create 256 in
  let pad level =
    match indent with
    | None -> ()
    | Some n ->
        if Buffer.length buf > 0 then Buffer.add_char buf '\n';
        Buffer.add_string buf (String.make (n * level) ' ')
  in
  let rec element level t =
    pad level;
    Buffer.add_char buf '<';
    Buffer.add_string buf t.name;
    List.iter
      (fun (k, v) ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        escape_attr buf v;
        Buffer.add_char buf '"')
      t.attributes;
    match t.children with
    | [] -> Buffer.add_string buf "/>"
    | children ->
        Buffer.add_char buf '>';
        let has_elements =
          List.exists (function Element _ -> true | _ -> false) children
        in
        List.iter
          (fun node ->
            match node with
            | Text s -> escape_text buf s
            | Cdata s ->
                Buffer.add_string buf "<![CDATA[";
                Buffer.add_string buf s;
                Buffer.add_string buf "]]>"
            | Element e -> element (level + 1) e)
          children;
        if has_elements then pad level;
        Buffer.add_string buf "</";
        Buffer.add_string buf t.name;
        Buffer.add_char buf '>'
  in
  element 0 tree;
  Buffer.contents buf

let pp ppf t = Fmt.string ppf (to_string t)

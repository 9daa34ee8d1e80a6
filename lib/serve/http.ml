(* Hand-rolled HTTP/1.1 subset; see http.mli for scope. *)

(* ----- readers ----- *)

(* A reader holds the unconsumed tail of the stream plus a refill
   function; [""] from refill means end of stream. Reads from sockets
   propagate [Unix_error] (in particular EAGAIN/EWOULDBLOCK when a
   receive timeout is set on the fd) out of [refill]; an expired
   deadline surfaces as [Deadline.Expired]. [refill] is a mutable field
   only to tie the recursive knot with the deadline the reader itself
   carries. *)
type reader = {
  mutable refill : unit -> string;
  mutable pending : string;
  mutable pos : int;  (* consumed prefix of [pending] *)
  mutable deadline : Deadline.t;
}

let set_deadline r d = r.deadline <- d

let reader_of_fd ?fault fd =
  let buf = Bytes.create 8192 in
  let r = { refill = (fun () -> ""); pending = ""; pos = 0; deadline = Deadline.never } in
  let rec refill () =
    (* The deadline is absolute, so a peer trickling one byte per
       receive-timeout window (slowloris) still runs out of time: each
       refill both checks expiry and shrinks the socket timeout to the
       time actually left. *)
    Deadline.check r.deadline;
    (match Deadline.remaining_seconds r.deadline with
    | s when s = infinity -> ()
    | s -> (
        try Unix.setsockopt_float fd Unix.SO_RCVTIMEO (Float.max 0.001 s)
        with Unix.Unix_error _ | Invalid_argument _ -> ()));
    match Fault_net.read fault fd buf 0 (Bytes.length buf) with
    | 0 -> ""
    | n -> Bytes.sub_string buf 0 n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
  in
  r.refill <- refill;
  r

let reader_of_string s =
  { refill = (fun () -> ""); pending = s; pos = 0; deadline = Deadline.never }

let available r = String.length r.pending - r.pos

(* Append one refill's worth of bytes; false at end of stream. *)
let grow r =
  match r.refill () with
  | "" -> false
  | more ->
      r.pending <-
        (if r.pos = 0 then r.pending ^ more
         else String.sub r.pending r.pos (available r) ^ more);
      if r.pos <> 0 then r.pos <- 0;
      true

(* ----- request parsing ----- *)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  version : [ `Http_1_0 | `Http_1_1 ];
  headers : (string * string) list;
  body : string;
}

type limits = {
  max_request_line : int;
  max_header_count : int;
  max_header_line : int;
  max_body : int;
}

let default_limits =
  {
    max_request_line = 8 * 1024;
    max_header_count = 64;
    max_header_line = 8 * 1024;
    max_body = 64 * 1024 * 1024;
  }

type error = { status : int; reason : string }

exception Bad of error

let bad status reason = raise (Bad { status; reason })

(* Read up to and including "\n" (tolerating bare LF as well as CRLF,
   like most servers); the returned line has the terminator stripped.
   [None] at end of stream with nothing buffered. *)
let read_line ~max_len r =
  let find_nl from = String.index_from_opt r.pending from '\n' in
  let rec go scanned =
    match find_nl (r.pos + scanned) with
    | Some i ->
        if i - r.pos > max_len then bad 431 "header or request line too long";
        let stop = if i > r.pos && r.pending.[i - 1] = '\r' then i - 1 else i in
        let line = String.sub r.pending r.pos (stop - r.pos) in
        r.pos <- i + 1;
        Some line
    | None ->
        if available r > max_len then bad 431 "header or request line too long";
        let before = available r in
        if grow r then go before
        else if available r = 0 then None
        else bad 400 "truncated request: missing line terminator"
  in
  go 0

let read_exact r n =
  while available r < n && grow r do
    ()
  done;
  if available r < n then bad 400 "truncated body: peer closed mid-request";
  let s = String.sub r.pending r.pos n in
  r.pos <- r.pos + n;
  s

let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char buf ' '
    | '%' when !i + 2 < n && hex_value s.[!i + 1] >= 0 && hex_value s.[!i + 2] >= 0 ->
        Buffer.add_char buf
          (Char.chr ((hex_value s.[!i + 1] * 16) + hex_value s.[!i + 2]));
        i := !i + 2
    | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let parse_query q =
  if q = "" then []
  else
    String.split_on_char '&' q
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (percent_decode kv, "")
             | Some i ->
                 Some
                   ( percent_decode (String.sub kv 0 i),
                     percent_decode
                       (String.sub kv (i + 1) (String.length kv - i - 1)) ))

let split_target target =
  match String.index_opt target '?' with
  | None -> (percent_decode target, [])
  | Some i ->
      ( percent_decode (String.sub target 0 i),
        parse_query (String.sub target (i + 1) (String.length target - i - 1)) )

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; version ] ->
      if meth = "" || target = "" then bad 400 "malformed request line";
      let version =
        match version with
        | "HTTP/1.1" -> `Http_1_1
        | "HTTP/1.0" -> `Http_1_0
        | _ -> bad 505 (Printf.sprintf "unsupported protocol %S" version)
      in
      let path, query = split_target target in
      (meth, path, query, version)
  | _ -> bad 400 "malformed request line"

let parse_header line =
  match String.index_opt line ':' with
  | None | Some 0 -> bad 400 (Printf.sprintf "malformed header line %S" line)
  | Some i ->
      let name = String.lowercase_ascii (String.sub line 0 i) in
      let value =
        String.trim (String.sub line (i + 1) (String.length line - i - 1))
      in
      if String.exists (fun c -> c = ' ' || c = '\t') name then
        bad 400 "whitespace in header name";
      (name, value)

let find_header headers name =
  List.assoc_opt (String.lowercase_ascii name) headers

let header req name = find_header req.headers name
let query_param req name = List.assoc_opt name req.query

let keep_alive req =
  let conn =
    Option.map String.lowercase_ascii (header req "connection")
  in
  match req.version with
  | `Http_1_1 -> conn <> Some "close"
  | `Http_1_0 -> conn = Some "keep-alive"

(* A body deliberately left on the wire: [remaining] declared bytes not
   yet pulled off [br]. *)
type body_rest = { br : reader; mutable remaining : int }

let body_remaining rest = rest.remaining

let read_body_chunk rest =
  if rest.remaining = 0 then ""
  else begin
    let r = rest.br in
    if available r = 0 && not (grow r) then
      bad 400 "truncated body: peer closed mid-request";
    let n = Stdlib.min (available r) rest.remaining in
    let s = String.sub r.pending r.pos n in
    r.pos <- r.pos + n;
    rest.remaining <- rest.remaining - n;
    s
  end

let read_body_all rest =
  let buf = Buffer.create (Stdlib.min rest.remaining 65536) in
  let rec go () =
    match read_body_chunk rest with
    | "" -> Buffer.contents buf
    | s ->
        Buffer.add_string buf s;
        go ()
  in
  go ()

let read_request_stream ?(limits = default_limits) ?reserve
    ?(stream_over = max_int) r =
  (* Distinguish "peer closed / went idle between requests" (a normal
     keep-alive ending: Ok None) from a fault mid-request (an error the
     peer should hear about). [started] flips once the request line is
     in hand. *)
  let started = ref false in
  let parse_from line =
    started := true;
    let meth, path, query, version = parse_request_line line in
    let rec read_headers acc n =
      if n > limits.max_header_count then bad 431 "too many headers";
      match read_line ~max_len:limits.max_header_line r with
      | None -> bad 400 "truncated request: missing blank line"
      | Some "" -> List.rev acc
      | Some line -> read_headers (parse_header line :: acc) (n + 1)
    in
    let headers = read_headers [] 0 in
    if find_header headers "transfer-encoding" <> None then
      bad 501 "transfer-encoding is not supported; send Content-Length";
    (* A client-supplied deadline must govern the body bytes too, so
       tighten the reader before the body is read (the server re-derives
       the same minimum for the handler). Malformed values are ignored
       here and rejected with 400 by the server once the request is in
       hand. *)
    (match find_header headers "x-fsdata-deadline-ms" with
    | Some v -> (
        match int_of_string_opt (String.trim v) with
        | Some ms when ms > 0 ->
            r.deadline <- Deadline.min r.deadline (Deadline.after_ms ms)
        | _ -> ())
    | None -> ());
    let body, rest =
      match find_header headers "content-length" with
      | None -> ("", None)
      | Some v -> (
          match int_of_string_opt (String.trim v) with
          | None ->
              bad 400 (Printf.sprintf "malformed Content-Length %S" v)
          | Some n when n < 0 ->
              bad 400 (Printf.sprintf "malformed Content-Length %S" v)
          | Some n when n > limits.max_body ->
              bad 413
                (Printf.sprintf "body of %d bytes exceeds the %d-byte limit" n
                   limits.max_body)
          | Some n ->
              (* admission control happens on the declared length,
                 before a single body byte is buffered *)
              (match reserve with
              | Some f when n > 0 && not (f n) ->
                  bad 503 "in-flight body budget exhausted"
              | _ -> ());
              if n > stream_over then ("", Some { br = r; remaining = n })
              else (read_exact r n, None))
    in
    ({ meth; path; query; version; headers; body }, rest)
  in
  try
    match read_line ~max_len:limits.max_request_line r with
    | None -> Ok None
    | Some "" -> (
        (* tolerate one stray blank line between pipelined requests *)
        match read_line ~max_len:limits.max_request_line r with
        | None -> Ok None
        | Some line -> Ok (Some (parse_from line)))
    | Some line -> Ok (Some (parse_from line))
  with
  | Bad e -> Error e
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      (* a partial request line left in the buffer is a started request
         too: a slowloris peer stalling mid-line hears 408, only a truly
         idle keep-alive connection is closed silently *)
      if !started || available r > 0 then
        Error { status = 408; reason = "request timed out" }
      else Ok None
  | Deadline.Expired ->
      if !started || available r > 0 then
        Error { status = 408; reason = "request timed out" }
      else Ok None

let read_request ?limits r =
  (* [stream_over] defaults to [max_int], so the rest is always [None] *)
  match read_request_stream ?limits r with
  | Ok (Some (req, _)) -> Ok (Some req)
  | Ok None -> Ok None
  | Error _ as e -> e

(* ----- responses ----- *)

type response = {
  status : int;
  resp_headers : (string * string) list;
  content_type : string;
  resp_body : string;
}

let response ?(headers = []) ?(content_type = "application/json") ~status body =
  { status; resp_headers = headers; content_type; resp_body = body }

let status_reason = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 406 -> "Not Acceptable"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Content Too Large"
  | 422 -> "Unprocessable Content"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | 505 -> "HTTP Version Not Supported"
  | _ -> "Unknown"

let serialize_response ?(head = false) ~keep_alive resp =
  let buf = Buffer.create (String.length resp.resp_body + 256) in
  Buffer.add_string buf
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" resp.status (status_reason resp.status));
  Buffer.add_string buf ("content-type: " ^ resp.content_type ^ "\r\n");
  Buffer.add_string buf
    (Printf.sprintf "content-length: %d\r\n" (String.length resp.resp_body));
  Buffer.add_string buf
    (if keep_alive then "connection: keep-alive\r\n" else "connection: close\r\n");
  List.iter
    (fun (k, v) -> Buffer.add_string buf (k ^ ": " ^ v ^ "\r\n"))
    resp.resp_headers;
  Buffer.add_string buf "\r\n";
  if not head then Buffer.add_string buf resp.resp_body;
  Buffer.contents buf

(** A hand-rolled HTTP/1.1 subset over [Unix], sufficient for the
    inference service and free of new dependencies (the container ships
    no http libraries — ROADMAP "HTTP serving mode").

    Supported: request parsing with size limits, percent-decoded paths
    and query strings, [Content-Length] bodies, keep-alive (HTTP/1.1
    default, HTTP/1.0 opt-in) and [Connection: close]. Out of scope, and
    rejected with the proper status: [Transfer-Encoding] bodies (501)
    and unknown protocol versions (505).

    The parser reads from a {!reader}, an abstraction over a buffered
    byte source, so the unit tests drive it with in-memory strings and
    the server with sockets — same code path either way. *)

(** {1 Readers} *)

type reader

val reader_of_fd : ?fault:Fault_net.t -> Unix.file_descr -> reader
(** Buffered reads from a socket or file. A receive timeout configured
    on the fd ([SO_RCVTIMEO]) surfaces as [Unix_error (EAGAIN | EWOULDBLOCK)]
    from the underlying [read]; {!read_request} maps it to 408 or to a
    clean end-of-stream depending on whether a request was underway.
    [EINTR] is retried transparently. With [fault], all reads go
    through the {!Fault_net} shim (chaos tests only). *)

val set_deadline : reader -> Deadline.t -> unit
(** Arm the reader with an absolute deadline: every subsequent refill
    first checks it (raising {!Deadline.Expired} once past — mapped by
    {!read_request} like a receive timeout) and then shrinks the fd's
    [SO_RCVTIMEO] to the time remaining, so a peer trickling bytes
    cannot extend a request past its deadline. Readers start with
    {!Deadline.never}. *)

val reader_of_string : string -> reader
(** The whole stream up front; used by the parser unit tests and capable
    of holding several pipelined requests. *)

(** {1 Requests} *)

type request = {
  meth : string;  (** verb as sent, e.g. ["GET"] — never decoded *)
  path : string;  (** percent-decoded path component of the target *)
  query : (string * string) list;
      (** decoded query parameters in order of appearance *)
  version : [ `Http_1_0 | `Http_1_1 ];
  headers : (string * string) list;
      (** names lowercased, values trimmed, in order of appearance *)
  body : string;
}

type limits = {
  max_request_line : int;  (** bytes, request line incl. target *)
  max_header_count : int;
  max_header_line : int;  (** bytes per header line *)
  max_body : int;  (** bytes of declared [Content-Length] *)
}

val default_limits : limits
(** 8 KiB request line, 64 headers of 8 KiB each, 64 MiB body. *)

type error = { status : int; reason : string }
(** A request that could not be parsed, with the response status that
    should be sent before closing the connection (400, 408, 413, 431,
    501, 505 — or 503 when admission control refused the body). *)

exception Bad of error
(** How parse failures travel inside the reader functions.
    {!read_request} and {!read_request_stream} catch it and return it
    as [Error]; it escapes only from the {!body_rest} readers, whose
    caller (the request handler) is past the parse phase. *)

val read_request : ?limits:limits -> reader -> (request option, error) result
(** Read and parse one request. [Ok None] means the peer closed (or went
    idle past the receive timeout) {e between} requests — the normal end
    of a keep-alive connection, nothing to respond to. [Error _] means
    the connection is in an unknown state: respond with [error.status]
    and close. *)

type body_rest
(** A request body deliberately left on the wire by
    {!read_request_stream}: the declared bytes are still unread. The
    connection cannot serve another request until it is consumed. *)

val read_request_stream :
  ?limits:limits ->
  ?reserve:(int -> bool) ->
  ?stream_over:int ->
  reader ->
  ((request * body_rest option) option, error) result
(** {!read_request} generalized for the server: [reserve], when given,
    is called with the declared [Content-Length] {e before any body
    byte is read} — returning [false] rejects the request with 503
    ("in-flight body budget exhausted"), the server's admission
    control. Bodies larger than [stream_over] (default [max_int]) are
    not buffered: the request comes back with [body = ""] and a
    {!body_rest} to pull incrementally. A well-formed
    [X-Fsdata-Deadline-Ms] header tightens the reader deadline before
    the body is read, so a client budget cuts slow body bytes too;
    malformed values are left in the request for the server to
    reject. *)

val body_remaining : body_rest -> int
(** Declared body bytes not yet consumed. *)

val read_body_chunk : body_rest -> string
(** The next chunk of the body, at most one buffered read's worth;
    [""] once the declared length is consumed. Raises like the header
    reads: [Bad] 400 if the peer closes mid-body, [Unix_error] on
    receive timeout, {!Deadline.Expired} past the reader deadline. *)

val read_body_all : body_rest -> string
(** Drain the rest of the body into one string. *)

val header : request -> string -> string option
(** Case-insensitive header lookup (first occurrence). *)

val query_param : request -> string -> string option
(** First query parameter with the given name. *)

val keep_alive : request -> bool
(** Whether the protocol expects the connection to stay open after the
    response: HTTP/1.1 unless [Connection: close], HTTP/1.0 only with
    [Connection: keep-alive]. *)

val percent_decode : string -> string
(** Decode [%XX] escapes and [+] as space; malformed escapes are kept
    verbatim. *)

(** {1 Responses} *)

type response = {
  status : int;
  resp_headers : (string * string) list;  (** extra headers *)
  content_type : string;
  resp_body : string;
}

val response :
  ?headers:(string * string) list ->
  ?content_type:string ->
  status:int ->
  string ->
  response
(** Default content type is [application/json]. *)

val serialize_response : ?head:bool -> keep_alive:bool -> response -> string
(** The response as wire bytes: status line, [content-type],
    [content-length], [connection], the extra headers, and the body.
    With [~head:true] (the answer to a [HEAD] request) the body is left
    out and the headers stay as they are, [content-length] included.
    No [Date] header — responses are deterministic for the cram tests. *)

(** A minimal HTTP/1.1 client over plain sockets.

    Just enough protocol for the evolution subsystem's two outbound
    needs — webhook delivery POSTs and the [fsdata watch] long-poll —
    against servers we also wrote (ours answers every request with
    [Content-Length] and honours [Connection: close]). Not a general
    client: no TLS, no redirects, no chunked encoding, IP literals or
    resolvable hostnames only.

    Socket I/O goes through an injectable {!io} record so the chaos
    tests can interpose [Fsdata_serve.Fault_net] (connection resets,
    torn writes, delays) without this library depending on the serve
    layer. *)

type io = {
  read : Unix.file_descr -> bytes -> int -> int -> int;
  write : Unix.file_descr -> string -> int -> int -> int;
}
(** The two syscalls a request makes after [connect]. The default is
    [Unix.read] / [Unix.write_substring]; tests substitute fault-shimmed
    versions. *)

val parse_url : string -> (string * int * string, string) result
(** [parse_url "http://host:port/path"] is [Ok (host, port, path)];
    the port defaults to 80 and the path to ["/"]. Only [http://] is
    supported — anything else is a descriptive [Error]. *)

val request :
  ?io:io ->
  ?timeout_s:float ->
  ?headers:(string * string) list ->
  meth:string ->
  url:string ->
  ?body:string ->
  unit ->
  (int * string, string) result
(** One request, one connection ([Connection: close]): returns the
    response status and body. [timeout_s] (default 5) bounds connect,
    send and receive via socket timeouts — an expired timeout, a refused
    connection, a mid-response reset all come back as [Error], never an
    exception. *)

(* Chaos suite (ISSUE 7): the live server under hostile and degraded
   conditions. Each socket test boots a real server on an ephemeral
   port (Server.run ~stop ~on_ready in its own domain) and drives it
   over real connections — misbehaving clients, injected socket faults
   (Fault_net), killed workers — asserting the server answers
   correctly, sheds cleanly, and survives. Unit tests for the
   robustness primitives (Deadline, Supervisor, Fault_net) ride
   along. *)

module Server = Fsdata_serve.Server
module Http = Fsdata_serve.Http
module Deadline = Fsdata_serve.Deadline
module Supervisor = Fsdata_serve.Supervisor
module Fault_net = Fsdata_serve.Fault_net
module Metrics = Fsdata_obs.Metrics

let check = Alcotest.check
let tc = Alcotest.test_case
let is_infix affix s = Astring.String.is_infix ~affix s

(* Instrument registration is idempotent by name, so this reads the
   counters server.ml registered. *)
let counter_value name = Metrics.value (Metrics.counter name)

(* ----- unit tests: Deadline ----- *)

let test_deadline_basics () =
  check Alcotest.bool "never is not expired" false (Deadline.expired Deadline.never);
  check Alcotest.bool "after_ms 0 is already expired" true
    (Deadline.expired (Deadline.after_ms 0));
  check Alcotest.bool "negative budget is already expired" true
    (Deadline.expired (Deadline.after_ms (-5)));
  let far = Deadline.after_ms 60_000 in
  check Alcotest.bool "a future deadline is live" false (Deadline.expired far);
  check Alcotest.bool "min picks the earlier deadline" true
    (Deadline.expired (Deadline.min far (Deadline.after_ms 0)));
  check Alcotest.bool "min with never keeps the finite one live" false
    (Deadline.expired (Deadline.min Deadline.never far));
  check Alcotest.bool "never has infinite remaining" true
    (Deadline.remaining_seconds Deadline.never = infinity);
  check Alcotest.bool "a live deadline has positive remaining" true
    (Deadline.remaining_seconds far > 0.);
  check (Alcotest.float 0.0) "an expired deadline has zero remaining" 0.
    (Deadline.remaining_seconds (Deadline.after_ms 0));
  Deadline.check Deadline.never;
  (match Deadline.check (Deadline.after_ms 0) with
  | () -> Alcotest.fail "check on an expired deadline must raise"
  | exception Deadline.Expired -> ());
  check Alcotest.bool "cancel token fires once expired" true
    (Deadline.cancel (Deadline.after_ms 0) ());
  check Alcotest.bool "cancel token on never stays quiet" false
    (Deadline.cancel Deadline.never ())

(* ----- unit tests: Supervisor ----- *)

let test_supervisor_restarts () =
  let logged = ref [] in
  let calls = ref 0 in
  Supervisor.supervise ~name:"chaos-unit" ~base_backoff_ms:1 ~max_backoff_ms:4
    ~log:(fun c -> logged := c :: !logged)
    ~should_restart:(fun () -> true)
    (fun () ->
      incr calls;
      if !calls < 3 then failwith "boom");
  check Alcotest.int "restarted until a clean return" 3 !calls;
  check Alcotest.int "both crashes logged" 2 (List.length !logged);
  match Supervisor.last_crash () with
  | None -> Alcotest.fail "no crash recorded"
  | Some c ->
      check Alcotest.string "crash names the loop" "chaos-unit" c.Supervisor.name;
      check Alcotest.bool "crash keeps the message" true
        (is_infix "boom" c.Supervisor.message)

let test_supervisor_backoff_reset () =
  (* the ladder climbs 1→2→4→8 while crashes are instant, then resets to
     the base after a healthy run — and the backoff sleep itself must
     not count as healthy time, or a crash-looping worker at max backoff
     would reset the ladder forever *)
  let ladder = ref [] in
  let calls = ref 0 in
  Supervisor.supervise ~name:"chaos-backoff" ~base_backoff_ms:1
    ~max_backoff_ms:8
    ~healthy_after_ns:2_000_000L (* 2ms of real run time is "healthy" *)
    ~on_restart:(fun b -> ladder := b :: !ladder)
    ~log:(fun _ -> ())
    ~should_restart:(fun () -> true)
    (fun () ->
      incr calls;
      match !calls with
      | n when n <= 5 -> failwith "instant crash" (* climb: 1 2 4 8 8 *)
      | 6 ->
          Unix.sleepf 0.01;
          failwith "crash after a healthy run" (* next backoff resets *)
      | 7 -> failwith "instant again" (* restart from the base *)
      | _ -> ());
  check (Alcotest.list Alcotest.int) "the backoff ladder"
    [ 1; 2; 4; 8; 8; 8; 1 ]
    (List.rev !ladder)

let test_supervisor_respects_stop () =
  let calls = ref 0 in
  Supervisor.supervise ~name:"chaos-stop" ~base_backoff_ms:1
    ~log:(fun _ -> ())
    ~should_restart:(fun () -> false)
    (fun () ->
      incr calls;
      failwith "boom");
  check Alcotest.int "no restart once told to stop" 1 !calls

(* ----- unit tests: Fault_net ----- *)

let test_fault_net_shim () =
  let t = Fault_net.create () in
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
  @@ fun () ->
  let buf = Bytes.create 64 in
  ignore (Unix.write_substring w "hello world" 0 11);
  check Alcotest.int "None is a pass-through" 11
    (Fault_net.read None r buf 0 64);
  ignore (Unix.write_substring w "abcdef" 0 6);
  Fault_net.set_max_read t 2;
  check Alcotest.int "reads clamp to max_read" 2
    (Fault_net.read (Some t) r buf 0 64);
  Fault_net.set_max_read t 0;
  Fault_net.inject_read t [ Fault_net.Error Unix.ECONNRESET ];
  (match Fault_net.read (Some t) r buf 0 64 with
  | _ -> Alcotest.fail "expected the injected reset"
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
  check Alcotest.int "the queue drains: next read proceeds" 4
    (Fault_net.read (Some t) r buf 0 64);
  Fault_net.inject_write t [ Fault_net.Kill ];
  (match Fault_net.write_substring (Some t) w "x" 0 1 with
  | _ -> Alcotest.fail "expected the injected kill"
  | exception Fault_net.Worker_killed -> ());
  Fault_net.set_max_write t 3;
  check Alcotest.int "writes clamp to max_write" 3
    (Fault_net.write_substring (Some t) w "abcdef" 0 6);
  Fault_net.set_max_write t 0;
  let t0 = Unix.gettimeofday () in
  Fault_net.inject_read t [ Fault_net.Delay 0.05 ];
  ignore (Fault_net.read (Some t) r buf 0 64);
  check Alcotest.bool "delay stalls the call before proceeding" true
    (Unix.gettimeofday () -. t0 >= 0.04);
  check Alcotest.int "every consumed fault is counted" 3 (Fault_net.injected t)

(* ----- socket-test plumbing ----- *)

let rec nap s =
  try Unix.sleepf s with Unix.Unix_error (Unix.EINTR, _, _) -> nap (s /. 2.)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let base_cfg =
  { Server.default_config with Server.workers = 2; Server.timeout_ms = 2_000 }

(* Boot a server on an ephemeral port in its own domain; the callback
   gets the port and the drain flag, and the server is always drained
   and joined afterwards. *)
let with_server ?(cfg = base_cfg) f =
  let stop = Atomic.make false in
  let port = Atomic.make 0 in
  let srv =
    Domain.spawn (fun () ->
        Server.run ~stop
          ~on_ready:(fun p -> Atomic.set port p)
          { cfg with Server.port = 0; Server.host = "127.0.0.1" })
  in
  let give_up = Unix.gettimeofday () +. 10. in
  while Atomic.get port = 0 && Unix.gettimeofday () < give_up do
    nap 0.005
  done;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join srv)
    (fun () ->
      if Atomic.get port = 0 then Alcotest.fail "server did not come up";
      f ~port:(Atomic.get port) ~stop)

let rec connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> fd
  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      close_quiet fd;
      nap 0.005;
      connect port
  | exception e ->
      close_quiet fd;
      raise e

let send_all fd s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    match Unix.write_substring fd s !pos (len - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let http_request ?(meth = "POST") ?(headers = []) ?(body = "") path =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth path);
  List.iter (fun (k, v) -> Buffer.add_string b (k ^ ": " ^ v ^ "\r\n")) headers;
  if body <> "" then
    Buffer.add_string b
      (Printf.sprintf "content-length: %d\r\n" (String.length body));
  Buffer.add_string b "\r\n";
  Buffer.add_string b body;
  Buffer.contents b

type reply = { status : int; headers : (string * string) list; body : string }

(* Read one response off the socket: headers up to the blank line, then
   exactly content-length body bytes, or none when it answers a HEAD
   ([head]). Raises [Failure] if the peer closes first — which some
   chaos tests expect. Bytes read past the response stay in [buf], for
   the next response on the connection. *)
let recv_response ?head:(no_body = false) ?(buf = Buffer.create 1024) fd =
  let bytes = Bytes.create 4096 in
  let read_more () =
    match Unix.read fd bytes 0 (Bytes.length bytes) with
    | 0 -> false
    | n ->
        Buffer.add_subbytes buf bytes 0 n;
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
    (* a dropped connection may surface as a reset rather than EOF *)
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> false
  in
  let rec header_end () =
    match Astring.String.find_sub ~sub:"\r\n\r\n" (Buffer.contents buf) with
    | Some i -> i
    | None ->
        if read_more () then header_end ()
        else failwith "peer closed before response headers"
  in
  let hdr_end = header_end () in
  let head = String.sub (Buffer.contents buf) 0 hdr_end in
  let status, headers =
    match String.split_on_char '\n' head with
    | [] -> failwith "empty response"
    | first :: rest ->
        let status =
          match String.split_on_char ' ' (String.trim first) with
          | _ :: code :: _ -> int_of_string code
          | _ -> failwith "malformed status line"
        in
        let headers =
          List.filter_map
            (fun line ->
              let line = String.trim line in
              match String.index_opt line ':' with
              | None -> None
              | Some i ->
                  Some
                    ( String.lowercase_ascii (String.sub line 0 i),
                      String.trim
                        (String.sub line (i + 1) (String.length line - i - 1))
                    ))
            rest
        in
        (status, headers)
  in
  let clen =
    match List.assoc_opt "content-length" headers with
    | Some v when not no_body -> int_of_string (String.trim v)
    | _ -> 0
  in
  let total = hdr_end + 4 + clen in
  let rec fill () =
    if Buffer.length buf < total then
      if read_more () then fill () else failwith "peer closed mid-body"
  in
  fill ();
  let all = Buffer.contents buf in
  Buffer.clear buf;
  Buffer.add_substring buf all total (String.length all - total);
  { status; headers; body = String.sub all (hdr_end + 4) clen }

let corpus = "{\"name\": \"ada\", \"age\": 36}\n{\"name\": \"grace\"}\n"

(* The CLI-equivalent reference: the same corpus through Server.handle
   directly, no sockets. *)
let reference_body body =
  let t = Server.create Server.default_config in
  (Server.handle t
     {
       Http.meth = "POST";
       path = "/infer";
       query = [];
       version = `Http_1_1;
       headers = [];
       body;
     })
    .Http.resp_body

(* ----- healthy connections stay byte-identical to the CLI path ----- *)

let test_healthy_byte_identity () =
  let fault = Fault_net.create () in
  let cfg = { base_cfg with Server.fault = Some fault } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let expected = reference_body corpus in
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      let ask () =
        send_all fd (http_request ~body:corpus "/infer");
        recv_response fd
      in
      let r1 = ask () in
      check Alcotest.int "200 over the wire" 200 r1.status;
      check Alcotest.string "socket response ≡ handler path" expected r1.body;
      (* the server reading one byte at a time changes nothing *)
      Fault_net.set_max_read fault 1;
      let r2 = ask () in
      check Alcotest.string "byte-identical under short reads" expected r2.body;
      Fault_net.set_max_read fault 0;
      (* torn writes: the response still arrives complete *)
      Fault_net.set_max_write fault 3;
      let r3 = ask () in
      check Alcotest.string "byte-identical under torn writes" expected r3.body;
      Fault_net.set_max_write fault 0)

let test_slow_client_within_deadline () =
  with_server (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      let raw = http_request ~body:corpus "/infer" in
      let n = String.length raw in
      let i = ref 0 in
      while !i < n do
        let k = min 16 (n - !i) in
        send_all fd (String.sub raw !i k);
        i := !i + k;
        nap 0.01
      done;
      check Alcotest.int "a slow but live client is served" 200
        (recv_response fd).status)

(* ----- deadlines: stalls answer 408/504 within twice the budget ----- *)

let test_stalled_header_times_out () =
  let cfg = { base_cfg with Server.timeout_ms = 400 } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      send_all fd "POST /infer HTTP/1.1\r\ncontent-le";
      let r = recv_response fd in
      let elapsed = Unix.gettimeofday () -. t0 in
      check Alcotest.int "stalled header read answers 408" 408 r.status;
      check Alcotest.bool "within twice the deadline" true (elapsed < 0.8);
      check
        (Alcotest.option Alcotest.string)
        "the connection closes" (Some "close")
        (List.assoc_opt "connection" r.headers))

let test_stalled_body_times_out () =
  let cfg = { base_cfg with Server.timeout_ms = 400 } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      let t0 = Unix.gettimeofday () in
      send_all fd "POST /infer HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc";
      let r = recv_response fd in
      check Alcotest.int "stalled body read answers 408" 408 r.status;
      check Alcotest.bool "within twice the deadline" true
        (Unix.gettimeofday () -. t0 < 0.8))

let test_client_deadline_cut_off () =
  (* a long server timeout, tightened by X-Fsdata-Deadline-Ms: the
     trickled streamed body must be cut off by the client's 300ms, not
     the server's 10s *)
  let cfg =
    {
      base_cfg with
      Server.timeout_ms = 10_000;
      Server.stream_threshold = 1024;
    }
  in
  with_server ~cfg (fun ~port ~stop:_ ->
      let before = counter_value "serve.deadline_expired" in
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      let doc = "{\"x\": 1}\n" in
      let total = String.length doc * 1000 in
      let t0 = Unix.gettimeofday () in
      send_all fd
        (Printf.sprintf
           "POST /infer HTTP/1.1\r\n\
            x-fsdata-deadline-ms: 300\r\n\
            content-length: %d\r\n\
            \r\n"
           total);
      (* trickle documents past the deadline; the server hangs up on us
         mid-trickle, hence the try *)
      (try
         for _ = 1 to 1000 do
           send_all fd doc;
           nap 0.005
         done
       with Unix.Unix_error _ -> ());
      let r = recv_response fd in
      let elapsed = Unix.gettimeofday () -. t0 in
      check Alcotest.bool "cut off with the deadline status family" true
        (r.status = 408 || r.status = 504);
      check Alcotest.bool "within twice the client deadline" true
        (elapsed < 0.6 +. 0.2);
      check Alcotest.bool "serve.deadline_expired counted it" true
        (counter_value "serve.deadline_expired" > before))

let test_client_deadline_buffered_body () =
  (* same cut-off, but below the streaming threshold: the header must
     tighten the reader before the buffered body read, not only the
     handler *)
  let cfg = { base_cfg with Server.timeout_ms = 10_000 } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      let doc = "{\"x\": 1}\n" in
      let t0 = Unix.gettimeofday () in
      send_all fd
        (Printf.sprintf
           "POST /infer HTTP/1.1\r\n\
            x-fsdata-deadline-ms: 300\r\n\
            content-length: %d\r\n\
            \r\n"
           (String.length doc * 200));
      (try
         for _ = 1 to 200 do
           send_all fd doc;
           nap 0.01
         done
       with Unix.Unix_error _ -> ());
      let r = recv_response fd in
      check Alcotest.int "buffered body cut off with 408" 408 r.status;
      check Alcotest.bool "within twice the client deadline" true
        (Unix.gettimeofday () -. t0 < 0.8))

let test_partial_request_line_times_out () =
  (* a stall before the request line completes is still a started
     request: 408, not a silent close *)
  let cfg = { base_cfg with Server.timeout_ms = 400 } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      send_all fd "GET /hea";
      check Alcotest.int "partial request line answers 408" 408
        (recv_response fd).status)

let test_bad_deadline_header_rejected () =
  with_server (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      send_all fd
        (http_request
           ~headers:[ ("x-fsdata-deadline-ms", "soonish") ]
           ~body:corpus "/infer");
      let r = recv_response fd in
      check Alcotest.int "400" 400 r.status;
      check Alcotest.bool "names the header" true
        (is_infix "X-Fsdata-Deadline-Ms" r.body);
      check
        (Alcotest.option Alcotest.string)
        "closes: the body may be unread" (Some "close")
        (List.assoc_opt "connection" r.headers))

(* ----- shedding: body budget and oversized bodies ----- *)

let test_body_budget_shed () =
  let cfg = { base_cfg with Server.max_inflight_bytes = 4096 } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let before = counter_value "serve.shed_total" in
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      send_all fd "POST /infer HTTP/1.1\r\ncontent-length: 8192\r\n\r\n";
      let r = recv_response fd in
      check Alcotest.int "over-budget body is shed with 503" 503 r.status;
      check
        (Alcotest.option Alcotest.string)
        "retry-after tells the client to back off" (Some "1")
        (List.assoc_opt "retry-after" r.headers);
      check Alcotest.bool "names the budget" true (is_infix "budget" r.body);
      check Alcotest.bool "serve.shed_total counted it" true
        (counter_value "serve.shed_total" > before);
      (* a request that fits is admitted as usual *)
      let fd2 = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd2) @@ fun () ->
      send_all fd2 (http_request ~body:corpus "/infer");
      check Alcotest.int "a fitting body is served" 200
        (recv_response fd2).status)

let test_oversized_body_413 () =
  let cfg = { base_cfg with Server.max_body = 1024 } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      send_all fd "POST /infer HTTP/1.1\r\ncontent-length: 4096\r\n\r\n";
      check Alcotest.int "over max_body answers 413" 413
        (recv_response fd).status)

let test_overloaded_healthz () =
  let cfg =
    {
      base_cfg with
      Server.max_inflight_bytes = 1000;
      Server.stream_threshold = 64;
      Server.timeout_ms = 5_000;
    }
  in
  with_server ~cfg (fun ~port ~stop:_ ->
      let a = connect port in
      Fun.protect ~finally:(fun () -> close_quiet a) @@ fun () ->
      (* declare a 900-byte body but send only part: the reservation is
         taken on the declared length and held while the worker waits *)
      send_all a "POST /infer HTTP/1.1\r\ncontent-length: 900\r\n\r\n";
      send_all a (String.make 100 ' ');
      nap 0.2;
      let b = connect port in
      Fun.protect ~finally:(fun () -> close_quiet b) @@ fun () ->
      send_all b (http_request ~meth:"GET" "/healthz");
      let r = recv_response b in
      check Alcotest.int "healthz degrades near the budget" 503 r.status;
      check Alcotest.bool "reports overloaded" true (is_infix "overloaded" r.body);
      check
        (Alcotest.option Alcotest.string)
        "with a retry-after" (Some "1")
        (List.assoc_opt "retry-after" r.headers);
      (* finish the body: the budget releases and health recovers *)
      send_all a (String.make 800 ' ');
      let ra = recv_response a in
      check Alcotest.bool "the streamed request still answers" true
        (ra.status = 200 || ra.status = 422);
      nap 0.05;
      let c = connect port in
      Fun.protect ~finally:(fun () -> close_quiet c) @@ fun () ->
      send_all c (http_request ~meth:"GET" "/healthz");
      check Alcotest.int "healthy again after the release" 200
        (recv_response c).status)

(* ----- fault injection: the server outlives its connections ----- *)

let test_injected_faults_survive () =
  let fault = Fault_net.create () in
  let cfg = { base_cfg with Server.fault = Some fault } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let before = Fault_net.injected fault in
      (* a reset while reading: the connection dies, the server lives *)
      Fault_net.inject_read fault [ Fault_net.Error Unix.ECONNRESET ];
      let fd = connect port in
      send_all fd (http_request ~body:corpus "/infer");
      (match recv_response fd with
      | _ -> Alcotest.fail "expected the reset connection to drop"
      | exception Failure _ -> ());
      close_quiet fd;
      (* EPIPE while writing the response: same story *)
      Fault_net.inject_write fault [ Fault_net.Error Unix.EPIPE ];
      let fd = connect port in
      send_all fd (http_request ~body:corpus "/infer");
      (match recv_response fd with
      | _ -> Alcotest.fail "expected the broken-pipe connection to drop"
      | exception Failure _ -> ());
      close_quiet fd;
      (* EINTR is not a fault: retried transparently, the request answers *)
      Fault_net.inject_read fault [ Fault_net.Error Unix.EINTR ];
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      send_all fd (http_request ~body:corpus "/infer");
      check Alcotest.int "EINTR is retried, not fatal" 200
        (recv_response fd).status;
      check Alcotest.int "every injection was counted" (before + 3)
        (Fault_net.injected fault))

let test_early_close_survives () =
  with_server (fun ~port ~stop:_ ->
      (* five clients send a request and hang up without reading; the
         server's response writes hit closed sockets *)
      for _ = 1 to 5 do
        let fd = connect port in
        send_all fd (http_request ~body:corpus "/infer");
        close_quiet fd
      done;
      nap 0.1;
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      send_all fd (http_request ~meth:"GET" "/healthz");
      check Alcotest.int "still healthy after the rudeness" 200
        (recv_response fd).status)

let test_worker_kill_respawn () =
  let fault = Fault_net.create () in
  let cfg = { base_cfg with Server.fault = Some fault } in
  with_server ~cfg (fun ~port ~stop:_ ->
      let before = counter_value "serve.worker.crashes" in
      Fault_net.inject_read fault [ Fault_net.Kill ];
      let fd = connect port in
      send_all fd (http_request ~body:corpus "/infer");
      (match recv_response fd with
      | _ -> Alcotest.fail "expected the killed worker to drop the connection"
      | exception Failure _ -> ());
      close_quiet fd;
      nap 0.1 (* respawn backoff starts at 10ms *);
      check Alcotest.bool "serve.worker.crashes counted the kill" true
        (counter_value "serve.worker.crashes" > before);
      (match Supervisor.last_crash () with
      | None -> Alcotest.fail "no crash recorded"
      | Some c ->
          check Alcotest.bool "the crash names a worker" true
            (Astring.String.is_prefix ~affix:"worker-" c.Supervisor.name));
      (* the pool recovered: every subsequent request is served *)
      for _ = 1 to 4 do
        let fd = connect port in
        Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
        send_all fd (http_request ~body:corpus "/infer");
        check Alcotest.int "served after the respawn" 200
          (recv_response fd).status
      done)

(* ----- keep-alive discipline and drain ----- *)

let test_keep_alive_after_4xx () =
  with_server (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      send_all fd (http_request ~meth:"GET" "/nope");
      let r404 = recv_response fd in
      check Alcotest.int "404" 404 r404.status;
      check
        (Alcotest.option Alcotest.string)
        "a handler 4xx keeps the connection" (Some "keep-alive")
        (List.assoc_opt "connection" r404.headers);
      send_all fd (http_request ~body:corpus "/infer?jobs=many");
      let r400 = recv_response fd in
      check Alcotest.int "400 on the same connection" 400 r400.status;
      send_all fd (http_request ~meth:"GET" "/healthz");
      check Alcotest.int "the connection interleaves on to a 200" 200
        (recv_response fd).status)

(* No route admits HEAD, so it is answered 405; the response must end
   with its headers, or the client reads the body as the start of the
   next response on the connection. *)
let test_head_response_has_no_body () =
  with_server (fun ~port ~stop:_ ->
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      let buf = Buffer.create 1024 in
      send_all fd (http_request ~meth:"HEAD" "/healthz");
      let r405 = recv_response ~head:true ~buf fd in
      check Alcotest.int "HEAD is not allowed" 405 r405.status;
      check
        (Alcotest.option Alcotest.string)
        "the 405 keeps the connection" (Some "keep-alive")
        (List.assoc_opt "connection" r405.headers);
      send_all fd (http_request ~meth:"GET" "/healthz");
      check Alcotest.int "the next response parses" 200
        (recv_response ~buf fd).status)

let test_drain_and_port_file () =
  let pf = Filename.temp_file "fsdata_chaos" ".port" in
  Sys.remove pf;
  let cfg = { base_cfg with Server.port_file = Some pf } in
  with_server ~cfg (fun ~port ~stop ->
      check Alcotest.bool "port file exists while serving" true
        (Sys.file_exists pf);
      let ic = open_in pf in
      let recorded = int_of_string (String.trim (input_line ic)) in
      close_in ic;
      check Alcotest.int "port file records the bound port" port recorded;
      let fd = connect port in
      Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
      send_all fd (http_request ~meth:"GET" "/healthz");
      check Alcotest.int "healthy before the drain" 200
        (recv_response fd).status;
      Atomic.set stop true;
      send_all fd (http_request ~meth:"GET" "/healthz");
      let r = recv_response fd in
      check Alcotest.int "healthz answers 503 during the drain" 503 r.status;
      check Alcotest.bool "and reports draining" true (is_infix "draining" r.body);
      check
        (Alcotest.option Alcotest.string)
        "drain responses close the connection" (Some "close")
        (List.assoc_opt "connection" r.headers));
  check Alcotest.bool "port file removed on exit" false (Sys.file_exists pf)

let test_signal_storm () =
  (* SIGUSR1 at a 2ms cadence interrupts select in the accept loop and
     reads in the workers; everything must retry and serve through it *)
  let old = Sys.signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect ~finally:(fun () -> ignore (Sys.signal Sys.sigusr1 old))
  @@ fun () ->
  with_server (fun ~port ~stop:_ ->
      let pid = Unix.getpid () in
      let storming = Atomic.make true in
      let stormer =
        Domain.spawn (fun () ->
            while Atomic.get storming do
              Unix.kill pid Sys.sigusr1;
              nap 0.002
            done)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set storming false;
          Domain.join stormer)
        (fun () ->
          for _ = 1 to 10 do
            let fd = connect port in
            Fun.protect ~finally:(fun () -> close_quiet fd) @@ fun () ->
            send_all fd (http_request ~body:corpus "/infer");
            check Alcotest.int "served amid the signal storm" 200
              (recv_response fd).status
          done))

let suite =
  [
    tc "deadline: basics" `Quick test_deadline_basics;
    tc "supervisor: restarts until a clean return" `Quick
      test_supervisor_restarts;
    tc "supervisor: respects should_restart" `Quick test_supervisor_respects_stop;
    tc "supervisor: backoff ladder resets only after a healthy run" `Quick
      test_supervisor_backoff_reset;
    tc "fault_net: deterministic shim" `Quick test_fault_net_shim;
    tc "healthy responses byte-identical to the CLI path" `Quick
      test_healthy_byte_identity;
    tc "slow client inside the deadline is served" `Quick
      test_slow_client_within_deadline;
    tc "stalled header read times out" `Quick test_stalled_header_times_out;
    tc "stalled body read times out" `Quick test_stalled_body_times_out;
    tc "client deadline header cuts a trickled body off" `Quick
      test_client_deadline_cut_off;
    tc "client deadline cuts a buffered body too" `Quick
      test_client_deadline_buffered_body;
    tc "partial request line stall answers 408" `Quick
      test_partial_request_line_times_out;
    tc "bad deadline header is rejected" `Quick test_bad_deadline_header_rejected;
    tc "over-budget bodies are shed with retry-after" `Quick
      test_body_budget_shed;
    tc "oversized bodies answer 413" `Quick test_oversized_body_413;
    tc "healthz degrades to overloaded near the budget" `Quick
      test_overloaded_healthz;
    tc "injected socket faults drop one connection only" `Quick
      test_injected_faults_survive;
    tc "clients hanging up early are harmless" `Quick test_early_close_survives;
    tc "a killed worker is respawned" `Quick test_worker_kill_respawn;
    tc "keep-alive interleaves across 4xx responses" `Quick
      test_keep_alive_after_4xx;
    tc "drain: healthz 503, responses close, port file removed" `Quick
      test_drain_and_port_file;
    tc "signal storm: EINTR everywhere, served throughout" `Quick
      test_signal_storm;
    tc "a response to HEAD carries no body" `Quick
      test_head_response_has_no_body;
  ]

(* Clocks, statistics, process accounting and a minimal HTTP/1.1 client.
   Everything here runs in the single-threaded benchmark process. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]
external cpu_ns : unit -> int = "perfbench_cpu_ns" [@@noalloc]
external wait4 : int -> int * int * int * int = "perfbench_wait4"

let ms_of_ns ns = float_of_int ns /. 1e6

(* --- statistics --- *)

(* Linear-interpolated quantile of an unsorted sample (q in [0,1]). *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor pos) in
    let f = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs

(* --- files and directories --- *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* /proc files report length 0: read until end of file *)
let read_proc path =
  let ic = open_in_bin path in
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Buffer.contents b

let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

(* --- child processes --- *)

type job = {
  code : int;
  out : string;
  wall_ns : int;
  cpu_us : int;  (** user + system *)
  maxrss_kib : int;
}

(* Run [prog args] to completion, capturing stdout; stderr is discarded.
   Wall time runs from before the fork to the reaping wait4. *)
let run_job_here prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now_ns () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr devnull in
  Unix.close wr;
  Unix.close devnull;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let rec drain () =
    match Unix.read rd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  Unix.close rd;
  let code, ut, st, rss = wait4 pid in
  let t1 = now_ns () in
  { code; out = Buffer.contents buf; wall_ns = t1 - t0; cpu_us = ut + st; maxrss_kib = rss }

(* Jobs are forked by a small spawner process started before the
   benchmark allocates anything: a child's peak RSS (wait4) counts the
   pages of the process it was forked from, so forking from the grown
   benchmark process would measure the benchmark, not fsdata. *)
let spawner : (out_channel * in_channel * int) option ref = ref None

let start_spawner () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let res_r, res_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close req_w;
      Unix.close res_r;
      let ic = Unix.in_channel_of_descr req_r and oc = Unix.out_channel_of_descr res_w in
      (try
         while true do
           let (prog, args) : string * string list = Marshal.from_channel ic in
           Marshal.to_channel oc (run_job_here prog args) [];
           flush oc
         done
       with End_of_file -> ());
      Unix._exit 0
  | pid ->
      Unix.close req_r;
      Unix.close res_w;
      spawner := Some (Unix.out_channel_of_descr req_w, Unix.in_channel_of_descr res_r, pid);
      at_exit (fun () ->
          match !spawner with
          | Some (oc, ic, pid) ->
              spawner := None;
              close_out_noerr oc;
              close_in_noerr ic;
              ignore (Unix.waitpid [] pid)
          | None -> ())

let run_job prog args : job =
  match !spawner with
  | Some (oc, ic, _) ->
      Marshal.to_channel oc (prog, args) [];
      flush oc;
      Marshal.from_channel ic
  | None -> run_job_here prog args

(* user+system CPU of a live process, in clock ticks, from /proc *)
let proc_cpu_ticks pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces; fields resume after the last ')' *)
  let i = String.rindex s ')' in
  let fields = String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) in
  (* utime and stime are fields 14 and 15 of the file, 12 and 13 here *)
  int_of_string (List.nth fields 11) + int_of_string (List.nth fields 12)

let clock_ticks_per_s = 100.

let proc_vmhwm_kib pid =
  let s = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

(* --- the server under test --- *)

type server = { pid : int; port : int }

let live_servers : int list ref = ref []

let kill_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now_ns () + 5_000_000_000 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now_ns () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  live_servers := List.filter (( <> ) s.pid) !live_servers

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_servers)

(* Spawn [fsdata serve] on an ephemeral port and wait until its port file
   appears (the server writes it once listening, after registry
   recovery). *)
let spawn_server ~fsdata ~dir args =
  let port_file = Filename.concat dir "port" in
  (try Sys.remove port_file with Sys_error _ -> ());
  let log = Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let t0 = now_ns () in
  let pid =
    Unix.create_process fsdata
      (Array.of_list ([ fsdata; "serve"; "--port"; "0"; "--port-file"; port_file ] @ args))
      Unix.stdin log log
  in
  Unix.close log;
  live_servers := pid :: !live_servers;
  let deadline = t0 + 120_000_000_000 in
  let rec wait () =
    let port =
      try
        let s = String.trim (read_file port_file) in
        if s = "" then None else int_of_string_opt s
      with Sys_error _ -> None
    in
    match port with
    | Some port -> port
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "fsdata serve exited before it was ready");
        if now_ns () > deadline then failwith "fsdata serve did not become ready";
        Unix.sleepf 0.0005;
        wait ()
  in
  { pid; port = wait () }

(* --- HTTP/1.1 client --- *)

type request = {
  meth : string;
  target : string;  (** path and query, already encoded *)
  body : string;
}

let post target body = { meth = "POST"; target; body }
let get target = { meth = "GET"; target; body = "" }

let serialize r =
  Printf.sprintf "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\ncontent-length: %d\r\n\r\n%s" r.meth r.target
    (String.length r.body) r.body

type response = { status : int; rbody : string }

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* Incremental response parser: bytes are appended as they arrive and
   [parse] reports a complete response once the declared body is in. The
   head is parsed once; afterwards only the buffered length is checked. *)
type head = { h_status : int; h_len : int; h_start : int }

type reader = {
  fd : Unix.file_descr;
  acc : Buffer.t;
  chunk : Bytes.t;
  mutable head : head option;
}

let reader fd = { fd; acc = Buffer.create 65536; chunk = Bytes.create 65536; head = None }

let header_value headers name =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.lowercase_ascii (String.sub l 0 i) = name ->
          Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    headers

let end_of_head b =
  let n = Buffer.length b in
  let rec go i =
    if i + 3 >= n then -1
    else if
      Buffer.nth b i = '\r' && Buffer.nth b (i + 1) = '\n' && Buffer.nth b (i + 2) = '\r'
      && Buffer.nth b (i + 3) = '\n'
    then i
    else go (i + 1)
  in
  go 0

let parse_head rd =
  match end_of_head rd.acc with
  | -1 -> None
  | h ->
      let lines = String.split_on_char '\n' (Buffer.sub rd.acc 0 h) |> List.map String.trim in
      let h_status = Scanf.sscanf (List.hd lines) "HTTP/1.1 %d" Fun.id in
      let h_len =
        match header_value (List.tl lines) "content-length" with
        | Some v -> int_of_string v
        | None -> 0
      in
      Some { h_status; h_len; h_start = h + 4 }

(* Some response if the buffer holds a complete one (consumed from the
   buffer), None if more bytes are needed. *)
let parse rd =
  if rd.head = None then rd.head <- parse_head rd;
  match rd.head with
  | Some h when Buffer.length rd.acc >= h.h_start + h.h_len ->
      let rbody = Buffer.sub rd.acc h.h_start h.h_len in
      let used = h.h_start + h.h_len in
      let rest = Buffer.sub rd.acc used (Buffer.length rd.acc - used) in
      Buffer.clear rd.acc;
      Buffer.add_string rd.acc rest;
      rd.head <- None;
      Some { status = h.h_status; rbody }
  | _ -> None

(* Read what is available; false on end of stream. *)
let fill rd =
  match Unix.read rd.fd rd.chunk 0 (Bytes.length rd.chunk) with
  | 0 -> false
  | n ->
      Buffer.add_subbytes rd.acc rd.chunk 0 n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

(* Closed-loop call on one connection. *)
let call rd r =
  write_all rd.fd (serialize r) 0;
  let rec go () =
    match parse rd with
    | Some resp -> resp
    | None -> if fill rd then go () else failwith "connection closed mid-response"
  in
  go ()

(* Run [f] in a forked child and return its (marshalled) result, so the
   reference computations and input building do not grow the heap of
   the process that then measures. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let oc = Unix.out_channel_of_descr wr in
      let r : ('a, string) result =
        try Ok (f ()) with e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let (r : ('a, string) result) = Marshal.from_channel ic in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (match r with Ok v -> v | Error m -> failwith ("child: " ^ m))

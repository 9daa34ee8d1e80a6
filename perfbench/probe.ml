(* Machine-speed calibration. On a 2-vCPU virtual machine shared with
   other tenants, speed drifts in phases of seconds (the same job
   measured 73 ms and 104 ms a few seconds apart),
   and a fixed CPU kernel drifts with it. Every time the benchmark
   reports is therefore scaled by [nominal_ms / p], where p is the median
   time of this kernel measured next to the operation: the figures read
   as milliseconds on a host where the kernel takes [nominal_ms].

   The kernel is the benchmark's own code and calls nothing in fsdata,
   so a change to the program cannot move it. It allocates strings, a
   hash table and lists, as parsing and inference do, and walks an array
   larger than the caches. *)

let nominal_ms = 3.5

(* 8 MiB, larger than the caches: the strided walk below misses them as
   parsing large corpora does *)
let big = lazy (Array.make (1 lsl 20) 0)

let kernel () =
  let big = Lazy.force big in
  let mask = Array.length big - 1 in
  for i = 0 to 150_000 do
    let k = (i * 4099) land mask in
    big.(k) <- big.(k) + i
  done;
  let h = Hashtbl.create 4096 in
  for i = 0 to 5_000 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let l = List.init 5_000 (fun i -> (i * 7919) mod 10_007) in
  let l = List.sort compare l in
  let total = List.fold_left (fun a x -> a + x + Option.value ~default:0 (Hashtbl.find_opt h (string_of_int x))) 0 l in
  ignore (Sys.opaque_identity total)

(* One kernel run: its wall time and its CPU time, in ms. Wall times
   (latencies, set-up) are scaled by the kernel's wall time, which
   includes the time the host took the virtual CPU away; CPU times are
   scaled by the kernel's CPU time, which does not. *)
type t = { wall : float; cpu : float }

let once () =
  let t0 = Util.now_ns () and c0 = Util.cpu_ns () in
  kernel ();
  { wall = Util.ms_of_ns (Util.now_ns () - t0); cpu = Util.ms_of_ns (Util.cpu_ns () - c0) }

(* scale factors for times measured where the kernel ran as in [runs] *)
let wall_scale runs = nominal_ms /. Util.median (List.map (fun p -> p.wall) runs)
let cpu_scale runs = nominal_ms /. Util.median (List.map (fun p -> p.cpu) runs)

(* Wake-up latency. A request to an idle server costs two wake-ups (the
   server's worker, then the client) on top of the program's own work, and
   on a shared virtual machine a wake-up takes from tens of microseconds
   to a millisecond depending on what else the host runs. [rtt ()] measures
   them with a one-byte round trip over loopback TCP to an echo process
   that is the benchmark's own code; latencies are corrected by
   [rtt_nominal_ms - rtt] (see Serve_common). *)
let rtt_nominal_ms = 0.1

let echo : Unix.file_descr option ref = ref None

(* Fork the echo process; call it before the benchmark grows. *)
let start_echo () =
  let l = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen l 1;
  let port = match Unix.getsockname l with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let c = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect c (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let s, _ = Unix.accept ~cloexec:true l in
  Unix.close l;
  List.iter (fun fd -> Unix.setsockopt fd Unix.TCP_NODELAY true) [ c; s ];
  match Unix.fork () with
  | 0 ->
      Unix.close c;
      let b = Bytes.create 1 in
      (try
         while Unix.read s b 0 1 = 1 do
           ignore (Unix.write s b 0 1)
         done
       with Unix.Unix_error _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close s;
      echo := Some c;
      at_exit (fun () ->
          Unix.close c;
          ignore (Unix.waitpid [] pid))

(* One round trip, in ms, after a pause long enough for both CPUs to go
   idle, as they do between requests at the workloads' rates. *)
let rtt () =
  match !echo with
  | None -> rtt_nominal_ms
  | Some c ->
      Unix.sleepf 0.004;
      let b = Bytes.make 1 'x' in
      let t0 = Util.now_ns () in
      ignore (Unix.write c b 0 1);
      ignore (Unix.read c b 0 1);
      Util.ms_of_ns (Util.now_ns () - t0)

(* Scale factors for a sequence of operations, each followed by one
   kernel run: operation i is scaled by the median kernel time of runs
   i-2 .. i+2, which follows the drift and damps the kernel's own noise.
   Returns the (wall, cpu) factors. *)
let local_scales (probes : t array) =
  let n = Array.length probes in
  let window i =
    let lo = max 0 (i - 2) and hi = min (n - 1) (i + 2) in
    Array.to_list (Array.sub probes lo (hi - lo + 1))
  in
  (Array.init n (fun i -> wall_scale (window i)), Array.init n (fun i -> cpu_scale (window i)))

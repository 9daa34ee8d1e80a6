(* Shared by the two HTTP workloads: the in-process reference server, the
   set-up measurement and the end-to-end metrics of an open-loop run. *)

module Server = Fsdata_serve.Server
module Http = Fsdata_serve.Http

let workers = 2
let connections = 2

(* The served process: 2 worker domains for exactly 2 keep-alive
   connections (a worker owns a connection until it closes), no fsync. *)
let serve_args = [ "--workers"; string_of_int workers; "--fsync"; "never" ]

let config ?state_dir () =
  { Server.default_config with Server.workers; state_fsync = `Never; state_dir }

(* The exact bytes a client sends, parsed by the server's own parser. *)
let to_http (r : Util.request) =
  match Http.read_request (Http.reader_of_string (Util.serialize r)) with
  | Ok (Some req) -> req
  | _ -> failwith ("unparseable request " ^ r.Util.target)

let handle t r = Server.handle t (to_http r)

let body_digest (resp : Http.response) = Gen.digest resp.Http.resp_body

(* Spawn the server [repeats] times and keep the last one: setup_s is the
   median spawn-to-ready time, where ready includes [warm] (the warm-up
   requests, if the workload has any), each scaled by the calibration
   kernel run around it. [prepare] runs before each spawn, outside the
   timer (a fresh copy of the state directory). *)
let setups ~fsdata ~dir ~repeats ~prepare ~args ~warm =
  let rec go k acc =
    prepare ();
    let p0 = List.init 3 (fun _ -> Probe.once ()) in
    let t0 = Util.now_ns () in
    let srv = Util.spawn_server ~fsdata ~dir (args ()) in
    let ok = warm srv in
    let dt = float_of_int (Util.now_ns () - t0) /. 1e9 in
    let dt = dt *. Probe.wall_scale (p0 @ List.init 3 (fun _ -> Probe.once ())) in
    if k = repeats then (srv, ok, List.rev (dt :: acc))
    else begin
      Util.kill_server srv;
      go (k + 1) (dt :: acc)
    end
  in
  go 1 []

let fetch_metrics port =
  let rd = Util.reader (Util.connect port) in
  let resp = Util.call rd (Util.get "/metrics") in
  Unix.close rd.Util.fd;
  match Fsdata_data.Json.parse resp.Util.rbody with
  | Fsdata_data.Data_value.Record (_, fields) ->
      List.filter_map
        (fun (k, v) ->
          match v with
          | Fsdata_data.Data_value.Int n -> Some (k, float_of_int n)
          | Fsdata_data.Data_value.Float f -> Some (k, f)
          | _ -> None)
        fields
  | _ -> []

(* The schedule runs in segments of [segment_s] seconds (at least
   [segment_ops] operations). Between segments the load pauses while the
   calibration kernel runs [probe_runs] times; a segment's times are
   scaled by the kernel runs at its own boundaries and the neighbouring
   ones (Probe). *)
let segment_s = 2
let segment_ops = 100
let probe_runs = 7
let rtt_runs = 9

type segment = {
  run : Loadgen.run;
  ops : Loadgen.op array;
  cpu_ms : float;  (** server user+system CPU during the segment, scaled *)
  scale : float;  (** for wall times *)
  rtt_ms : float;  (** wake-up round trip around the segment *)
}

(* A segment's latencies: the wake-up round trip measured around the
   segment is replaced by the nominal one, and the rest is scaled by the
   segment's factor. *)
let seg_latencies g =
  List.filter_map Fun.id
    (Array.to_list
       (Array.mapi
          (fun i (o : Loadgen.outcome) ->
            if o.Loadgen.done_ns = 0 then None
            else
              let l = Util.ms_of_ns (o.Loadgen.done_ns - g.run.Loadgen.due_ns.(i)) in
              Some ((Float.max 0. (l -. g.rtt_ms) *. g.scale) +. Probe.rtt_nominal_ms))
          g.run.Loadgen.outcomes))

(* Operations in one segment at [rate]. *)
let per_segment rate = max segment_ops (int_of_float rate * segment_s)

(* The schedule's length: [warm] segments whose answers are checked but
   not measured (the freshly started server's caches and heap settle in
   them), then [seconds] of measured load. *)
let schedule_length ~rate ~warm ~seconds = (warm * per_segment rate) + (int_of_float rate * seconds)

(* Run the schedule against [srv], check every answer against [expect]
   (body digests from the in-process reference), and compute the
   end-to-end metrics. [expect] is called after the server has been
   stopped, so reference work never overlaps the measurement. *)
let measure ~name ~srv ~rate ~warm ~ops ~setup ~setup_ok ~expect =
  let per_segment = per_segment rate in
  let readers = Loadgen.connect ~port:srv.Util.port ~conns:connections in
  let nseg = (Array.length ops + per_segment - 1) / per_segment in
  let boundary () = (List.init probe_runs (fun _ -> Probe.once ()), List.init rtt_runs (fun _ -> Probe.rtt ())) in
  let first = boundary () in
  let raw =
    List.init nseg (fun k ->
        let slice = Array.sub ops (k * per_segment) (min per_segment (Array.length ops - (k * per_segment))) in
        let ticks0 = Util.proc_cpu_ticks srv.Util.pid in
        let run = Loadgen.run ~readers ~rate ~timeout_s:30. slice in
        let ticks1 = Util.proc_cpu_ticks srv.Util.pid in
        (run, slice, ticks1 - ticks0, boundary ()))
  in
  Array.iter (fun rd -> Unix.close rd.Util.fd) readers;
  let bounds = Array.of_list (first :: List.map (fun (_, _, _, b) -> b) raw) in
  let segs =
    List.mapi
      (fun k (run, ops, ticks, _) ->
        (* boundaries k and k+1 enclose segment k; k-1 and k+2 are its
           neighbours *)
        let around = List.filteri (fun i _ -> i >= k - 1 && i <= k + 2) (Array.to_list bounds) in
        let kernel = List.concat_map fst around and rtts = List.concat_map snd around in
        {
          run;
          ops;
          scale = Probe.wall_scale kernel;
          cpu_ms = float_of_int ticks /. Util.clock_ticks_per_s *. 1e3 *. Probe.cpu_scale kernel;
          rtt_ms = Util.median rtts;
        })
      raw
  in
  let runs = List.map (fun g -> g.run) segs in
  let outcomes = Array.concat (List.map (fun r -> r.Loadgen.outcomes) runs) in
  let due_ns = Array.concat (List.map (fun r -> r.Loadgen.due_ns) runs) in
  let rss = Util.proc_vmhwm_kib srv.Util.pid in
  let counters = fetch_metrics srv.Util.port in
  Util.kill_server srv;
  let expected = expect () in
  let n = Array.length ops in
  let bad = ref 0 in
  Array.iteri
    (fun i (o : Loadgen.outcome) ->
      let ok =
        o.Loadgen.done_ns > 0 && o.Loadgen.status >= 200 && o.Loadgen.status < 300
        && o.Loadgen.digest = expected.(i)
      in
      if not ok then incr bad)
    outcomes;
  let grew = Loadgen.backlog_grew runs in
  (* a run whose backlog grows measured a queue, not the server *)
  let failed = if grew then n else !bad in
  let late = List.concat_map Loadgen.lateness_ms runs in
  let c k = Option.value ~default:0. (List.assoc_opt k counters) in
  let measured = List.filteri (fun k _ -> k >= warm) segs in
  let lat = List.concat_map seg_latencies measured in
  let measured_ops = List.fold_left (fun a g -> a + Array.length g.ops) 0 measured in
  let cpu_ms = Util.sum (List.map (fun g -> g.cpu_ms) measured) in
  let body_bytes =
    List.fold_left
      (fun a g -> Array.fold_left (fun a (op : Loadgen.op) -> a + String.length op.Loadgen.req.Util.body) a g.ops)
      0 measured
  in
  Report.line "%s: %d requests at %.0f/s over %d connections in %d segments of %d (%d warm-up), %d failed%s"
    name n rate connections nseg per_segment warm !bad
    (if grew then " (backlog grew: run failed)" else "");
  Report.line "%s: generator lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms; max backlog %d" name
    (Util.median late) (Util.quantile 0.99 late) (List.fold_left max 0. late)
    (List.fold_left (fun a r -> max a r.Loadgen.max_backlog) 0 runs);
  let routes = List.sort_uniq compare (Array.to_list (Array.map (fun (op : Loadgen.op) -> op.Loadgen.route) ops)) in
  List.iter
    (fun route ->
      let ls =
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i (o : Loadgen.outcome) ->
                  if ops.(i).Loadgen.route = route && o.Loadgen.done_ns > 0 then
                    Some (Util.ms_of_ns (o.Loadgen.done_ns - due_ns.(i)))
                  else None)
                outcomes))
      in
      Report.line "%s: route %-13s n=%5d unscaled p50 %.3f ms p90 %.3f ms" name route (List.length ls)
        (Util.median ls) (Util.quantile 0.9 ls))
    routes;
  Report.line
    "%s: server counters: cache hits %.0f misses %.0f invalidations %.0f; plan cache %.0f/%.0f; \
     compile cache %.0f/%.0f; hcons %.0f/%.0f"
    name (c "serve.cache.hits") (c "serve.cache.misses") (c "serve.cache.invalidations")
    (c "serve.plan_cache.hits") (c "serve.plan_cache.misses") (c "compile.cache.hits")
    (c "compile.cache.misses") (c "shape.hcons.hits") (c "shape.hcons.misses");
  let unscaled = List.concat_map (fun g -> seg_latencies { g with scale = 1.; rtt_ms = Probe.rtt_nominal_ms }) measured in
  Report.line "%s: unscaled p50 %.3f ms p90 %.3f ms; segment scales %s; round trips %s ms" name
    (Util.median unscaled) (Util.quantile 0.9 unscaled)
    (String.concat " " (List.map (fun g -> Printf.sprintf "%.3f" g.scale) segs))
    (String.concat " " (List.map (fun g -> Printf.sprintf "%.3f" g.rtt_ms) segs));
  Report.line "%s: setup_s samples %s" name (String.concat " " (List.map (Printf.sprintf "%.4f") setup));
  {
    Report.correct = !bad = 0 && setup_ok;
    attempted = n;
    failed;
    metrics =
      [
        ("p50_ms", Util.median lat, "ms");
        ("p90_ms", Util.quantile 0.9 lat, "ms");
        (* request bytes the server takes in per second of its CPU *)
        ("mib_per_s", float_of_int body_bytes /. 1048576. /. (cpu_ms /. 1e3), "MiB/s");
        ("cpu_ms_per_op", cpu_ms /. float_of_int measured_ops, "ms");
        ("peak_rss_mib", float_of_int rss /. 1024., "MiB");
        ("setup_s", Util.median setup, "s");
      ];
  }

module Registry = Fsdata_registry.Registry
module Shape = Fsdata_core.Shape
module Dv = Fsdata_data.Data_value
module Json = Fsdata_data.Json
module Metrics = Fsdata_obs.Metrics
module Clock = Fsdata_obs.Clock
module Trace = Fsdata_obs.Trace

(* --- instruments (docs/OBSERVABILITY.md, "evolve.*") --- *)

let g_hooks = Metrics.gauge "evolve.hooks"
let m_deliveries = Metrics.counter "evolve.deliveries"
let m_delivery_failures = Metrics.counter "evolve.delivery_failures"

type config = {
  base_backoff_ms : int;
  max_backoff_ms : int;
  timeout_s : float;
  io : Client.io option;
}

let default_config =
  { base_backoff_ms = 50; max_backoff_ms = 5_000; timeout_s = 5.; io = None }

let payload ~stream ~version ~shape =
  Json.to_string ~indent:2
    (Dv.Record
       ( Dv.json_record_name,
         [
           ("stream", Dv.String stream);
           ("version", Dv.Int version);
           ( "shape",
             match shape with
             | Some s -> Dv.String (Shape.to_string s)
             | None -> Dv.Null );
         ] ))
  ^ "\n"

type retry = { mutable backoff_ms : int; mutable due_ns : int64 }

type state = (string * string, retry) Hashtbl.t

let state () : state = Hashtbl.create 16

let retry_slot (s : state) key base =
  match Hashtbl.find_opt s key with
  | Some r -> r
  | None ->
      let r = { backoff_ms = base; due_ns = 0L } in
      Hashtbl.replace s key r;
      r

let set_hooks_gauge reg =
  let n =
    List.fold_left
      (fun acc st -> acc + List.length st.Registry.hooks)
      0 (Registry.list reg)
  in
  Metrics.gauge_set g_hooks (float_of_int n)

(* One delivery attempt: POST the next undelivered version, ack on 2xx.
   Any failure — refused connection, reset, timeout, non-2xx, or the ack
   append itself raising — counts as a failed attempt and backs off; the
   cursor only moves on a fully acknowledged delivery. *)
let attempt ?(cfg = default_config) reg st (h : Registry.hook) =
  let v = h.Registry.delivered + 1 in
  let body =
    payload ~stream:st.Registry.name ~version:v
      ~shape:(Registry.version_shape st v)
  in
  let result =
    Client.request ?io:cfg.io ~timeout_s:cfg.timeout_s
      ~headers:[ ("content-type", "application/json") ]
      ~meth:"POST" ~url:h.Registry.url ~body ()
  in
  match result with
  | Ok (status, _) when status >= 200 && status < 300 -> (
      match
        Registry.ack_delivery reg ~stream:st.Registry.name ~url:h.Registry.url
          ~version:v
      with
      | () ->
          Metrics.incr m_deliveries;
          true
      | exception Unix.Unix_error _ ->
          (* the POST landed but the durable cursor did not: redeliver
             later — at-least-once, never a skip *)
          Metrics.incr m_delivery_failures;
          false)
  | Ok _ | Error _ ->
      Metrics.incr m_delivery_failures;
      false

let step ?(cfg = default_config) (s : state) reg =
  Trace.with_span "evolve.deliver" @@ fun () ->
  set_hooks_gauge reg;
  let now = Clock.now_ns () in
  let next = ref infinity in
  let sooner seconds = if seconds < !next then next := seconds in
  List.iter
    (fun st ->
      List.iter
        (fun (h : Registry.hook) ->
          if h.Registry.delivered < st.Registry.version then begin
            let key = (st.Registry.name, h.Registry.url) in
            let r = retry_slot s key cfg.base_backoff_ms in
            if r.due_ns <= now then
              if attempt ~cfg reg st h then begin
                r.backoff_ms <- cfg.base_backoff_ms;
                r.due_ns <- 0L;
                (* more versions may be pending behind this one *)
                sooner 0.
              end
              else begin
                r.due_ns <-
                  Int64.add (Clock.now_ns ())
                    (Int64.of_int (r.backoff_ms * 1_000_000));
                r.backoff_ms <- min cfg.max_backoff_ms (r.backoff_ms * 2);
                sooner (float_of_int r.backoff_ms /. 1e3)
              end
            else
              sooner (Int64.to_float (Int64.sub r.due_ns now) /. 1e9)
          end)
        st.Registry.hooks)
    (Registry.list reg);
  !next

let loop ?(cfg = default_config) ~notify ~stop reg =
  let s = state () in
  let w = Notify.waiter notify in
  Fun.protect ~finally:(fun () -> Notify.close_waiter w) @@ fun () ->
  while not (stop ()) do
    let next = step ~cfg s reg in
    (* park until the next due retry or a push wakes us; cap the nap so
       [stop] is honoured within a bounded delay *)
    let nap = Float.min 0.25 (Float.max 0.005 next) in
    if next > 0. then ignore (Notify.await w ~seconds:nap)
  done

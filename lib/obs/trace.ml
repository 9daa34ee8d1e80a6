type span = {
  id : int;
  parent : int;
  name : string;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
  args : (string * string) list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* One buffer per domain, touched only by its owner domain on the hot
   path; the global registry (guarded by a mutex) is appended to once
   per domain, on its first span, and read by {!spans} after workers
   have been joined. Buffers outlive their domain, which is exactly how
   a worker's spans survive [Domain.join]. *)
type buffer = {
  dom : int;
  mutable recorded : span list; (* finished spans, newest first *)
  mutable stack : int list; (* open span ids, innermost first *)
}

let registry : buffer list ref = ref []
let registry_mutex = Mutex.create ()
let next_id = Atomic.make 0

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let buf =
        { dom = (Domain.self () :> int); recorded = []; stack = [] }
      in
      Mutex.protect registry_mutex (fun () -> registry := buf :: !registry);
      buf)

let with_span ?(args = []) ?late_args name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let buf = Domain.DLS.get buffer_key in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = match buf.stack with [] -> -1 | p :: _ -> p in
    buf.stack <- id :: buf.stack;
    let start_ns = Clock.now_ns () in
    let finish () =
      let dur_ns = Int64.sub (Clock.now_ns ()) start_ns in
      (match buf.stack with
      | top :: rest when top = id -> buf.stack <- rest
      | stack -> buf.stack <- List.filter (fun s -> s <> id) stack);
      let args =
        match late_args with None -> args | Some late -> args @ late ()
      in
      buf.recorded <-
        { id; parent; name; domain = buf.dom; start_ns; dur_ns; args }
        :: buf.recorded
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        finish ();
        Printexc.raise_with_backtrace e bt
  end

let all_buffers () = Mutex.protect registry_mutex (fun () -> !registry)

let reset () =
  List.iter (fun b -> b.recorded <- []) (all_buffers ())

let spans () =
  all_buffers ()
  |> List.concat_map (fun b -> b.recorded)
  |> List.sort (fun a b ->
         match Int64.compare a.start_ns b.start_ns with
         | 0 -> Int.compare a.id b.id
         | c -> c)

let aggregate () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let count, total =
        match Hashtbl.find_opt tbl s.name with
        | Some (c, t) -> (c, t)
        | None -> (0, 0L)
      in
      Hashtbl.replace tbl s.name (count + 1, Int64.add total s.dur_ns))
    (spans ());
  Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* ----- Chrome trace_event export ----- *)

let escape_json buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_trace_event_json () =
  let ss = spans () in
  let base = match ss with [] -> 0L | s :: _ -> s.start_ns in
  let us ns = Int64.to_float ns /. 1e3 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n{\"name\":";
      escape_json buf s.name;
      (* ts/dur are microsecond floats; always print a fractional part so
         every event has the same JSON number shape *)
      Printf.ksprintf (Buffer.add_string buf)
        ",\"cat\":\"fsdata\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
        (us (Int64.sub s.start_ns base))
        (us s.dur_ns) s.domain;
      if s.args <> [] then begin
        Buffer.add_string buf ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char buf ',';
            escape_json buf k;
            Buffer.add_char buf ':';
            escape_json buf v)
          s.args;
        Buffer.add_char buf '}'
      end;
      Buffer.add_char buf '}')
    ss;
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

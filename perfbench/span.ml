(* Spans recorded by the traced run around each call into a layer.

   A span has a name, a start, an end, a parent (the span open when it
   began) and a request id shared by every span that serves one request
   or one CLI job. Spans are kept in memory and written out at exit.
   With recording off, [with_] is a plain call: that is the untraced
   pass the tracing overhead is measured against. *)

type t = {
  id : int;
  name : string;
  rid : int;
  parent : int;  (** -1 at the root *)
  start_ns : int;
  mutable stop_ns : int;
}

let enabled = ref false
let spans : t list ref = ref []
let next_id = ref 0
let stack : t list ref = ref []
let rid = ref 0

let with_ name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let s = { id = !next_id; name; rid = !rid; parent; start_ns = Util.now_ns (); stop_ns = 0 } in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.stop_ns <- Util.now_ns ();
      stack := List.tl !stack;
      spans := s :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Run [f] as request [r]: every span it opens carries that id. *)
let request r name f =
  rid := r;
  with_ name f

let duration s = s.stop_ns - s.start_ns

(* Self time: the span's duration minus the part of its interval that its
   children cover (children of one parent never overlap here, since the
   benchmark is single-threaded, so the covered part is their sum). *)
let self_times all =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s) all;
  List.map
    (fun s ->
      let covered = List.fold_left (fun a c -> a + duration c) 0 (Hashtbl.find_all children s.id) in
      (s, duration s - covered))
    all

(* name -> (count, total duration ns, total self ns) *)
let aggregate all =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, d, st = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt h s.name) in
      Hashtbl.replace h s.name (n + 1, d + duration s, st + self))
    (self_times all);
  h

let write path all =
  let oc = open_out_bin path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s\n{\"id\":%d,\"name\":%S,\"rid\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}"
        (if i = 0 then "" else ",")
        s.id s.name s.rid s.parent s.start_ns s.stop_ns)
    (List.sort (fun a b -> compare a.id b.id) all);
  output_string oc "\n]\n";
  close_out oc

open Fsdata_core
open Syntax

let m_plans = Fsdata_obs.Metrics.counter "query.plans"
let m_evals = Fsdata_obs.Metrics.counter "query.evals"

(* ----- Access-path compilation ----- *)

(* The compiled decoder emits record fields in shape order
   (Shape_compile.convert builds them from the shape's field list, and
   the direct decoder is pinned to convert), so a path through the
   pruned shape resolves statically to integer slot indices. A path
   that leaves the statically known region — only reachable through
   [Vany] positions the checker refused to traverse — falls back to
   name-based access, which is semantically identical. *)
let slot_walk (idxs : int array) (v : Shape_compile.tvalue) :
    Shape_compile.tvalue =
  let n = Array.length idxs in
  let rec go i v =
    if i = n then v
    else
      match v with
      | Shape_compile.Vrecord (_, fields) -> go (i + 1) (snd fields.(idxs.(i)))
      | _ -> Shape_compile.Vnull
  in
  go 0 v

let accessor (shape : Shape.t) (p : path) :
    (Shape_compile.tvalue -> Shape_compile.tvalue) * Shape.t =
  let rec go shape p idxs =
    match p with
    | [] -> Some (List.rev idxs, shape)
    | f :: rest -> (
        match Shape.strip_nullable shape with
        | Shape.Record { fields; _ } ->
            let rec find i = function
              | [] -> None
              | (k, s) :: _ when String.equal k f -> Some (i, s)
              | _ :: tl -> find (i + 1) tl
            in
            (match find 0 fields with
            | Some (i, s) -> go s rest (i :: idxs)
            | None -> None)
        | _ -> None)
  in
  match go shape p [] with
  | Some (idxs, endshape) ->
      let idxs = Array.of_list idxs in
      ((fun v -> slot_walk idxs v), endshape)
  | None -> ((fun v -> Value.get v p), Shape.any)

(* ----- Stage compilation ----- *)

type cstage =
  | CWhere of (Shape_compile.tvalue -> bool)
  | CSelect of (string * (Shape_compile.tvalue -> Shape_compile.tvalue)) array
  | CMap of (Shape_compile.tvalue -> Shape_compile.tvalue)
  | CTake of int
  | CCount
  | CBuild  (* the row's deferred slots are built here *)

type plan = {
  checked : Check.checked;
  dec : Shape_compile.compiled;
  prog : cstage list;
}

let checked p = p.checked

let rec compile_pred shape (p : pred) : Shape_compile.tvalue -> bool =
  match p with
  | Compare (path, c, lit) ->
      let get, _ = accessor shape path in
      fun v -> Value.test_compare (get v) c lit
  | Exists path ->
      let get, _ = accessor shape path in
      fun v -> Value.exists (get v)
  | And (a, b) ->
      let fa = compile_pred shape a and fb = compile_pred shape b in
      fun v -> fa v && fb v
  | Or (a, b) ->
      let fa = compile_pred shape a and fb = compile_pred shape b in
      fun v -> fa v || fb v
  | Not a ->
      let fa = compile_pred shape a in
      fun v -> not (fa v)

(* ----- Deferred slots ----- *)

let rec pred_paths = function
  | Compare (p, _, _) | Exists p -> [ p ]
  | And (a, b) | Or (a, b) -> pred_paths a @ pred_paths b
  | Not a -> pred_paths a

(* How many stages run through the last [where] *)
let through_last_where query =
  fst
    (List.fold_left
       (fun (k, i) stage -> ((match stage with Where _ -> i + 1 | _ -> k), i + 1))
       (0, 0) query)

(* The root fields the decoder may defer: those that no stage of [upto],
   the stages through the last [where], reads. Such a stage reads the
   root up to the first [select] or [map], which reads it too; later
   stages read what that projection made of it. With no [where], every
   row is kept, and nothing is deferred. *)
let deferrable (shape : Shape.t) upto =
  match shape with
  | Shape.Record { fields; _ } when upto <> [] ->
      let rec reads = function
        | [] -> []
        | Where p :: rest -> pred_paths p @ reads rest
        | Select ps :: _ -> ps
        | Map p :: _ -> [ p ]
        | (Take _ | Count) :: rest -> reads rest
      in
      let read = reads upto in
      if List.mem [] read then []
      else
        List.filter_map
          (fun (f, _) ->
            if List.exists (fun p -> String.equal (List.hd p) f) read then None else Some f)
          fields
  | _ -> []

let compile (c : Check.checked) : plan =
  Fsdata_obs.Trace.with_span "query.plan" @@ fun () ->
  Fsdata_obs.Metrics.incr m_plans;
  let rec stages shape = function
    | [] -> []
    | Where p :: rest -> CWhere (compile_pred shape p) :: stages shape rest
    | Select ps :: rest ->
        let fields =
          List.map
            (fun p ->
              let name = List.hd (List.rev p) in
              let get, s = accessor shape p in
              ((name, get), (name, s)))
            ps
        in
        let shape' =
          Shape.record Fsdata_data.Data_value.json_record_name
            (List.map snd fields)
        in
        CSelect (Array.of_list (List.map fst fields)) :: stages shape' rest
    | Map p :: rest ->
        let get, s = accessor shape p in
        CMap get :: stages s rest
    | Take n :: rest -> CTake n :: stages shape rest
    | Count :: rest -> CCount :: stages shape rest
  in
  let k = through_last_where c.query in
  let defer = deferrable c.pruned (List.filteri (fun i _ -> i < k) c.query) in
  let prog = stages c.pruned c.query in
  let prog =
    if defer = [] then prog
    else List.filteri (fun i _ -> i < k) prog @ (CBuild :: List.filteri (fun i _ -> i >= k) prog)
  in
  { checked = c; dec = Shape_compile.compile ~defer c.pruned; prog }

(* ----- Evaluation ----- *)

exception Stop

type rstage =
  | RWhere of (Shape_compile.tvalue -> bool)
  | RSelect of (string * (Shape_compile.tvalue -> Shape_compile.tvalue)) array
  | RMap of (Shape_compile.tvalue -> Shape_compile.tvalue)
  | RTake of int ref
  | RCount
  | RBuild

let eval ?cancel (p : plan) (src : string) : Value.result =
  Fsdata_obs.Trace.with_span "query.eval_fast" @@ fun () ->
  Fsdata_obs.Metrics.incr m_evals;
  let scanned = ref 0
  and matched = ref 0
  and skipped = ref 0
  and malformed = ref 0 in
  let out = ref [] in
  let stages =
    List.map
      (function
        | CWhere f -> RWhere f
        | CSelect fs -> RSelect fs
        | CMap f -> RMap f
        | CTake n -> RTake (ref n)
        | CCount -> RCount
        | CBuild -> RBuild)
      p.prog
  in
  let deferred = Shape_compile.deferred p.dec in
  let counting = List.exists (function RCount -> true | _ -> false) stages in
  let rec run stages v =
    match stages with
    | [] ->
        incr matched;
        out := v :: !out
    | RWhere f :: rest -> if f v then run rest v
    | RSelect fields :: rest ->
        run rest
          (Shape_compile.Vrecord
             ( Fsdata_data.Data_value.json_record_name,
               Array.map (fun (name, get) -> (name, get v)) fields ))
    | RMap f :: rest -> run rest (f v)
    | RTake r :: rest ->
        if !r <= 0 then raise Stop
        else begin
          decr r;
          run rest v;
          if !r = 0 then raise Stop
        end
    | RCount :: _ -> incr matched
    | RBuild :: rest ->
        Shape_compile.build deferred v;
        run rest v
  in
  let () =
    let (), _dstats =
      Shape_compile.fold_corpus ?cancel ~deferred
        ~on_error:(fun _ ~skipped:_ -> incr malformed)
        p.dec
        (fun () outcome ->
          match outcome with
          | Shape_compile.Direct v -> (
              incr scanned;
              match run stages v with
              | () -> `Continue ()
              | exception Stop -> `Stop ())
          | Shape_compile.Fallback _ ->
              incr scanned;
              incr skipped;
              `Continue ())
        () src
    in
    ()
  in
  let rows =
    if counting then [ Shape_compile.Vint !matched ] else List.rev !out
  in
  let stats : Value.stats =
    {
      scanned = !scanned;
      matched = !matched;
      skipped = !skipped;
      malformed = !malformed;
    }
  in
  Value.record_stats stats;
  { Value.rows; stats }

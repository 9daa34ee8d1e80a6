open Fsdata_data
module Raw = Json.Raw

(* Observability (docs/OBSERVABILITY.md): how many parsers were compiled
   and at what cost, and how documents were decoded. Registered at module
   initialization so the exported key set does not depend on which paths
   a run exercises. *)
let m_parsers = Fsdata_obs.Metrics.counter "compile.parsers"
let m_build_ns = Fsdata_obs.Metrics.counter "compile.build_ns"
let m_direct = Fsdata_obs.Metrics.counter "compile.docs_direct"
let m_fallback = Fsdata_obs.Metrics.counter "compile.docs_fallback"

(* ----- Target representation ----- *)

type tvalue =
  | Vnull
  | Vbool of bool
  | Vint of int
  | Vfloat of float
  | Vstring of string
  | Vdate of Date.t
  | Vlist of tvalue array
  | Vrecord of string * (string * tvalue) array
  | Vany of Data_value.t

let rec equal_tvalue a b =
  match (a, b) with
  | Vnull, Vnull -> true
  | Vbool a, Vbool b -> Bool.equal a b
  | Vint a, Vint b -> Int.equal a b
  | Vfloat a, Vfloat b -> Float.equal a b
  | Vstring a, Vstring b -> String.equal a b
  | Vdate a, Vdate b -> Date.equal a b
  | Vlist a, Vlist b ->
      Array.length a = Array.length b
      && Array.for_all2 (fun x y -> equal_tvalue x y) a b
  | Vrecord (n, a), Vrecord (m, b) ->
      String.equal n m
      && Array.length a = Array.length b
      && Array.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && equal_tvalue va vb)
           a b
  | Vany a, Vany b -> Data_value.equal a b
  | _ -> false

let rec to_data = function
  | Vnull -> Data_value.Null
  | Vbool b -> Data_value.Bool b
  | Vint i -> Data_value.Int i
  | Vfloat f -> Data_value.Float f
  | Vstring s -> Data_value.String s
  | Vdate d -> Data_value.String (Date.to_iso8601 d)
  | Vlist items -> Data_value.List (Array.to_list (Array.map to_data items))
  | Vrecord (name, fields) ->
      Data_value.Record
        (name, Array.to_list (Array.map (fun (k, v) -> (k, to_data v)) fields))
  | Vany d -> d

(* ----- The interpreted reference conversion ----- *)

exception Mismatch

(* The value a missing record field decodes to, mirroring the
   missing-field closure of [Shape_check.has_shape]: a missing field
   passes iff its shape admits null ([admits_null]), and is
   observationally a null — so nullables and null read as null,
   collections as the empty list, tops as an unconstrained null. Note
   this is deliberately more lenient than [has_shape s Null] for
   collections with exactly-once entries, matching the spec. *)
let missing_field_default (s : Shape.t) : tvalue option =
  match s with
  | Null | Nullable _ -> Some Vnull
  | Collection _ -> Some (Vlist [||])
  | Top _ -> Some (Vany Data_value.Null)
  | Bottom | Primitive _ | Record _ -> None

let prim_of_value (p : Shape.primitive) (d : Data_value.t) : tvalue =
  match (p, d) with
  | Shape.Int, Int i -> Vint i
  | Shape.Float, Int i -> Vfloat (float_of_int i)
  | Shape.Float, Float f -> Vfloat f
  | Shape.Bool, Bool b -> Vbool b
  | Shape.Bool, Int ((0 | 1) as i) -> Vbool (i = 1)
  | Shape.Bit, Int ((0 | 1) as i) -> Vbool (i = 1)
  | Shape.Bit0, Int 0 -> Vint 0
  | Shape.Bit1, Int 1 -> Vint 1
  | Shape.Date, String s -> (
      match Date.of_string s with Some d -> Vdate d | None -> raise Mismatch)
  | Shape.String, String s -> Vstring s
  | _ -> raise Mismatch

let non_null_entries entries =
  List.filter (fun (e : Shape.entry) -> e.shape <> Shape.Null) entries

let has_null_entry entries =
  List.exists (fun (e : Shape.entry) -> e.shape = Shape.Null) entries

let describe (d : Data_value.t) =
  match d with
  | Null -> "null"
  | Bool _ -> "a boolean"
  | Int i -> Printf.sprintf "the int %d" i
  | Float _ -> "a float"
  | String s ->
      if String.length s > 24 then
        Printf.sprintf "the string %S..." (String.sub s 0 24)
      else Printf.sprintf "the string %S" s
  | List _ -> "a collection"
  | Record (name, _) ->
      if String.equal name Data_value.json_record_name then "a record"
      else Printf.sprintf "a record named %s" name

(* The first violation of [has_shape]: the steps from the root to it in
   the JSONPath-ish notation of [Explain] (["." ^ field], ["[i]"]), what
   was expected there and what was found. A step joins the path as the
   violation leaves the field or element it names, so a conforming
   value builds no path. *)
exception Violation of string list * string * string

let violation expected found = raise (Violation ([], expected, found))

(* [conv s d] is Fig. 6's conversion of the normalized value [d] through
   [s], defined exactly where [Shape_check.has_shape s d] holds, and
   [Violation] names the first place it fails. *)
let rec conv (s : Shape.t) (d : Data_value.t) : tvalue =
  match (s, d) with
  | Shape.Bottom, _ -> violation "nothing (bottom)" (describe d)
  | Shape.Null, Null -> Vnull
  | Shape.Null, _ -> violation "null" (describe d)
  | Shape.Top _, d -> Vany d
  | Shape.Nullable _, Null -> Vnull
  | Shape.Nullable s', d -> conv s' d
  | Shape.Primitive p, d -> (
      try prim_of_value p d
      with Mismatch -> violation (Shape.to_string s) (describe d))
  | Shape.Record { name; fields }, Record (name', dfields)
    when String.equal name name' ->
      let conv_field (f, fs) =
        match List.assoc_opt f dfields with
        | Some v -> (
            try (f, conv fs v)
            with Violation (path, e, a) ->
              raise (Violation (("." ^ f) :: path, e, a)))
        | None -> (
            match missing_field_default fs with
            | Some t -> (f, t)
            | None ->
                raise
                  (Violation ([ "." ^ f ], Shape.to_string fs, "a missing field")))
      in
      Vrecord (name, Array.of_list (List.map conv_field fields))
  | Shape.Record { name; _ }, _ ->
      violation (Printf.sprintf "a record named %s" name) (describe d)
  | Shape.Collection _, Null ->
      if Shape_check.has_shape s Data_value.Null then Vlist [||]
      else
        violation (Shape.to_string s)
          "null (an exactly-once entry cannot be supplied)"
  | Shape.Collection entries, List ds ->
      Vlist (Array.of_list (conv_elements entries ds))
  | Shape.Collection _, _ -> violation (Shape.to_string s) (describe d)

and conv_elements entries ds =
  let elements conv_one =
    List.mapi
      (fun i d ->
        try conv_one d
        with Violation (path, e, a) ->
          raise (Violation (Printf.sprintf "[%d]" i :: path, e, a)))
      ds
  in
  match non_null_entries entries with
  | [] ->
      (* [⊥]-like collections: only null elements conform *)
      elements (conv Shape.Null)
  | [ f ] ->
      (* single non-null entry: homogeneous check of every element *)
      let null_ok = has_null_entry entries in
      elements (function
        | Data_value.Null when null_ok -> Vnull
        | Data_value.Null -> (
            try conv f.shape Data_value.Null
            with Violation _ -> violation (Shape.to_string f.shape) "null")
        | d -> conv f.shape d)
  | consumers ->
      (* several entries: dispatch by exhibited tag, open world for
         unknown tags and nulls *)
      let items =
        elements (function
          | Data_value.Null -> Vnull
          | d -> (
              let t = Shape_check.tag_of_data d in
              match
                List.find_opt
                  (fun (e : Shape.entry) -> Tag.equal (Shape.tagof e.shape) t)
                  consumers
              with
              | Some e -> conv e.shape d
              | None -> Vany d))
      in
      (* exactly-once entries must actually be matched by some element *)
      List.iter
        (fun (e : Shape.entry) ->
          if
            e.mult = Multiplicity.Single
            && not (List.exists (fun d -> Shape_check.has_shape e.shape d) ds)
          then
            violation
              (Printf.sprintf "exactly one element of shape %s"
                 (Shape.to_string e.shape))
              "a collection with none")
        consumers;
      items

let convert s d = try conv s d with Violation _ -> raise Mismatch

let diagnostic ?index path expected found =
  Diagnostic.make ?index ~severity:Diagnostic.Warning ~format:Diagnostic.Json ~line:0
    ~column:0
    (Printf.sprintf
       "document does not have the expected shape at %s: expected %s, found %s"
       (String.concat "" ("$" :: path))
       expected found)

let diagnose s d =
  match conv s d with
  | _ -> None
  | exception Violation (path, expected, found) ->
      Some (diagnostic path expected found)

(* ----- Compilation ----- *)

(* A decoder consumes one JSON value from the raw lexer state and
   produces its direct representation. It may raise {!Mismatch} eagerly
   at any point — [Json.Reader] (or [parse]) rewinds to the document
   start and re-derives the truth on the generic path, so decoders never
   need to repair the cursor themselves — and it may raise
   [Diagnostic.Parse_error] through the shared lexer on malformed
   syntax. *)
type decoder = Raw.state -> tvalue

(* A compiled shape, split by the exhibited class of the next token:
   structured openers get dedicated decoders (the opener is peeked, not
   consumed), while scalar tokens are lexed once by the {!run} driver.
   Number/boolean/null tokens reach [of_scalar] as data values; string
   literals reach [of_slice] raw, as their content where it lies ([s]
   from [off] for [len] bytes: the source itself when the literal needs
   no decoding), so each shape runs only the part of
   [Primitive.to_value]'s classification cascade that can change its
   verdict and copies only what it keeps (a [string]-shaped slot, e.g.,
   never runs the date scanner: both the date and the string reading
   keep the raw string; a number slot reads the number in place). The
   split is what keeps the hot path single-scan: a nullable payload or a
   collection element never rewinds to re-lex a token its null check
   already consumed. *)
type compiled_shape = {
  on_record : decoder;  (* next character is '{' *)
  on_array : decoder;  (* next character is '[' *)
  of_scalar : Data_value.t -> tvalue;  (* a lexed number/bool/null token *)
  of_slice : string -> int -> int -> tvalue;  (* a string literal's content, unclassified *)
}

(* Every token rejected: the base the shapes below override. *)
let reject =
  let no _ = raise Mismatch in
  { on_record = no; on_array = no; of_scalar = no; of_slice = (fun _ _ -> no) }

(* Decode one value against a compiled shape: dispatch on the first
   token character. Structured openers are left for the shape's own
   decoder to consume. *)
let run (cs : compiled_shape) : decoder =
 fun st ->
  Raw.skip_ws st;
  match Raw.peek_char st with
  | '{' -> cs.on_record st
  | '[' -> cs.on_array st
  | '"' -> Raw.read_string st cs.of_slice
  | '-' | '0' .. '9' -> cs.of_scalar (Raw.parse_number st)
  | 't' | 'f' | 'n' -> cs.of_scalar (Raw.parse_value st)
  | _ -> raise Mismatch

(* Decode one generic value and normalize it: the unconstrained-position
   reader (top shapes, unknown tags, fallback). *)
let dec_any st = Vany (Primitive.normalize (Raw.parse_value st))

(* ----- Shape-directed literal classification -----

   Every [of_slice] below is extensionally [of_scalar] composed with
   [fst (Primitive.to_value (String.sub s off len))] — the differential
   suite checks this — but runs only the classification steps whose
   outcome the expected shape can observe, in [Primitive.classify]'s
   priority order, on the literal where it lies. *)

(* The slice as a string of its own: a decoded literal is not copied
   again *)
let sub s off len = if off = 0 && len = String.length s then s else String.sub s off len

let prim_of_slice (p : Shape.primitive) : string -> int -> int -> tvalue =
  match p with
  | Shape.Int -> (
      fun s off len ->
        match Primitive.int_sub s off len with
        | Some i -> Vint i
        | None -> raise Mismatch)
  | Shape.Float -> (
      fun s off len ->
        match Primitive.float_sub s off len with
        | Some f -> Vfloat f
        | None -> raise Mismatch)
  | Shape.Bool -> (
      fun s off len ->
        match Primitive.int_sub s off len with
        | Some 0 -> Vbool false
        | Some 1 -> Vbool true
        | Some _ -> raise Mismatch
        | None -> (
            match Primitive.parse_bool (sub s off len) with
            | Some b -> Vbool b
            | None -> raise Mismatch))
  | Shape.Bit -> (
      fun s off len ->
        match Primitive.int_sub s off len with
        | Some 0 -> Vbool false
        | Some 1 -> Vbool true
        | _ -> raise Mismatch)
  | Shape.Bit0 -> (
      fun s off len ->
        match Primitive.int_sub s off len with
        | Some 0 -> Vint 0
        | _ -> raise Mismatch)
  | Shape.Bit1 -> (
      fun s off len ->
        match Primitive.int_sub s off len with
        | Some 1 -> Vint 1
        | _ -> raise Mismatch)
  | Shape.Date -> (
      fun s off len ->
        if not (Primitive.is_text s off len) then raise Mismatch
        else
          match Date.of_sub s off len with
          | Some d -> Vdate d
          | None -> raise Mismatch)
  | Shape.String ->
      fun s off len -> if Primitive.is_text s off len then Vstring (sub s off len) else raise Mismatch

let slot_missing = Vany (Data_value.String "\000fsdata-compile-missing")

(* A record field not read (yet): physically distinct from every field
   a decoder produces or a default supplies. *)
let field_missing = ("", slot_missing)

(* A compiled record shape, slot by slot in the shape's field order. A
   deferred slot (see {!compile}) has a check: the value is checked
   where it lies, its offset noted, and the slot holds its [pending]
   field until the row is built. *)
type record_slots = {
  keys : string array;
  table : Raw.keys;  (** the keys' table; reads past a key no slot has *)
  decs : decoder array;
  defaults : (string * tvalue) option array;  (** for an absent field *)
  checks : (Raw.state -> unit) option array;  (** a deferred slot's check *)
  pending : (string * tvalue) array;  (** a deferred slot's field until built *)
}

(* Decode the members of an opened object into [out], through its
   closing '}'. [m] is what [Raw.wanted] answered: a key is matched in
   place against the slot at [expected] (fields usually arrive in shape
   order), and otherwise scanned once and looked up in the record's key
   table; a member whose key matches no slot was read past on its
   tokens, its value by [Raw.skip_value], which builds nothing and
   faults where the parser does, so a malformed document stays
   malformed. Only a key written with an escape is decoded, and found
   in the same table. A deferred slot's value is checked and its
   offset noted in [offs]. A repeated key overwrites its slot, or its
   offset: the last binding wins, as in the generic parser. *)
let rec decode_members r st out offs expected = function
  | -2 -> ()
  | -3 -> raise Mismatch
  | m ->
      let slot =
        if m >= 0 then m lsr 8
        else begin
          let key = Raw.parse_string st in
          ignore (Raw.colon st);
          Raw.find r.table key
        end
      in
      if slot < 0 then Raw.skip_value st
      else begin
        match r.checks.(slot) with
        | None -> out.(slot) <- (r.keys.(slot), r.decs.(slot) st)
        | Some check ->
            offs.(slot) <- Raw.offset st;
            check st;
            out.(slot) <- r.pending.(slot)
      end;
      let expected = if slot >= 0 then slot + 1 else expected in
      decode_members r st out offs expected (Raw.next_wanted st r.table ~from:expected)

(* An object at the cursor, through its closing '}', as the record
   [name] with slots [r] *)
let decode_record r name offs st =
  let nslots = Array.length r.keys in
  let out = Array.make nslots field_missing in
  if not (Raw.open_ st '}') then
    decode_members r st out offs 0 (Raw.wanted st r.table ~from:0);
  for i = 0 to nslots - 1 do
    if out.(i) == field_missing then
      match r.defaults.(i) with
      | Some field -> out.(i) <- field
      | None -> raise Mismatch
  done;
  Vrecord (name, out)

let rec compile_shape (s : Shape.t) : compiled_shape =
  match s with
  | Shape.Bottom -> reject
  | Shape.Null ->
      { reject with
        of_scalar =
          (function Data_value.Null -> Vnull | _ -> raise Mismatch);
        of_slice =
          (fun s off len ->
            if Primitive.is_missing s off len then Vnull else raise Mismatch);
      }
  | Shape.Top _ ->
      { on_record = dec_any; on_array = dec_any;
        of_scalar = (fun v -> Vany v);
        of_slice = (fun s off len -> Vany (fst (Primitive.to_value (sub s off len)))) }
  | Shape.Primitive p ->
      { reject with of_scalar = prim_of_value p; of_slice = prim_of_slice p }
  | Shape.Nullable s' ->
      (* a null token (or a literal normalizing to null) short-circuits;
         everything else is the payload's business, same token *)
      let cs = compile_shape s' in
      {
        cs with
        of_scalar =
          (function Data_value.Null -> Vnull | v -> cs.of_scalar v);
        of_slice =
          (fun s off len ->
            if Primitive.is_missing s off len then Vnull else cs.of_slice s off len);
      }
  | Shape.Record { name; fields } ->
      if not (String.equal name Data_value.json_record_name) then
        (* JSON objects are all named [json_record_name]; an XML-derived
           record shape can never match JSON input directly *)
        reject
      else
        let r = record_slots ~check:(fun _ _ -> None) fields in
        { reject with on_record = decode_record r name [||] }
  | Shape.Collection entries -> compile_collection entries

(* The slots of a JSON record shape's [fields]; [check] gives the check
   of each slot that is deferred *)
and record_slots ~check fields : record_slots =
  let fields = Array.of_list fields in
  let keys = Array.map fst fields in
  {
    keys;
    table = Raw.keys ~skip:true keys;
    decs = Array.map (fun (_, fs) -> run (compile_shape fs)) fields;
    defaults =
      Array.map
        (fun (key, fs) -> Option.map (fun t -> (key, t)) (missing_field_default fs))
        fields;
    checks = Array.map (fun (key, fs) -> check key fs) fields;
    pending = Array.map (fun (key, _) -> (key, slot_missing)) fields;
  }

and compile_collection entries : compiled_shape =
  let null_ok =
    Shape_check.has_shape (Shape.Collection entries) Data_value.Null
  in
  let dec_elements = compile_elements entries in
  {
    reject with
    on_array = (fun st -> Vlist (dec_elements st));
    of_scalar =
      (* a null (or a literal normalizing to null) reads as the empty
         collection when the shape admits it *)
      (function
      | Data_value.Null when null_ok -> Vlist [||]
      | _ -> raise Mismatch);
    of_slice =
      (fun s off len ->
        if null_ok && Primitive.is_missing s off len then Vlist [||]
        else raise Mismatch);
  }

(* Decode the elements of the array at the cursor, through its closing
   ']', returning them in order. *)
and compile_elements entries : Raw.state -> tvalue array =
  let dec_one = run (compile_element entries) in
  fun st ->
    let rec elements items =
      let items = dec_one st :: items in
      match Raw.after st ']' with
      | 1 -> elements items
      | 0 -> List.rev items
      | _ -> raise Mismatch
    in
    finish_elements entries (if Raw.open_ st ']' then [] else elements [])

and finish_elements entries items =
  (* Exactly-once entries of a multi-entry collection must be matched by
     some element. The compiled path tracks only which entry each element
     decoded through; an element can also satisfy an entry it did not
     decode through (a top-shaped entry, a null against a collection
     entry), so rather than re-deriving [has_shape] here we are
     conservative: when the cheap check fails, raise and let the generic
     fallback decide — it either converts cleanly (no diagnostic) or
     produces the exact diagnosis. *)
  match non_null_entries entries with
  | [] | [ _ ] -> Array.of_list items
  | consumers ->
      List.iter
        (fun (e : Shape.entry) ->
          if
            e.mult = Multiplicity.Single
            && not
                 (List.exists
                    (fun t -> Shape_check.has_shape e.shape (to_data t))
                    items)
          then raise Mismatch)
        consumers;
      Array.of_list items

and compile_element entries : compiled_shape =
  let null_ok = has_null_entry entries in
  match non_null_entries entries with
  | [] -> compile_shape Shape.Null (* only null elements conform *)
  | [ f ] ->
      let cs = compile_shape f.shape in
      let null_elem =
        if null_ok then Some Vnull
        else
          match convert f.shape Data_value.Null with
          | t -> Some t
          | exception Mismatch -> None
      in
      let as_null () =
        match null_elem with Some t -> t | None -> raise Mismatch
      in
      {
        cs with
        of_scalar =
          (function Data_value.Null -> as_null () | v -> cs.of_scalar v);
        of_slice =
          (fun s off len ->
            if Primitive.is_missing s off len then as_null ()
            else cs.of_slice s off len);
      }
  | consumers ->
      (* dispatch on the exhibited tag of the next token; unknown tags
         are never accessed by provided code and read as [Vany] *)
      let consumer tag =
        List.find_opt
          (fun (e : Shape.entry) -> Tag.equal (Shape.tagof e.shape) tag)
          consumers
      in
      let struct_for tag proj =
        match consumer tag with
        | Some e -> proj (compile_shape e.shape)
        | None -> dec_any
      in
      let scalar_for tag =
        match consumer tag with
        | Some e -> (compile_shape e.shape).of_scalar
        | None -> fun v -> Vany v
      in
      let on_number = scalar_for Tag.Number in
      let on_bool = scalar_for Tag.Bool in
      let on_string = scalar_for Tag.String in
      let of_scalar =
        (* the literal decides the tag only after normalization:
           "12" exhibits Number, "" exhibits Null *)
        function
        | Data_value.Null -> Vnull
        | (Data_value.Int _ | Data_value.Float _) as v -> on_number v
        | Data_value.Bool _ as v -> on_bool v
        | v -> on_string v
      in
      {
        on_record =
          struct_for (Tag.Record Data_value.json_record_name) (fun cs ->
              cs.on_record);
        on_array = struct_for Tag.Collection (fun cs -> cs.on_array);
        of_scalar;
        of_slice = (fun s off len -> of_scalar (fst (Primitive.to_value (sub s off len))));
      }

(* ----- Deferred slots -----

   A slot that nothing reads before a row is kept need not be built for
   a row that is dropped; but its verdict counts, since a document whose
   slot does not conform is [skipped]. So such a slot is checked where
   its value lies, and built from there once the row is kept. *)

(* The check of a primitive or nullable-primitive slot: it consumes what
   the slot's decoder consumes and raises where it raises, but reads the
   literal in place ([Raw.literal], as [Csh.absorbs_tokens] does) and
   builds nothing. A boolean or bit slot, whose verdict on an integer
   depends on its value, is checked by its decoder. *)
let checker (s : Shape.t) : (Raw.state -> unit) option =
  let literal ~null_ok (p : Shape.primitive) =
    let accepts : Primitive.hint -> bool = function
      | Hint_null -> null_ok
      | Hint_bit0 | Hint_bit1 | Hint_int -> p = Shape.Int || p = Shape.Float
      | Hint_float -> p = Shape.Float
      | Hint_string -> p = Shape.String
      | Hint_date -> p = Shape.Date
      | Hint_bool -> false
    in
    let dates = p = Shape.Date in
    fun st ->
      match Raw.next_value st with
      | '"' | '-' | '0' .. '9' | 't' | 'f' | 'n' ->
          if not (accepts (Raw.literal st ~classify:true ~dates)) then raise Mismatch
      | _ -> raise Mismatch
  in
  let decoded s =
    let dec = run (compile_shape s) in
    fun st -> ignore (dec st)
  in
  match s with
  | Shape.Primitive ((Shape.Int | Shape.Float | Shape.String | Shape.Date) as p) ->
      Some (literal ~null_ok:false p)
  | Shape.Nullable (Shape.Primitive ((Shape.Int | Shape.Float | Shape.String | Shape.Date) as p)) ->
      Some (literal ~null_ok:true p)
  | Shape.Primitive _ | Shape.Nullable (Shape.Primitive _) -> Some (decoded s)
  | _ -> None

(* A root record whose deferred slots are [deferred] *)
type root = { slots : record_slots; name : string; deferred : int array }

type compiled = { cshape : Shape.t; dec : decoder; root : root option }

let shape c = c.cshape

let compile ?(defer = []) (s : Shape.t) : compiled =
  Fsdata_obs.Trace.with_span "compile.build" @@ fun () ->
  Fsdata_obs.Metrics.incr m_parsers;
  Fsdata_obs.Metrics.time m_build_ns @@ fun () ->
  let root =
    match s with
    | Shape.Record { name; fields }
      when defer <> [] && String.equal name Data_value.json_record_name ->
        let slots =
          record_slots fields ~check:(fun key fs ->
              if List.mem key defer then checker fs else None)
        in
        let deferred =
          List.filter (fun i -> Option.is_some slots.checks.(i))
            (List.init (Array.length slots.keys) Fun.id)
        in
        if deferred = [] then None
        else Some { slots; name; deferred = Array.of_list deferred }
    | _ -> None
  in
  let dec =
    match root with
    | None -> run (compile_shape s)
    | Some { slots; name; _ } ->
        let eager = { slots with checks = Array.map (fun _ -> None) slots.checks } in
        run { reject with on_record = decode_record eager name [||] }
  in
  { cshape = s; dec; root }

let decoder c = c.dec

(* Where a fold's latest row has its deferred slots, and a state over
   the fold's text to build them from *)
type deferred = { c : compiled; offs : int array; mutable src : Raw.state }

let deferred c =
  let n = match c.root with Some r -> Array.length r.slots.keys | None -> 0 in
  { c; offs = Array.make n 0; src = Raw.make "" }

(* Each deferred slot still pending in the row, decoded from its offset
   by the slot's own decoder *)
let build d v =
  match (d.c.root, v) with
  | Some { slots; deferred; _ }, Vrecord (_, out) ->
      for k = 0 to Array.length deferred - 1 do
        let i = deferred.(k) in
        if out.(i) == slots.pending.(i) then begin
          Raw.seek d.src d.offs.(i);
          out.(i) <- (slots.keys.(i), slots.decs.(i) d.src)
        end
      done
  | _ -> ()

(* ----- Decoding drivers ----- *)

type outcome = Direct of tvalue | Fallback of tvalue * Diagnostic.t

type stats = { direct : int; fallback : int; skipped : int }

let direct v =
  Fsdata_obs.Metrics.incr m_direct;
  Direct v

(* A document the compiled decoder declined, re-derived from its generic
   parse: the conversion of the normalized value, or that value with the
   first violation's diagnostic. The decoder may decline a conforming
   document (duplicate keys, multiplicity corner cases); the conversion
   decides. *)
let generic ?index c dv =
  let dv = Primitive.normalize dv in
  match conv c.cshape dv with
  | v -> direct v
  | exception Violation (path, expected, found) ->
      Fsdata_obs.Metrics.incr m_fallback;
      Fallback (Vany dv, diagnostic ?index path expected found)

(* The decoder on the whole text; on a mismatch, a fault or a trailing
   byte, [Json.parse] decides, and raises its own exception on a fault. *)
let parse (c : compiled) (src : string) : outcome =
  Fsdata_obs.Trace.with_span "compile.parse" @@ fun () ->
  let st = Raw.make src in
  let at_end () =
    Raw.skip_ws st;
    Raw.at_eof st
  in
  match c.dec st with
  | v when at_end () -> direct v
  | _ | (exception (Mismatch | Diagnostic.Parse_error _)) ->
      generic c (Json.parse src)

(* The compiled decoder is the reader's [absorb] hook: the reader skips
   whitespace, polls [cancel], counts documents, rewinds a declined
   document to parse it, and resyncs and reports a fault, as in
   [Json.fold_many]. *)
let fold_corpus ?cancel ?on_error ?deferred (c : compiled)
    (f : 'acc -> outcome -> [ `Continue of 'acc | `Stop of 'acc ])
    (acc : 'acc) (src : string) : 'acc * stats =
  Fsdata_obs.Trace.with_span "compile.parse" @@ fun () ->
  let dec =
    match (deferred, c.root) with
    | Some d, Some { slots; name; _ } ->
        if d.c != c then invalid_arg "Shape_compile.fold_corpus: deferred of another parser";
        d.src <- Raw.make src;
        run { reject with on_record = decode_record slots name d.offs }
    | _ -> c.dec
  in
  let direct_n = ref 0 and fallback_n = ref 0 and skipped = ref 0 in
  let on_error =
    Option.map
      (fun h d ~skipped:text ->
        incr skipped;
        h d ~skipped:text)
      on_error
  in
  let r = Json.Reader.create ?cancel ?on_error src in
  let decoded = ref Vnull in
  let absorb st =
    match dec st with
    | v ->
        decoded := v;
        true
    | exception Mismatch -> false
  in
  let rec loop acc =
    match Json.Reader.next ~absorb r with
    | Json.Reader.End -> acc
    | Json.Reader.Absorbed -> step acc (direct !decoded)
    | Json.Reader.Doc dv -> step acc (generic ~index:(Json.Reader.index r) c dv)
    | Json.Reader.Await -> assert false (* a whole text awaits nothing *)
  and step acc o =
    incr (match o with Direct _ -> direct_n | Fallback _ -> fallback_n);
    match f acc o with `Continue acc -> loop acc | `Stop acc -> acc
  in
  let acc = loop acc in
  (acc, { direct = !direct_n; fallback = !fallback_n; skipped = !skipped })

let parse_corpus ?cancel ?on_fallback ?on_error (c : compiled) (src : string) :
    tvalue list * stats =
  let results, stats =
    fold_corpus ?cancel ?on_error c
      (fun acc outcome ->
        match outcome with
        | Direct v -> `Continue (v :: acc)
        | Fallback (v, d) ->
            (match on_fallback with Some f -> f d | None -> ());
            `Continue (v :: acc))
      [] src
  in
  (List.rev results, stats)

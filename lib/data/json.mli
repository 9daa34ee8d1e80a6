(** JSON parsing and printing.

    A self-contained RFC 8259 parser producing {!Data_value.t}. JSON
    objects become records named {!Data_value.json_record_name} (the
    paper's [•]); arrays become lists; numbers become [Int] when they are
    written without fraction/exponent and fit a native [int], and [Float]
    otherwise — this distinction is what lets shape inference prefer [int]
    over [float] (rule (1) of the preferred shape relation).

    The parser reports errors with line/column positions, handles the full
    escape syntax including [\uXXXX] surrogate pairs (decoded to UTF-8),
    and rejects trailing garbage.

    Duplicate object keys keep the last binding, matching common JSON
    library behaviour, and the surviving member sits at the position of
    its last occurrence: [{"a":1,"b":2,"a":3}] parses to the fields [b],
    then [a = 3]. Duplicates are detected once per object, so parsing
    stays linear in the object's width. *)

exception Parse_error of { line : int; column : int; message : string }
(** Thin compatibility wrapper: the parser reports faults as structured
    {!Diagnostic.t}s (format, position, message) and the public entry
    points convert them to this legacy exception. *)

val parse : string -> Data_value.t
(** @raise Parse_error on malformed input. *)

val parse_diag : string -> (Data_value.t, Diagnostic.t) result
(** Like {!parse} but returning the structured diagnostic. *)

val parse_result : string -> (Data_value.t, string) result
(** Like {!parse} but returning the formatted error message. *)

val parse_many : string -> Data_value.t list
(** Parse a stream of whitespace-separated JSON documents (as used when a
    sample file contains several samples). *)

val fold_many :
  ?cancel:Cancel.t ->
  ?chunk_size:int ->
  ?chunk_bytes:int ->
  ?on_error:(Diagnostic.t -> skipped:string -> unit) ->
  ('acc -> Data_value.t list -> 'acc) ->
  'acc ->
  string ->
  'acc
(** Chunked driver over a stream of whitespace-separated JSON documents:
    parse up to [chunk_size] documents (default 256), hand them to the
    fold function, and continue, so the caller can process (or ship to
    another domain) a bounded batch at a time instead of materializing
    the whole corpus. With [chunk_bytes] a chunk is also cut once it has
    consumed at least that many source bytes, whichever cap fills first —
    callers that want large chunks measured in documents stay safe on
    corpora of huge documents. Positions in {!Parse_error} are relative
    to the whole stream. [parse_many] is [fold_many] collecting every
    chunk. Raises [Invalid_argument] when [chunk_size < 1] or
    [chunk_bytes < 1].

    With [on_error] the driver runs in {e recovering} mode: a malformed
    document is skipped instead of aborting the stream. The handler
    receives the diagnostic — carrying the document's 0-based stream
    index — and the skipped raw text; the parser then resynchronizes at
    the next top-level document boundary (the closing bracket that
    re-balances the corrupt document, or failing that the next line
    starting with ['{'] or ['[']) and continues. Without [on_error] the
    first fault raises {!Parse_error}, exactly as before.

    [cancel] is polled before each document; when it trips the driver
    raises {!Cancel.Cancelled} immediately, without consuming further
    input or invoking the fold function again. *)

(** Raw access to the parser's lexing machinery, for the walkers that
    {!Reader.next} offers each document to: shape-specialized decoders
    ([Fsdata_core.Shape_compile]) and the inference fold's token walk.
    They read the same mutable state with the same token readers as the
    generic parser, so their error positions (via
    [Diagnostic.Parse_error]) are the parser's. A walker the reader
    offers a document to neither rewinds nor resynchronizes: the reader
    rewinds a document its hook declines and resyncs a fault.

    Both walkers find a record's members the same way: {!wanted} over
    one {!keys} table per record, and {!find} in that table for a key
    they had to decode. The two differ only at a key that is no name of
    the record, which the table says how to treat: the decoder's table
    reads past the member, and the check's table stops there.

    Not a stable public API: intended for in-tree consumers. *)
module Raw : sig
  type state
  (** Mutable scan state over one source string: position, line
      bookkeeping and nesting depth. *)

  val make : string -> state
  val offset : state -> int
  val at_eof : state -> bool

  val peek_char : state -> char
  (** The next character, without allocating, or ['\000'] at end of
      input (a literal NUL in the source is a control character and
      errors on any path that could consume it; {!at_eof} tells the two
      apart). The generic parser's own hot loops — whitespace,
      separators, value dispatch — read through it too. *)

  val lit : state -> string -> bool
  (** [lit st s] consumes the source bytes at the cursor when they are
      exactly [s] and returns [true]; otherwise leaves the cursor
      untouched. [s] must not contain newlines (no line bookkeeping). *)

  (** {2 Steps of a walk}

      The steps a walker over the token stream takes at every member or
      element, each one call: a walker outside this module pays a call
      per step, and fewer, coarser steps keep its cost per byte near the
      lexer's. *)

  val next_value : state -> char
  (** Skip whitespace and {!peek_char} the first character of the next
      value. *)

  val colon : state -> char
  (** Skip whitespace and the [':'] that ends an object key, then
      {!next_value}. @raise Diagnostic.Parse_error when the next
      character is no [':']. *)

  val literal : state -> classify:bool -> dates:bool -> Primitive.hint
  (** Scan the literal at the cursor and answer its reading. A string
      with [~classify:true] reads as {!Primitive.classify_sub} [~dates]
      reads its content, which for a literal without escapes is read
      where it lies in the source, with no copy; with [~classify:false]
      it reads as [Hint_string]. A number reads as [Hint_int] or
      [Hint_float] as {!parse_number} would read it, without building
      it, [true] and [false] as [Hint_bool], and [null] as [Hint_null].
      @raise Diagnostic.Parse_error on faults, and at a ['{'], a ['\[']
      or any other character that starts no literal. *)

  type keys
  (** The names of a record's slots and a hash table over them, built
      once per record. A table is one of two kinds, fixed when it is
      built: a decoder's table reads past a member whose key is no name,
      and a check's table stops at it, since the check then fails. *)

  val keys : skip:bool -> string array -> keys
  (** [keys ~skip names]: with [~skip:true], {!wanted} reads past a
      member whose key is no name; with [~skip:false] it answers [-1]
      there, as at a key it cannot match in place. *)

  val find : keys -> string -> int
  (** [find k name] probes [k]'s table with a decoded key: the index of
      [name] among the names, or [-1] when it is none of them. *)

  val wanted : state -> keys -> from:int -> int
  (** [wanted st k ~from], at an object member: match its key against
      the name at [from] in place, and otherwise scan the key once to
      its closing quote, hashing it on the way, and look it up in [k]'s
      table, so a key that is no name costs one scan however many names
      [k] has. A matched key is consumed with its [':'], and the answer
      is [(i lsl 8) lor Char.code c], [i] the name's index and [c] the
      first character of the value after whitespace. A key that needs
      no decoding and is no name is read past with its member (the key
      where it lies, the value by {!skip_value}, building nothing) when
      [k] was built with [~skip:true], and the next member is tried.
      Answers [-1] at a key that is left for the caller to decode, after
      whitespace and before its opening quote: a key with an escape or
      a control character, and with [~skip:false] a key that is no name;
      the caller reads it with {!parse_string} and {!colon} and looks
      it up with {!find}. Answers [-2] at the object's closing ['}'],
      consumed with the object's level, and [-3] at anything else after
      a member, consuming nothing.
      @raise Diagnostic.Parse_error where the parser faults. *)

  val next_wanted : state -> keys -> from:int -> int
  (** After an object member: skip whitespace and, at a [','], consume
      it and go on as {!wanted}; otherwise answer as {!wanted} does
      after a member it reads past. *)

  val read_string : state -> (string -> int -> int -> 'a) -> 'a
  (** [read_string st f] scans the string literal at the cursor and
      answers [f s off len], [s] from [off] for [len] bytes being its
      content: the source itself when the literal has no escape, else
      its decoded copy. [f] must copy what it keeps of [s].
      @raise Diagnostic.Parse_error on faults. *)

  val seek : state -> int -> unit
  (** [seek st i] moves the cursor to the offset [i], to read again a
      value read before without fault. Line bookkeeping does not
      follow, so a fault from there reports a wrong position. *)

  val skip_value : state -> unit
  (** {!parse_value} that builds nothing: it reads the same syntax
      under the same nesting bound, stops where the parser stops and
      faults at the same line and column.
      @raise Diagnostic.Parse_error on faults. *)

  val open_ : state -> char -> bool
  (** [open_ st closing], at an object's ['{'] or an array's ['\[']:
      count one more level of nesting, as the parser does, and consume
      the opener, and when the next character after whitespace is
      [closing], consume it too, leave the level and answer [true] (an
      empty object or array).
      @raise Diagnostic.Parse_error past the nesting bound. *)

  val after : state -> char -> int
  (** [after st closing], after a member or an element: skip whitespace
      and consume a [','] (answer [1]), or [closing], leaving its level
      (answer [0]); answer [-1] at anything else, consuming nothing. *)

  val advance : state -> unit
  val skip_ws : state -> unit

  val expect : state -> char -> unit
  (** Consume the expected character, which must be neither a newline
      nor NUL (no line bookkeeping is done).
      @raise Diagnostic.Parse_error when the next character differs. *)

  val parse_string : state -> string
  (** Scan a JSON string literal (opening quote included), decoding the
      full escape syntax. @raise Diagnostic.Parse_error on faults. *)

  val parse_number : state -> Data_value.t
  (** Scan a JSON number: [Int] when written without fraction/exponent
      and it fits a native [int], else [Float].
      @raise Diagnostic.Parse_error on faults. *)

  val parse_value : state -> Data_value.t
  (** The generic recursive-descent parser, from the current position.
      @raise Diagnostic.Parse_error on faults. *)

  val resync : state -> start:int -> bool
  (** Advance past a malformed document (whose text began at [start]) to
      the most plausible next top-level document boundary; see
      {!fold_many}'s recovering mode. Returns [false] when the rest of
      the input was consumed instead. *)

  val fail : state -> string -> 'a
  (** Raise [Diagnostic.Parse_error] at the current position with the
      given message — the same diagnostic shape the parser itself
      raises. *)
end

(** A document stream read one document at a time, for a consumer that
    acts on each document before it reads the next ({!fold_many} is this
    reader collecting batches). Error positions, resynchronization,
    cancellation, batch cuts and the [parse.json.*] counters are
    {!fold_many}'s.

    A reader reads a whole text ({!create}) or fragments it is fed
    ({!incremental}), and both read alike: a fed stream's documents,
    diagnostics (positions are the stream's), skipped texts and batches
    are its concatenation's, however it is cut. A fed reader buffers the
    document it reads and the fragments after it, and reads a document
    once a boundary scan finds where its reading ends: at a byte outside
    strings and brackets that cannot continue a literal or number, or at
    a line opening with [{] or [\[] after a value (the resync's line
    rule). So a top-level number ending with the buffer waits for more.
    Each fed byte is scanned at most twice; a whole text never. A
    document the scan holds past a line that opens with [{] or [\[]
    after a comma, a [\[] or a colon (a fault before such lines, or a
    pretty-printed array) is tried each time its buffered bytes double
    by a reading that builds nothing and reads on where the previous
    try stopped, and read as in the text once that reading stops before
    the buffer's end. *)
module Reader : sig
  type t

  type item =
    | End  (** no document is left *)
    | Await
        (** no whole document is buffered: {!feed} more input, or
            {!finish} it (a fed reader only) *)
    | Doc of Data_value.t  (** the next document, parsed *)
    | Absorbed  (** the next document, consumed by [absorb] *)

  val create :
    ?cancel:Cancel.t ->
    ?chunk_size:int ->
    ?chunk_bytes:int ->
    ?on_error:(Diagnostic.t -> skipped:string -> unit) ->
    string ->
    t
  (** A reader over a whole text. Arguments as for {!fold_many}. *)

  val incremental :
    ?cancel:Cancel.t ->
    ?chunk_size:int ->
    ?chunk_bytes:int ->
    ?on_error:(Diagnostic.t -> skipped:string -> unit) ->
    unit ->
    t
  (** A reader with no input yet, to be fed fragments. *)

  val feed : t -> string -> unit
  (** Append a fragment to a fed reader's input.
      @raise Invalid_argument once the input is finished. *)

  val finish : t -> unit
  (** End a fed reader's input: what is buffered is read as the tail of
      a whole text, so a truncated document is a fault there. *)

  val next : ?absorb:(Raw.state -> bool) -> t -> item
  (** The next document. A malformed one is reported to [on_error]
      (or raised as {!Parse_error} without it) and skipped; its report
      waits, as [Await], until the boundary its resynchronization finds
      is buffered. With [absorb], the document is first offered to it
      at its first token: it may consume the whole document and answer
      [true], and the document is [Absorbed]; when it answers [false] or
      raises [Diagnostic.Parse_error], the reader rewinds to the
      document's start and parses it, so a document [absorb] declines
      is read as if [absorb] had not run. *)

  val index : t -> int
  (** The global index of the latest document returned (faults
      included in the count). *)

  val cut : t -> bool
  (** Whether the latest document filled its batch: it is the
      [chunk_size]th of the batch, or the batch has consumed at least
      [chunk_bytes] bytes. *)
end

val to_string :
  ?indent:int -> ?escaped:(string -> string option) -> Data_value.t -> string
(** Print a data value as JSON. With [indent] (spaces per level) the output
    is pretty-printed; default is compact. Record names are not printed
    (JSON objects are anonymous); XML-derived values therefore lose their
    element names when printed as JSON. [escaped] may supply a string
    value's JSON literal (quotes included) already escaped, for a caller
    that keeps the literals of long strings it prints repeatedly; it must
    return exactly what the printer would write, or [None]. *)

val pp : Format.formatter -> Data_value.t -> unit
(** Compact JSON printer usable with [%a]. *)

(** Inference of primitive values from unityped literals.

    JSON distinguishes numbers, strings and booleans syntactically, but CSV
    literals (and XML attribute/body text) are bare strings. Section 6.2 of
    the paper describes how F# Data infers the shapes of such primitive
    values:

    - ["0"] and ["1"] support both [int] and [bool] readings; the paper
      introduces a [bit] shape preferred below both,
    - ["#N/A"] (and friends) denote missing values and are treated as null,
    - date literals in supported formats are recognized as dates,
    - anything else numeric is an [int] or [float], and the fallback is
      [string].

    This module classifies a literal and converts it into a typed
    {!Data_value.t} plus an inference hint. The hint distinguishes cases
    that the data value alone cannot carry (e.g. [Int 1] parsed from JSON is
    a plain int, while ["1"] in a CSV cell is a bit; ["2012-05-01"] is a
    string value but carries a date hint). *)

type hint =
  | Hint_bit0  (** the literal "0": readable as the int 0 or as false *)
  | Hint_bit1  (** the literal "1": readable as the int 1 or as true *)
  | Hint_bool
  | Hint_int
  | Hint_float
  | Hint_date
  | Hint_string
  | Hint_null  (** empty cell or a missing-value marker such as "#N/A" *)

val is_missing : string -> int -> int -> bool
(** [is_missing s off len]: [String.sub s off len], trimmed, is one of
    the markers of missing values F# Data's CsvInference recognizes:
    [""], ["#N/A"], ["NA"], ["N/A"], [":"], ["-"]. Read in place.
    @raise Invalid_argument when [off] and [len] are not a valid slice
    of [s]. *)

val classify : string -> hint
(** [classify s] returns the most specific reading of the literal [s]. The
    priority order is: missing marker, bit0/bit1, int, float, bool, date,
    string. Keeping bit0 and bit1 apart is what lets a lone ["1"] provide
    an [int] (the [id="1"] attribute of Section 6.3) while a column mixing
    0s and 1s provides a [bool] (the [Autofilled] column of Section 6.2):
    their join is the [bit] shape, which maps to [bool].

    It is [classify_sub ~dates:true s 0 (String.length s)]. *)

val classify_sub : dates:bool -> string -> int -> int -> hint
(** [classify_sub ~dates:true s off len] is [classify (String.sub s off len)],
    decided in place and without allocating: one left-to-right pass
    over the trimmed slice reads it as a missing marker, then as a
    number (an integer that [int_of_string] would reject as too large
    reads as a float), then as a boolean, and only then hands it to
    {!Date.is_date_trimmed}, whose recognizer also reads the slice in
    place. A JSON string without escapes is so classified in its
    source text. With [~dates:false] the date recognizer does not run
    and a date reads as [Hint_string]: all that a reader that only
    needs [is_text] asks, or one that already knows that its shape
    absorbs a string, since [date ⊔ string = string].
    @raise Invalid_argument when [off] and [len] are not a valid slice
    of [s]. *)

val is_text : string -> int -> int -> bool
(** [is_text s off len] iff [classify (String.sub s off len)] is
    [Hint_date] or [Hint_string]: the literals a [string] shape absorbs,
    since [date ⊔ string = string]. It decides that in place, without
    running the date recognizer.
    @raise Invalid_argument when [off] and [len] are not a valid slice
    of [s]. *)

val to_value : string -> Data_value.t * hint
(** [to_value s] converts the literal to a data value together with its
    hint: bits and ints become [Int], floats become [Float], booleans
    become [Bool], missing markers become [Null], and dates stay [String]
    (the shape layer records their date-ness through the hint). *)

val parse_int : string -> int option
(** Strict integer syntax: optional sign, decimal digits, no leading or
    trailing junk, fits in a native [int]. Accepts surrounding whitespace. *)

val parse_float : string -> float option
(** Strict decimal float syntax including scientific notation; rejects
    ["nan"]/["inf"] spellings (those read as strings, matching F# Data's
    invariant-culture parsing of data files). *)

val int_sub : string -> int -> int -> int option
(** [int_sub s off len] is [parse_int (String.sub s off len)], read in
    place. @raise Invalid_argument when [off] and [len] are not a valid
    slice of [s]. *)

val float_sub : string -> int -> int -> float option
(** [float_sub s off len] is what a [float] reads of the literal
    [String.sub s off len]: the integer {!parse_int} reads, as a float,
    or else {!parse_float}'s number. One scan of the slice in place; an
    integer is accumulated where it lies, any other number is copied
    once for [float_of_string].
    @raise Invalid_argument when [off] and [len] are not a valid slice
    of [s]. *)

val parse_bool : string -> bool option
(** ["true"]/["false"] (any case), ["yes"]/["no"]. *)

val normalize : Data_value.t -> Data_value.t
(** Recursively replace string leaves by their {!to_value} conversion:
    ["35.14229"] becomes the float, ["2012"] the int, missing-value markers
    become null; date strings and other strings are left alone. This aligns
    runtime documents with shapes inferred in practical mode (the paper's
    World Bank example reads the string ["35.14229"] through a
    [Value : option float] member). *)

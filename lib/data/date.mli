(** Date and time parsing for primitive-value inference.

    Section 6.2 of the paper notes that CSV (and XML attribute) literals
    carry no type information, so the library infers the shapes of
    primitive values, including dates: ["2012-05-01"] is a date, ["May 3"]
    is a date, but ["3 kveten"] (a Czech month name) is not, so a column
    mixing it with ISO dates is inferred as [string].

    F# Data delegates to .NET's invariant-culture [DateTime.TryParse]; this
    module implements a comparable recognizer covering the formats that the
    paper's examples rely on plus the common interchange formats. *)

type t = {
  year : int;
  month : int;  (** 1..12 *)
  day : int;  (** 1..31, validated against month/year *)
  hour : int;  (** 0..23 *)
  minute : int;
  second : int;
}

val equal : t -> t -> bool
val compare : t -> t -> int

val make : ?hour:int -> ?minute:int -> ?second:int -> int -> int -> int -> t option
(** [make y m d] validates the calendar date (including leap years) and the
    optional time-of-day components. *)

val of_string : string -> t option
(** Recognized formats (all with an optional [" HH:MM"] or [" HH:MM:SS"]
    time suffix, and ISO also with a ['T'] separator and optional
    [Z]/offset):

    - ISO 8601: ["2012-05-01"], ["2012-05-01T13:45:30Z"]
    - Slashed: ["2012/05/01"], ["05/01/2012"] (month first, invariant
      culture), ["01/05/2012"] when the first component cannot be a month
    - Month names: ["May 3"], ["May 3, 2012"], ["3 May 2012"],
      ["3 January"], with full or three-letter English month names

    Returns [None] for anything else; notably bare numbers are not dates,
    so numeric columns never collapse into dates.

    The recognizer reads the literal's tokens (numbers of at most four
    digits, words, separators) in place, left to right, with no token
    list and no substring: only the answer is allocated. *)

val of_sub : string -> int -> int -> t option
(** [of_sub s off len] is [of_string (String.sub s off len)], read in
    place.
    @raise Invalid_argument when [off] and [len] are not a valid slice
    of [s]. *)

val is_date : string -> bool
(** [is_date s] iff [of_string s <> None], decided without allocating. *)

val is_date_sub : string -> int -> int -> bool
(** [is_date_sub s off len] is [is_date (String.sub s off len)], read
    in place: the date test of a literal that sits inside a larger
    buffer, such as a JSON string in its source text.
    @raise Invalid_argument when [off] and [len] are not a valid slice
    of [s]. *)

val is_date_trimmed : string -> int -> int -> bool
(** [is_date_trimmed s off len] reads the slice as it lies, without
    trimming it: it is [is_date_sub s off len] for a slice that neither
    starts nor ends with a space, such as one {!Primitive.classify_sub}
    has trimmed.
    @raise Invalid_argument when [off] and [len] are not a valid slice
    of [s]. *)

val to_iso8601 : t -> string
(** Canonical printing: ["YYYY-MM-DD"] when the time is midnight, otherwise
    ["YYYY-MM-DDTHH:MM:SS"], each number zero-padded as by [%04d] and
    [%02d]. The digits are written directly; a field outside what
    {!make} admits goes through [Printf]. *)

val pp : Format.formatter -> t -> unit

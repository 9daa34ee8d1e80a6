(** Scanning a slice of a string in place: the trimming and digit runs
    that {!Primitive} and {!Date} share, so that a literal is read
    where it lies, in a CSV cell's text or in a JSON source buffer,
    without a copy. A slice is [s] from [i] to [stop], exclusive; only
    {!check} checks bounds. *)

val trim_start : string -> int -> int -> int
(** [trim_start s i stop]: the first offset from [i] that holds no byte
    [String.trim] drops (space, form feed, newline, carriage return,
    tab), or [stop]. *)

val trim_stop : string -> int -> int -> int
(** [trim_stop s i stop]: the offset after the last byte before [stop]
    that [String.trim] keeps, or [i]. With {!trim_start} it bounds the
    slice as [String.trim] would. *)

val digits_end : string -> int -> int -> int
(** [digits_end s i stop]: the end of the run of decimal digits at [i]. *)

val check : string -> string -> int -> int -> unit
(** [check name s off len] raises [Invalid_argument name] unless [off]
    and [len] are a valid slice of [s]. *)

(** Typed access to structured data through a provided type — the
    developer-facing runtime that stands in for F# type providers in OCaml
    (see DESIGN.md: type providers are substituted by this dynamic typed
    runtime plus the {!Fsdata_codegen} static code generator).

    A {!value} pairs a Foo value with the provided classes, so that member
    access runs the provider-generated conversion code through the Foo
    interpreter. This keeps one single semantics for provided types — the
    formal one of Figures 6 and 8 — and makes the examples read like the
    paper's F#:

    {[
      let p = Provide.provide_json ~root_name:"W" weather_sample |> Result.get_ok in
      let w = Typed.parse p weather_sample in
      Typed.(get_float (member (member w "Main") "Temp"))
    ]}

    Access to data of an unexpected shape raises
    {!Fsdata_runtime.Ops.Conversion_error}, mirroring the exception the
    real F# Data library throws. *)

type value

exception Runtime_exn
(** The [exn] outcome of Remark 1, raised when evaluating user-injected
    [exn]-containing code. Provider-generated code never raises it. *)

val load : Fsdata_provider.Provide.t -> Fsdata_data.Data_value.t -> value
(** Convert a data value through the provider's conversion expression.
    The data should already be in runtime form (see {!parse}). *)

val parse : Fsdata_provider.Provide.t -> string -> value
(** The provided [Parse] member: parse the text in the provider's format
    (JSON / XML / CSV), convert literals to their runtime representation
    ({!Fsdata_data.Primitive.normalize} for JSON, primitive conversion for
    XML attributes and CSV cells), and {!load} the result.
    @raise Fsdata_runtime.Ops.Conversion_error on malformed input. *)

val path : value -> string -> value
(** [path v "Main.Temp"] follows a dot-separated chain of members —
    shorthand for nested {!member} calls. *)

val member : value -> string -> value
(** [member v "Name"] evaluates the provided member. Member names are the
    provided (PascalCase) names.
    @raise Fsdata_runtime.Ops.Conversion_error when the underlying data
    does not have the shape the member requires (a stuck state of the
    calculus), or when the member does not exist. *)

val get_int : value -> int
val get_float : value -> float
val get_bool : value -> bool
val get_string : value -> string
val get_date : value -> Fsdata_data.Date.t

val get_option : value -> value option
(** Unpack an option value ([None]/[Some]). *)

val get_list : value -> value list

val underlying : value -> Fsdata_data.Data_value.t option
(** For opaque provided objects, the raw data value they wrap — the
    analogue of Section 6.3's [JsonValue]/[XElement] escape-hatch members.
    Returns the wrapped data for any provided object, [None] for
    non-objects. *)

val pp : Format.formatter -> value -> unit

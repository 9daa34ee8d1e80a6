(** The F# Data runtime: the dynamic data operations of Figure 6 as plain
    OCaml functions.

    These are the operations the provided code is compiled against — both
    the OCaml modules emitted by {!Fsdata_codegen} and the
    {!Typed} accessor layer bottom out here. Where the Foo calculus gets
    stuck, these functions raise {!Conversion_error}, which is the
    behaviour the paper describes for the real library ("a member access
    throws an exception if data does not have the expected shape"). *)

type conversion_error = {
  op : string;  (** the Figure 6 operation (or runtime step) that failed *)
  path : string list;
      (** access path from the root to the failing access, outermost
          first; [[]] when the operation ran outside any tracked path *)
  expected : string;  (** the shape the operation required; may be empty *)
  actual : string;  (** bounded summary of the offending value or fault *)
}

exception Conversion_error of conversion_error
(** Raised when a value does not have the shape an operation requires. *)

val error_message : conversion_error -> string
(** Human-readable rendering:
    ["op at a.b: expected int but found \"x\""]. *)

val conversion_failure :
  ?path:string list -> ?expected:string -> op:string -> string -> 'a
(** [conversion_failure ~op actual] raises {!Conversion_error}; [path]
    defaults to empty and [expected] to unknown. *)

val with_path : string -> (unit -> 'a) -> 'a
(** [with_path segment f] runs [f], prepending [segment] to the access
    path of any {!Conversion_error} escaping it — how accessor layers
    attribute a deep conversion failure to the member chain that led
    there. *)

val summarize : ?limit:int -> string -> string
(** Truncate a rendering to [limit] bytes (default 120) with an
    ellipsis. *)

val conv_int : Fsdata_data.Data_value.t -> int
(** [convPrim(int, d)]. *)

val conv_string : Fsdata_data.Data_value.t -> string
(** [convPrim(string, d)]. *)

val conv_bool : Fsdata_data.Data_value.t -> bool
(** [convPrim(bool, d)]. *)

val conv_float : Fsdata_data.Data_value.t -> float
(** [convFloat(float, d)]: accepts integers too (rule
    [convFloat(float, i) ⇝ f]). *)

val conv_bit_bool : Fsdata_data.Data_value.t -> bool
(** The bit-shape conversion: booleans pass through, 0 and 1 convert. *)

val conv_date : Fsdata_data.Data_value.t -> Fsdata_data.Date.t
(** The date conversion: strings in a recognized format parse. *)

val conv_field :
  record:string -> field:string -> Fsdata_data.Data_value.t -> Fsdata_data.Data_value.t
(** [convField(nu, nu', d, id)]: the raw field value, or [Null] when the
    field is missing; raises when [d] is not a record named [record]. *)

val conv_null :
  (Fsdata_data.Data_value.t -> 'a) -> Fsdata_data.Data_value.t -> 'a option
(** [convNull]: [None] on null, [Some (k d)] otherwise. *)

val conv_elements :
  (Fsdata_data.Data_value.t -> 'a) -> Fsdata_data.Data_value.t -> 'a list
(** [convElements]: maps [k] over a collection; null reads as the empty
    collection. *)

val has_shape : Fsdata_core.Shape.t -> Fsdata_data.Data_value.t -> bool
(** Re-export of {!Fsdata_core.Shape_check.has_shape}. *)

val select_single :
  Fsdata_core.Shape.t ->
  (Fsdata_data.Data_value.t -> 'a) ->
  Fsdata_data.Data_value.t ->
  'a
(** Heterogeneous-collection access with multiplicity 1: the first element
    matching the shape; raises when there is none. *)

val select_optional :
  Fsdata_core.Shape.t ->
  (Fsdata_data.Data_value.t -> 'a) ->
  Fsdata_data.Data_value.t ->
  'a option
(** Multiplicity 1?. *)

val select_multiple :
  Fsdata_core.Shape.t ->
  (Fsdata_data.Data_value.t -> 'a) ->
  Fsdata_data.Data_value.t ->
  'a list
(** Multiplicity *. *)

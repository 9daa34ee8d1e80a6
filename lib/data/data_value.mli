(** First-order structured data values.

    This is the universal data representation [d] of the paper (Section 3.4):

    {v
      d = i | f | s | true | false | null
        | [d1; ...; dn] | nu {nu1 |-> d1, ..., nun |-> dn}
    v}

    JSON, XML and CSV documents are all mapped into this single
    representation before shape inference runs:

    - JSON objects become records named {!json_record_name};
    - XML elements become records named after the element, with attributes
      as fields and the element body stored under the {!body_field} field
      (Section 6.2 of the paper);
    - CSV rows become records named {!csv_record_name} with one field per
      column, and a CSV file is a collection of row records. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Record of string * (string * t) list
      (** [Record (name, fields)]. Field order is preserved as parsed, but
          two records are considered equal up to field reordering, matching
          the paper's "we assume that record fields can be freely
          reordered". Duplicate field names are not allowed. *)

val json_record_name : string
(** The name used for records arising from JSON objects. The paper writes
    this name as the bullet [•]; we use the literal UTF-8 bullet so that
    printed shapes look like the paper's notation. *)

val csv_record_name : string
(** The name used for records arising from CSV rows ("unnamed records" in
    Section 6.2). *)

val body_field : string
(** The special field name holding the body of an XML element
    (Section 6.2). Printed as [•]. *)

val equal : t -> t -> bool
(** Structural equality, treating record fields as unordered (the paper
    assumes fields can be freely reordered). *)

val compare : t -> t -> int
(** A total order consistent with {!equal}. *)

val record : string -> (string * t) list -> t
(** [record name fields] builds a record, raising [Invalid_argument] on
    duplicate field names. *)

val first_duplicate : (string * 'a) list -> string option
(** [first_duplicate fields] is the first name, in list order, that
    repeats an earlier one. Linear in the list: up to 32 names it is a
    pairwise scan that allocates nothing, beyond that a hash table. The
    duplicate checks of {!record}, of the JSON parser's objects and of
    shape records all go through it. *)

val record_field : string -> t -> t option
(** [record_field name d] looks up field [name] if [d] is a record. *)

val is_primitive : t -> bool
(** True for null, booleans, numbers and strings. *)

val pp : Format.formatter -> t -> unit
(** Paper-style printer: records as [nu {f1 |-> d1, ...}], lists in square
    brackets. *)

val to_string : t -> string

val size : t -> int
(** Total number of nodes (primitives, list and record nodes), used by
    benchmarks to report throughput per node. *)

val depth : t -> int
(** Maximum nesting depth; a primitive has depth 1. *)

(** Global XML inference (Section 6.2).

    "The XML type provider also includes an option to use global
    inference. In that case, the inference from values unifies the shapes
    of all records with the same name. This is useful because, for
    example, in XHTML all [<table>] elements will be treated as values of
    the same type."

    Local inference (the default, {!Infer.run} on XML) gives every element
    position its own shape and cannot describe recursive documents as a
    finite shape. Global inference instead produces an {e environment}:
    one element signature per element name, where child elements are
    referenced by name — so [<div>] inside [<div>] is simply a recursive
    reference, and two [<table>]s in different positions share one
    signature. The provider turns each signature into one nominal class
    (see {!Fsdata_provider.Provide.provide_xml_global}). *)

type body =
  | Body_none  (** every occurrence of the element is empty *)
  | Body_primitive of Shape.t
      (** text-only content; nullable when sometimes absent *)
  | Body_children of (string * Multiplicity.t) list
      (** child elements by name with merged multiplicities, sorted by
          name. Occurrences with text-only content contribute nothing
          (mixed content is not exposed, Section 6.3). *)

type element_signature = {
  element_name : string;
  attributes : (string * Shape.t) list;
      (** attribute shapes, in first-appearance order; attributes missing
          from some occurrence are nullable *)
  body : body;
}

type t = {
  root : string;  (** name of the root element of the first sample *)
  elements : element_signature list;  (** one per element name, sorted *)
}

val infer : Fsdata_data.Xml.tree -> t

val of_strings : string list -> (t, string) result
(** Parse and infer several samples; their roots must agree. An empty
    list is an error. *)

val find : t -> string -> element_signature option

val pp : Format.formatter -> t -> unit
(** Paper-style listing: one line per element signature. *)

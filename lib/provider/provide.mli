(** The type provider mapping [⟦σ⟧ = (τ, e, L)] (Figure 8).

    Given an inferred shape, the provider produces an F# (here: Foo) type
    [τ], a conversion expression [e] of type [Data -> τ], and the class
    definitions [L] used by [e] — exactly the triple of Section 4.2. The
    generated classes are well-typed by construction (and
    {!Fsdata_foo.Typecheck.check_classes} verifies this in the tests).

    Generation rules, by shape:

    - primitives insert the matching conversion ([convPrim], [convFloat];
      the Section 6.2 extensions [bit] and [date] use [convBool] and
      [convDate], so a CSV column holding only 0/1 is provided as [bool],
      "inferring Autofilled as Boolean");
    - a record becomes a class with one member per field, each calling
      [convField] with the {e original} field name but exposed under its
      normalized PascalCase name (Section 6.3);
    - a homogeneous collection becomes [list τ] via [convElements]; when
      the samples also contained null elements the element conversion is
      wrapped in [convNull], giving [list (option τ)];
    - a heterogeneous collection (Section 6.4, several entry tags) becomes
      a class with one member per non-null entry, named after the entry's
      tag (the World Bank sample of Section 2.3 provides [Record] and
      [Array]); the member selects matching elements with a runtime shape
      test and is typed by the entry's multiplicity — [τ], [option τ] or
      [list τ];
    - a labelled top becomes a class with one [option τ] member per label,
      guarded by [hasShape] (Example 2);
    - [nullable σ] becomes [option τ] via [convNull]; [⊥] and [null]
      become an opaque class with no members.

    With [~format:`Xml] the Section 6.2/6.3 XML conventions additionally
    apply when providing records (XML elements):

    - an element whose only content is a primitive body collapses to that
      primitive ([<item>Hello!</item>] is provided as [string]);
    - a body holding a single element kind becomes a member named after
      the element (pluralized when repeated), typed directly / as option /
      as list according to its multiplicity ([Root.Item : string]);
    - a body holding several element kinds becomes a member named after
      the parent element holding the list of the labelled-top element
      class (Section 2.2's [root.Doc : Element\[\]]);
    - a residual primitive body member is named [Value]. *)

type format = [ `Json | `Xml | `Csv ]

type t = {
  root_ty : Fsdata_foo.Syntax.ty;
  conv : Fsdata_foo.Syntax.expr;  (** closed, of type [Data -> root_ty] *)
  classes : Fsdata_foo.Syntax.class_env;
  shape : Fsdata_core.Shape.t;  (** the shape the provider was given *)
  format : format;
}

val provide :
  ?format:format -> ?root_name:string -> ?pool:Naming.pool ->
  Fsdata_core.Shape.t -> t
(** [provide shape] generates the provided type. [root_name] (default
    ["Root"], or ["Entity"] for the element class of a root collection)
    seeds class naming; XML records are named after their element, JSON
    records after the field that holds them (footnote 8), with PascalCase
    normalization and collision suffixes throughout. *)

val provide_json : ?root_name:string -> string -> (t, string) result
(** Parse one or more JSON samples, infer, and provide. *)

val provide_xml : ?root_name:string -> string -> (t, string) result

val provide_xml_global : string list -> (t, string) result
(** Global XML inference (Section 6.2): unify all elements with the same
    name across the samples and generate one nominal class per element
    name. Child elements are referenced by class, so recursive document
    shapes (an element containing itself, as in XHTML) provide fine —
    something local inference cannot express. The root type is the class
    of the samples' root element. *)

val provide_html :
  string -> ((string * t * Fsdata_data.Csv.table) list, string) result
(** The HTML provider of the paper's footnote 10: extract every [<table>]
    from the document and provide one type per table through the CSV
    machinery of Section 6.2 (so 0/1 columns become bool, [#N/A] becomes
    optional, dates are recognized). Each result carries the provided
    name — the table's [id], or its caption, or ["TableN"] — the provided
    type, and the extracted raw table (pass
    [Fsdata_data.Csv.to_data table] to {!Fsdata_runtime.Typed.load}). *)

val provide_csv : ?schema:string -> string -> (t, string) result
(** [schema] is a column-override string like ["Temp=float, Flag=bool?"]
    (see {!Fsdata_core.Csv_schema}). *)

val apply : t -> Fsdata_data.Data_value.t -> Fsdata_foo.Syntax.expr
(** [apply p d] is the application [p.conv d], ready for evaluation. *)

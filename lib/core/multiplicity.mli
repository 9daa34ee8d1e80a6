(** Multiplicities for heterogeneous collections (Section 6.4).

    {v psi = 1? | 1 | * v}

    A heterogeneous collection records, for every element tag appearing in
    the samples, how many elements of that tag one collection instance
    contains: exactly one ([Single]), zero or one ([Optional_single]), or
    zero or more ([Multiple]). The type provider maps these to a plain
    member, an option and a list, respectively.

    Multiplicities are ordered [Single <= Optional_single <= Multiple]
    consistently with the preferred shape relation: a collection carrying
    exactly one element of some tag can always be consumed by code that
    expects zero-or-one or zero-or-more of them. *)

type t = Single | Optional_single | Multiple

val equal : t -> t -> bool

val is_preferred : t -> t -> bool
(** The order [Single <= Optional_single <= Multiple]. *)

val lub : t -> t -> t
(** Least upper bound; used when merging two samples that both contain the
    tag ("turning 1 and 1? into 1?" in the paper's words). *)

val widen_absent : t -> t
(** Adjust a multiplicity when another sample's collection does not contain
    the tag at all: [Single] weakens to [Optional_single]; the others are
    unchanged. *)

val of_count : int -> t
(** Multiplicity observed in a single sample: 1 occurrence is [Single],
    more is [Multiple]. [of_count 0] is invalid. *)

val to_string : t -> string
(** Paper notation: [1], [1?], [*]. *)

val pp : Format.formatter -> t -> unit
(** [to_string]'s text. *)

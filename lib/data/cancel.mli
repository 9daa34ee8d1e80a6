(** Cooperative cancellation for long-running ingestion drivers.

    A token is just a cheap polling function; drivers that loop over
    documents or rows call {!check} between units of work and abandon
    the run with {!Cancelled} once the token trips. The serve layer
    builds tokens from per-request deadlines ([Fsdata_serve.Deadline])
    so a slow or adversarial request is cut off mid-parse instead of
    pinning a worker; tests build them from plain flags.

    Tokens must be fast (they are polled per document) and must never
    raise themselves — all control flow goes through {!check}. *)

type t = unit -> bool
(** [true] once the computation should stop. Must be cheap and
    domain-safe: tokens are polled from ingestion loops that may run on
    any domain. *)

exception Cancelled
(** Raised by {!check}. Escapes the ingestion drivers as-is — callers
    that installed a token are expected to catch it (the serve layer
    maps it to a 408/504 response). *)

val never : t
(** The token that never trips: the default everywhere, costing one
    indirect call per poll. *)

val check : t -> unit
(** [check c] raises {!Cancelled} iff [c ()]. *)

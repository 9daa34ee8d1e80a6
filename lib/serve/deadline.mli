(** Per-request deadlines on the monotonic clock.

    A deadline is an absolute instant; everything downstream of a
    request derives its time budget from one value, so header reads,
    body reads and inference all run out together no matter how the
    work is interleaved (the slowloris defense: trickling bytes resets
    a socket timeout but never moves the deadline). The reader polls
    it in {!Http} via {!check}/{!Expired}; the ingestion drivers poll
    it as a {!Fsdata_data.Cancel.t} via {!cancel}. *)

type t

exception Expired
(** Raised by {!check} — and by reader refills in {!Http} — once the
    deadline has passed. The server maps it to 408. *)

val never : t
(** No deadline; {!expired} is always [false]. *)

val after_ms : int -> t
(** [after_ms ms] is the instant [ms] milliseconds from now
    ([Fsdata_obs.Clock.now_ns]); already expired when [ms <= 0]. *)

val min : t -> t -> t
(** The earlier of two deadlines (e.g. the server timeout and a
    client-supplied [X-Fsdata-Deadline-Ms]). *)

val expired : t -> bool

val remaining_seconds : t -> float
(** Seconds left, [0.] once expired, [infinity] for {!never}. Suitable
    for [SO_RCVTIMEO]. *)

val check : t -> unit
(** @raise Expired once the deadline has passed. *)

val cancel : t -> Fsdata_data.Cancel.t
(** The deadline as a cooperative cancellation token for the ingestion
    engine ({!Fsdata_core.Infer.run}) and {!Fsdata_core.Shape_compile.parse_corpus}. *)

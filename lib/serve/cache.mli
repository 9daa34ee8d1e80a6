(** A mutex-protected LRU map with string keys, the one cache
    implementation of the serving layer. The server keeps two: rendered
    responses (keyed by request digest or by a stream prefix — see
    [docs/SERVING.md] for the cache semantics) and stream query plans.

    Entries may carry a time-to-live: an expired entry behaves exactly
    like a miss (and is dropped on the way out), so a stale response is
    never served even if nothing evicted it. Explicit invalidation
    ({!remove}, {!remove_where}, {!clear}) backs the server's
    [POST /cache/invalidate] endpoint and the registry's
    push-supersedes-cache rule. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity <= 0] creates a disabled cache: {!find} always misses
    and {!add} is a no-op. *)

val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** A hit marks the entry most-recently used. An entry past its TTL
    is removed and reported as a miss. *)

val add : 'a t -> ?ttl_ns:int64 -> string -> 'a -> int
(** Insert (or refresh) a binding, evicting least-recently-used
    entries when over capacity; returns how many entries were evicted
    (0 or 1). [ttl_ns], when given, bounds the entry's life from now;
    without it the entry lives until evicted or invalidated. *)

val remove : 'a t -> string -> bool
(** Drop one binding; [true] if it was present (expired or not). *)

val remove_where : 'a t -> (string -> bool) -> int
(** Drop every binding whose key satisfies the predicate; returns how
    many were dropped. The predicate runs under the cache lock — keep
    it pure and fast (the server uses prefix tests). *)

val clear : 'a t -> int
(** Drop everything; returns how many entries were dropped. *)

(** An append-only write-ahead log of opaque records.

    On disk a record is framed as

    {v
      +----------------+----------------+-------------------+
      | length, u32 LE | CRC-32, u32 LE | payload (length)  |
      +----------------+----------------+-------------------+
    v}

    where the checksum covers the payload bytes (CRC-32/IEEE, the
    polynomial used by gzip). Appends go through the {!Fault_fs} shim,
    so the chaos suite can tear them mid-frame; the fsync policy decides
    whether an append is durable before it returns.

    Recovery ({!open_}) scans the file from the start and accepts the
    longest prefix of well-formed records: a frame that runs past the
    end of the file, or whose checksum does not match, marks the {e torn
    tail} — everything from its first byte on is truncated away, never
    parsed. This is the only repair the log ever performs; it makes a
    crash mid-append indistinguishable from the append never having
    happened, which is exactly the registry's applied-or-absent
    contract (docs/REGISTRY.md). *)

type fsync_policy =
  [ `Always  (** fsync after every append — a returned append is durable *)
  | `Never  (** leave durability to the OS; for benchmarks and tests *) ]

type t

type recovery = {
  records : string list;  (** payloads of the valid prefix, oldest first *)
  truncated_bytes : int;  (** torn-tail bytes cut off, 0 on a clean log *)
}

val crc32 : string -> int
(** CRC-32/IEEE of the whole string, as a non-negative int. *)

val frame : string -> string
(** The on-disk framing of one payload (length, checksum, payload) —
    also used for the snapshot file, which is a single framed record. *)

val scan_one : string -> string option
(** Parse a string holding exactly one framed record (a snapshot file);
    [None] if the frame is short, overlong, or fails its checksum. *)

val open_ : ?fault:Fault_fs.t -> fsync:fsync_policy -> string -> t * recovery
(** Open (creating if absent) the log at the given path, recover its
    valid prefix, truncate any torn tail, and position for appending.
    The recovered payloads are returned for the caller to replay.

    The log is exclusively held for the handle's lifetime — an
    inter-process [lockf] over the whole file plus an in-process table
    (POSIX locks do not conflict between fds of one process). A second
    open of the same path, from this process or another, raises
    [Failure] instead of silently interleaving appends; the lock is
    released by {!close}, or by the kernel if the process dies. *)

val append : t -> string -> unit
(** Frame and append one record; under [`Always] the bytes are fsynced
    before returning. Raises whatever the {!Fault_fs} shim injects —
    a raised append is not acknowledged, and before the error
    propagates the file is rolled back ([ftruncate]) to the
    acknowledged prefix, so a short write or failed fsync never leaves
    torn or unacknowledged bytes for later acked appends to land
    behind. If that rollback itself fails the log is {e wedged}: every
    further append raises [EIO] rather than risk appending after a
    torn frame that recovery would truncate away. *)

val records : t -> int
(** Records in the current segment: recovered at {!open_} plus appended
    since, minus none — {!reset} starts the count over. *)

val sync : t -> unit
(** fsync the log fd regardless of policy. *)

val reset : t -> unit
(** Truncate the log to empty — the compaction step after a snapshot
    has made its records redundant. Goes through the shim's truncate
    fault queue. *)

val close : t -> unit

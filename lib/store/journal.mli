(** An append-only file of {!Record}-framed entries — the write-ahead
    journal. Thread-safe: appends from concurrent writers serialize on
    an internal lock, and concurrent [Always] writers share fsyncs
    through a group-commit barrier.

    Durability is governed by the {!fsync_policy}:
    - [Always] — fsync before the append is acknowledged; an
      acknowledged append survives power loss. The barrier is the only
      path: the fsync may be performed by another writer (the batch
      leader), but {!await} never returns before a completed fsync
      covers the record.
    - [Interval s] — appends are written immediately but fsynced at
      most once per [s] seconds, by the next append or {!flush} once
      the interval is up (and on {!close}); a crash can lose up to the
      last interval of acknowledged appends, provided {!flush} runs
      periodically (the daemon's maintenance thread does).
    - [Never] — no fsyncs except on {!close}; a crash can lose
      anything the OS had not written back yet. Kernel-crash safety
      only comes from [Always]/[Interval]; process-crash ([kill -9])
      safety holds for every policy because appends always reach the
      kernel before the call returns. *)

type fsync_policy = Always | Interval of float | Never

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** Accepts ["always"], ["never"], ["interval"] (1 s) and
    ["interval:<seconds>"]. *)

type t

type recovery = {
  data : string;  (** the file's bytes as read, torn tail included *)
  records : Record.span list;  (** the valid prefix, in order, as spans over [data] *)
  truncated_bytes : int;  (** torn/corrupt tail bytes discarded *)
  corrupt : bool;  (** the discard was a checksum/length mismatch,
                       not a clean cut *)
}

(** Group-commit configuration and statistics. *)
module Group : sig
  type config = {
    window : float;
        (** extra seconds the batch leader waits (lock released)
            before fsyncing, letting more writers stage into the
            batch. [0.0] still batches: writers arriving during an
            in-flight fsync are covered by the next one. *)
    max_batch : int;
        (** a pending batch at least this large skips the window *)
  }

  val default : config
  (** [{ window = 0.0; max_batch = 64 }] *)

  type stats = {
    batches : int;  (** group fsyncs that covered at least one record *)
    batched_appends : int;  (** records released by those fsyncs *)
    fsyncs_saved : int;  (** [batched_appends - batches] *)
    largest_batch : int;
    hist : int array;
        (** batch-size histogram; bucket [i] counts batches of size
            ≤ {!hist_bounds}[.(i)], the final bucket is unbounded *)
  }

  val hist_bounds : int array
end

val open_ :
  ?fsync:fsync_policy -> ?group:Group.config -> ?env:Fsenv.t -> string -> t * recovery
(** Open (creating if missing) and walk the file ({!Record.walk}, every
    CRC checked). A torn or corrupt tail is truncated away on disk so
    new appends extend the valid prefix; the prefix is returned as spans
    over the bytes read, no payload copied. The next sequence number
    continues after the largest recovered one. Default policy
    [Always]; [group] (default {!Group.default}) tunes its barrier.
    Every filesystem effect goes through [env] (default {!Fsenv.real},
    which delegates to [Unix]). *)

val env : t -> Fsenv.t
(** The effect environment the journal was opened with. *)

type counters = { appends : int; bytes : int; fsyncs : int }

val append : t -> string -> int64
(** Append one record and return its sequence number. On return the
    record is durable per the policy (see above); equivalent to
    {!stage} followed by {!await}. *)

val stage : t -> string -> int64
(** Write one record to the file (through the kernel, not necessarily
    to the platter) and return its sequence number. Never fsyncs under
    [Always] — call {!await} before acknowledging; under [Interval] it
    pays the fsync when the interval is up. A failed write (ENOSPC,
    torn) is scrubbed back out of the file and consumes no sequence
    number; a failed fsync additionally poisons the journal (see
    {!await}). A closed journal refuses with [EBADF]. *)

val await : t -> int64 -> unit
(** Block until a completed fsync covers the given sequence number.
    The calling writer may be elected batch leader and perform the
    fsync itself, covering everything staged so far. No-op unless the
    policy is [Always] (other policies never promised immediate
    durability). Raises the original fsync exception, in every waiting
    writer, if the shared fsync failed — the journal is then poisoned
    and refuses further appends. *)

val group_stats : t -> Group.stats
(** The barrier's batching counters (all zero off [Always]). *)

val ingest : t -> string -> Record.span list -> unit
(** [ingest t data records] appends a batch of already-framed records
    shipped from an upstream journal verbatim, keeping their
    upstream-assigned sequence numbers. [records] are [data]'s frames
    as {!Record.walk} returns them, and must cover all of [data] with a
    [Clean] tail ({!Ship.spans}'s check): the caller has checked the
    batch already, so it is not walked again here, and no payload is
    copied unless a rotation in progress mirrors it ({!Record.encode}
    is deterministic, so the raw bytes equal a local re-encoding and
    the file stays a journal this process can itself ship downstream
    with {!Tail}). Records at sequence numbers the journal already
    holds are skipped (a re-shipped batch is idempotent); the
    remainder must continue contiguously at {!next_seq} or
    [Invalid_argument] is raised — a silent gap would wedge every local
    tail cursor with no covering snapshot. Durable like {!append} on
    return: the records go through the same append routine and, under
    [Always], the same barrier. Raises like {!append} on write/fsync
    failure. *)

val bump_seq : t -> int64 -> unit
(** Ensure the next assigned sequence number exceeds the given one —
    how {!Wal} accounts for the sequence numbers a snapshot covers,
    after a compaction emptied the journal or an upstream snapshot was
    installed. The skipped numbers count as fsynced. *)

val next_seq : t -> int64

val file_bytes : t -> int
(** Current size of the journal file in bytes. *)

val flush : t -> bool
(** Fsync now if anything was written since the last one; [true] when
    an fsync actually happened. Waits out an in-flight group fsync.
    Under [Interval s] it fsyncs only once [s] seconds have passed
    since the last fsync, so a caller on a timer keeps the interval
    promise after a quiet spell — when no append comes along to pay
    for the fsync — without syncing more often than the policy says.
    A poisoned journal (see {!await}) is never flushed. *)

val begin_rotation : t -> int64
(** Start a rotation, the only way the file is replaced or emptied:
    returns the highest staged sequence number (what the caller's
    snapshot must cover) and begins mirroring every subsequent append
    in memory. Appends keep flowing while the caller writes its
    snapshot. Sequence numbers keep counting across rotations. Raises
    [Invalid_argument] while another rotation is in progress. *)

val commit_rotation : t -> unit
(** Replace the journal file with just the records staged since
    {!begin_rotation} ({!Fsenv.replace}), then swap file descriptors.
    Must only be called after the snapshot covering
    {!begin_rotation}'s sequence number is durable. A crash before the
    rename leaves the old journal, whose covered prefix recovery skips
    by sequence number; after it, exactly the tail. Everything staged
    so far then counts as durable (in either the snapshot or the
    fsynced replacement). The rotation is over when this returns or
    raises; a failed replace leaves the old file in place. *)

val abort_rotation : t -> unit
(** Drop the mirror without touching the file (snapshot failed). *)

val covered_seq : t -> int64
(** Highest sequence number safe to ship to a replica. Under [Always]
    this is the fsync high-water mark — an acknowledged append
    promised durability, and a replica must never apply a record the
    primary could still lose. Under [Never]/[Interval] acknowledgement
    never implied durability, so everything staged is covered. *)

(** Streaming reader over the journal file for log shipping. A cursor
    remembers a byte offset, the journal epoch it is valid for, and
    the highest sequence number already returned; {!Tail.read} returns
    the raw framed bytes of the next run of records up to
    {!covered_seq}. It finds their boundaries and sequence numbers from
    the frame headers alone ({!Record.frames}) and checks no CRC: the
    bytes go out as they sit in the file, CRC intact, and a replica
    checks every one before it applies or journals anything. Rotation replaces
    the file; the cursor detects this via the epoch
    and rescans from the top, filtering by sequence number, so a
    reader survives any number of compactions. *)
module Tail : sig
  type cursor

  type batch =
    | Records of string
        (** zero or more consecutive framed records; [""] = caught up *)
    | Gap
        (** the records after the cursor were compacted into a
            snapshot — resume from a snapshot bootstrap *)

  val cursor : ?after:int64 -> unit -> cursor
  (** A cursor that will return records with sequence numbers
      strictly greater than [after] (default [0L] — everything). *)

  val last : cursor -> int64
  (** Highest sequence number this cursor has returned. *)

  val read : ?max_bytes:int -> t -> cursor -> batch * int64
  (** Next batch plus the journal's current covered sequence number.
      At most [max_bytes] (default 1 MiB) of records per call, except
      that a single over-sized record is always returned whole. Runs
      under the journal lock, so it serializes with appends and
      rotation but never blocks on an in-flight group fsync. *)
end

val stats : t -> counters

val close : t -> unit
(** Flush, then close. Idempotent. *)

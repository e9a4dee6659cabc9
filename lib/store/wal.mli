(** A durable log directory: one append-only {!Journal} ([wal.log])
    plus an atomically-replaced snapshot ([snapshot.log]) that compacts
    it. Payloads are opaque byte strings — the server layer encodes its
    registry mutations; this module only guarantees they come back.

    Recovery contract: {!open_} returns the snapshot's state payloads
    plus every journal entry appended after that snapshot was taken,
    in order, as spans over the two files' bytes, every CRC checked and
    no payload copied. A torn or corrupt journal tail (the crash case) is
    discarded, never an error: the result is always a prefix of the
    appended sequence. Both files are replaced only by one rotation
    ({!compact_background}, {!install_snapshot}): the snapshot is
    written with {!Fsenv.replace}, so a crash anywhere leaves either
    the old or the new snapshot — and journal entries are only
    discarded {e after} the snapshot covering them is durable.
    Sequence numbers make the overlap window safe: entries already
    folded into the snapshot are skipped by their sequence number on
    recovery.

    Thread-safe for concurrent appends (see {!Journal}); concurrent
    [Always] writers share fsyncs through the journal's group-commit
    barrier. One rotation runs at a time: a second one raises
    [Invalid_argument] while the first is in progress, so callers
    serialize them. *)

type t

type recovery = {
  snapshot_data : string;  (** [snapshot.log]'s bytes as read ([""] without one) *)
  state : Record.span list;  (** snapshot payloads, as spans over [snapshot_data] *)
  journal_data : string;  (** [wal.log]'s bytes as read *)
  entries : Record.span list;
      (** journal payloads newer than the snapshot, as spans over [journal_data] *)
  snapshot_seq : int64;  (** highest sequence the snapshot covers; 0L if none *)
  truncated_bytes : int;  (** journal tail bytes discarded on open *)
  corrupt_tail : bool;  (** the discard was a checksum mismatch, not a cut *)
}

val open_ :
  ?fsync:Journal.fsync_policy ->
  ?group:Journal.Group.config ->
  ?env:Fsenv.t ->
  string ->
  t * recovery
(** [open_ dir] creates [dir] (and parents) if needed, recovers, and
    positions for appending. [?group] tunes the journal's group-commit
    barrier (see {!Journal.open_}). Every filesystem effect goes
    through [env] (default {!Fsenv.real}). *)

val append : t -> string -> int64
(** Journal one payload; durable per the fsync policy on return.
    Equivalent to {!stage} then {!await}. *)

val stage : t -> string -> int64
(** Write one payload without waiting for durability — under [Always]
    the caller must {!await} the returned sequence number before
    acknowledging. See {!Journal.stage}. *)

val await : t -> int64 -> unit
(** Block until a completed fsync covers the sequence number. See
    {!Journal.await}. *)

val install_snapshot : t -> string -> Record.span list -> int64
(** [install_snapshot t data records] installs an upstream snapshot
    shipped as raw record frames (what a reset batch carries: meta
    record first, then one state payload per record), given with
    [data]'s frames as {!Ship.spans} checked them. The bytes become
    the local [snapshot.log] through the same rotation as
    {!compact_background}, the journal is emptied, and sequence
    numbering is re-based past the snapshot's covered sequence
    (returned), so the next {!Journal.ingest} continues contiguously.
    Raises [Invalid_argument] when there is no meta record. *)

val journal_bytes : t -> int
(** Current size of the journal file — the compaction trigger input. *)

val compact_background : t -> state:(unit -> string list) -> unit
(** Compaction without stopping the writers: capture the covered
    sequence number, start mirroring concurrent appends, call [state]
    (which must return a state reflecting {e at least} every mutation
    up to the captured sequence number), write it as a durable
    snapshot, then atomically replace the journal file with just the
    mirrored tail — an empty one when the caller holds off writers.
    On failure before the snapshot is durable the journal is left
    untouched. *)

val flush : t -> bool
(** Fsync the journal if dirty (an [Interval] journal only once its
    period is up — see {!Journal.flush}); [true] when an fsync
    happened. *)

type counters = {
  appends : int;
  bytes : int;
  fsyncs : int;
  compactions : int;
}

val stats : t -> counters

val group_stats : t -> Journal.Group.stats
(** The journal's group-commit counters. *)

val dir : t -> string

val env : t -> Fsenv.t
(** The effect environment the store was opened with. *)

val journal : t -> Journal.t
(** The underlying journal — what {!Ship} tails for replication. *)

val snapshot_path : t -> string
(** Path of [snapshot.log] (which may not exist yet). *)

val close : t -> unit
(** Flush and close. Idempotent. *)

(** Log shipping: serve {!Wal} journal records to replicas as raw
    framed batches.

    The wire format of a batch {e is} the journal file format — a
    concatenation of {!Record}-framed entries with their original
    CRCs, so a replica validates integrity with the same decoder the
    primary recovers with. A batch only ever contains records at or
    below the journal's covered sequence number ({!Journal.covered_seq}),
    so a replica can never apply a record the primary had not made
    durable (under [fsync=always]; looser policies never promised
    durability to anyone).

    When a compaction has folded the records a replica still needs
    into the snapshot, {!fetch} returns the snapshot file's valid
    prefix flagged [reset = true]: the replica must clear its state
    and apply the snapshot's payloads (its first record is a meta
    record with an empty payload whose sequence number says how far it
    covers). *)

type t

type batch = {
  data : string;  (** raw framed records; [""] = caught up *)
  covered : int64;  (** the primary's covered seq at read time *)
  reset : bool;  (** [data] is a snapshot bootstrap, not a tail *)
}

val create : Wal.t -> t

val fetch : ?max_bytes:int -> t -> after:int64 -> batch
(** Records with sequence numbers in [(after, covered]]. Keeps a small
    cache of tail cursors keyed by position so sequential pollers
    stream in O(new bytes); any [after] value works, cached or not.
    [max_bytes] caps a batch at a record boundary (default 1 MiB), an
    over-sized single record is returned whole. *)

val covered_seq : t -> int64
(** See {!Journal.covered_seq}. *)

val snapshot : t -> (int64 * string) option
(** The snapshot file's valid prefix plus the sequence number it
    covers (its meta record's), or [None] when no snapshot exists yet.
    What [GET /replication/snapshot] serves so a fresh replica can
    bootstrap without replaying the full journal. *)

type stats = {
  cursor_hits : int;  (** fetches served by a cached cursor *)
  cursor_misses : int;  (** fetches that had to open a fresh cursor *)
  reset_batches : int;  (** gap fetches answered with a snapshot bootstrap *)
  cursor_lags : int64 list;
      (** per cached cursor: records between its position and the
          covered sequence — how far each known follower trails *)
}

val stats : t -> stats

val spans : string -> (Record.span list, string) result
(** Replica side: check a shipped batch and give its records as spans
    over it ({!Record.walk}), rejecting it unless every byte checks
    out ([Clean] tail) — a torn or corrupt batch means a transport bug
    or a frame corrupted on the upstream's disk, not a crash artifact.
    This is where shipped CRCs are checked: {!fetch} frames a batch by
    its headers alone. *)

val decode : string -> ((int64 * string) list, string) result
(** {!spans} with each payload copied out as a [(seq, payload)] pair;
    the same check and the same errors. *)

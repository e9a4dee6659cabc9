(** Durable registry mutations: the encoding layer between
    {!Registry} and {!Store.Wal}.

    Every state change the API acknowledges — session creation (with
    the full project payload), an applied diff, a removal — is encoded
    as one payload and appended to the write-ahead journal before the
    2xx response is sent; {!Store.Journal.fsync_policy} decides what
    "durable" means. Creates carry their three XML artifacts verbatim
    behind a small length-prefixed header (escaping whole documents
    into JSON strings was the dominant CPU cost of a journaled
    create); every other mutation is one JSON object. On boot,
    {!open_} replays snapshot + journal into a mutation list the
    registry re-applies; a record that does not decode (a JSON-encoded
    create among them) is skipped and counted in [undecodable].

    Thread-safety: {!log}, {!compact} and {!flush} take an internal
    lock, but callers must additionally serialize mutations against
    each other so journal order equals apply order — {!Registry} does
    this with its mutation lock. *)

type mutation =
  | Create of {
      id : string;
      policy : Adl.Graph.policy;
      scenarios : string;  (** ScenarioML XML *)
      architecture : string;  (** xADL XML *)
      mapping : string;  (** mapping XML *)
    }
  | Diff of { id : string; ops : Adl.Diff.op list }
  | Set_architecture of { id : string; architecture : string }
      (** fallback for diffs whose ops the wire format cannot encode:
          the whole post-diff architecture *)
  | Remove of { id : string }

val encode_ops : Adl.Diff.op list -> Jsonlight.t option
(** The removal/rename vocabulary of the [/diff] endpoint; [None] when
    some op (an [Add_*]) has no wire encoding — the caller journals a
    {!Set_architecture} instead. *)

val encode : mutation -> string

val decode : string -> (mutation, string) result

type recovery = {
  mutations : mutation list;
      (** snapshot state (all [Create]s) followed by journal entries,
          in acknowledgement order *)
  entries : int;  (** total records read (snapshot + journal) *)
  undecodable : int;  (** records whose payload failed to decode *)
  truncated_bytes : int;  (** torn/corrupt journal tail discarded *)
  corrupt_tail : bool;
}

type t

val open_ :
  ?fsync:Store.Journal.fsync_policy ->
  ?group:Store.Journal.Group.config ->
  ?compact_bytes:int ->
  ?env:Store.Fsenv.t ->
  string ->
  t * recovery
(** [open_ dir] recovers from [dir] (creating it if needed).
    [?group] enables group commit: concurrent [Always] writers share
    fsyncs (see {!Store.Journal.enable_group}). [compact_bytes]
    (default 8 MiB) is the journal size past which {!should_compact}
    asks for a snapshot. [?env] injects the filesystem effects
    (default {!Store.Fsenv.real}) — how the simulation harness runs
    the whole persistence stack against an in-memory fault model. *)

val set_metrics : t -> Metrics.t -> unit
(** Mirror journal counters into the given metrics after every
    operation. *)

val log : t -> mutation -> unit
(** Append one mutation; on return it is durable per the fsync
    policy. Equivalent to {!stage} followed by {!await}. *)

val stage : t -> mutation -> int64
(** Write one mutation to the journal without waiting for durability;
    returns its sequence number. The caller must hold whatever lock
    makes journal order equal apply order while staging — but should
    release it before {!await}, so concurrent writers batch into one
    fsync instead of queuing behind each other's. *)

val await : t -> int64 -> unit
(** Block until the staged mutation is durable per the fsync policy
    (a no-op except under group commit with [Always]). *)

val should_compact : t -> bool

val compact : t -> state:mutation list -> unit
(** Snapshot the given full state (a [Create] per live session) and
    empty the journal. The caller guarantees [state] reflects every
    mutation logged so far (it holds the registry mutation lock). *)

val compact_background : t -> state:(unit -> mutation list) -> unit
(** Compaction that runs while mutations keep flowing: the journal
    mirrors everything staged after the covered point and is
    atomically replaced with just that tail once the snapshot is
    durable (see {!Store.Wal.compact_background}). [state] is called
    after the covered point is captured and must reflect at least
    every mutation applied up to it — the registry guarantees this
    because it applies before staging, under its mutation lock. *)

val flush : t -> unit

val fsync_policy : t -> Store.Journal.fsync_policy

val covered_seq : t -> int64
(** Highest journaled sequence number safe to ship to a replica —
    see {!Store.Ship.covered_seq}. *)

val next_seq : t -> int64
(** The sequence number the next staged mutation will receive — how
    the simulation harness predicts a mutation's identity before
    executing it. *)

val ship : ?max_bytes:int -> t -> after:int64 -> Store.Ship.batch
(** Serve the next batch of framed journal records to a replica —
    see {!Store.Ship.fetch}. *)

val snapshot : t -> (int64 * string) option
(** The current snapshot file's raw frames plus the sequence it
    covers, for [GET /replication/snapshot] — see {!Store.Ship.snapshot}. *)

val ship_stats : t -> Store.Ship.stats
(** Cursor-cache hit/miss counts, reset-batch count and per-cursor
    ship lag — what a primary's [GET /replication] reports. *)

val ingest : t -> string -> unit
(** Replica side: append a shipped batch's raw frames to the local
    journal, keeping upstream sequence numbers — see
    {!Store.Wal.ingest}. Durable per the fsync policy on return. *)

val install_snapshot : t -> string -> int64
(** Replica side: install a shipped reset batch as the local snapshot,
    empty the journal, and re-base sequence numbering past the
    returned covered sequence — see {!Store.Wal.install_snapshot}. *)

val stats : t -> Store.Wal.counters
(** Lifetime journal counters (appends, bytes, fsyncs, compactions). *)

val group_stats : t -> Store.Journal.Group.stats option
(** Group-commit batching counters; [None] unless [?group] was passed
    to {!open_}. *)

val dir : t -> string

val close : t -> unit
(** Flush and close the journal. Idempotent. *)

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
    {!open_} decodes snapshot + journal where they lie into a list the
    registry re-applies; a record that does not decode (a JSON-encoded
    create among them) is skipped and counted in [undecodable].

    Thread-safety: {!stage}, {!ingest}, {!install_snapshot} and
    {!flush} take an internal lock, but callers must additionally
    serialize mutations against each other so journal order equals
    apply order, and snapshot replacements ({!compact_background},
    {!install_snapshot}) against each other — {!Registry} does both.

    [GET /metrics] reads {!stats}, {!group_stats} and {!ship_stats}
    when it is scraped. *)

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

type decoded =
  | Decoded of mutation
  | Create_in of { id : string; create : mutation Lazy.t }
      (** a create whose header is checked but whose three documents
          still lie in the string it was decoded from: forcing
          [create] copies them out *)

val decode_at : string -> pos:int -> len:int -> (decoded, string) result
(** [decode_at data ~pos ~len] decodes the payload [data.[pos, pos +
    len)] where it lies, as {!decode} would decode a copy of it: it
    accepts exactly what {!decode} accepts, with the same error texts,
    and a [Create_in] forces to {!decode}'s [Create]. A create's header
    is parsed and its lengths checked here; its documents are copied
    only when forced, so a create that a later remove supersedes is
    never copied. How boot decodes the journal and snapshot records,
    and a replica a shipped batch's records.
    @raise Invalid_argument when the span is not within [data]. *)

type recovery = {
  mutations : decoded list;
      (** snapshot state (all creates) then journal entries, in
          acknowledgement order, decoded where they lie ({!decode_at}):
          unforced creates keep the bytes read alive, so drop the
          recovery once {!Registry.recover} has run *)
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
    [?group] tunes the group-commit barrier through which concurrent
    [Always] writers share fsyncs (see {!Store.Journal.open_}).
    [compact_bytes] (default 8 MiB) is the journal size past which
    {!should_compact} asks for a snapshot. [?env] injects the
    filesystem effects (default {!Store.Fsenv.real}) — how the
    simulation harness runs the whole persistence stack against an
    in-memory fault model. *)

val stage : t -> mutation -> int64
(** Write one mutation to the journal without waiting for durability;
    returns its sequence number. The caller must hold whatever lock
    makes journal order equal apply order while staging — but should
    release it before {!await}, so concurrent writers batch into one
    fsync instead of queuing behind each other's. *)

val await : t -> int64 -> unit
(** Block until the staged mutation is durable per the fsync policy
    (a no-op except under [Always]). *)

val should_compact : t -> bool

val compact_background : t -> state:(unit -> mutation list) -> unit
(** Snapshot [state] (a [Create] per live session) and rotate the
    journal, while mutations keep flowing: the journal mirrors
    everything staged after the covered point and is atomically
    replaced with just that tail once the snapshot is durable (see
    {!Store.Wal.compact_background}) — with no mutation in between, an
    empty journal. [state] is called after the covered point is
    captured and must reflect at least every mutation applied up to
    it — the registry guarantees this because it applies before
    staging, under its mutation lock. *)

val flush : t -> unit
(** Fsync the journal if an append is still unsynced — under an
    [Interval s] policy only once [s] seconds have passed since the
    last fsync (see {!Store.Journal.flush}). The daemon's maintenance
    thread calls this on an [Interval] journal, so an acknowledged
    append is synced within the interval even when no later append
    comes along to pay for the fsync. *)

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
    {!Store.Journal.ingest}. Durable per the fsync policy on return.
    Checks the batch with {!Store.Ship.spans} and raises
    [Invalid_argument] when it is torn or corrupt; a caller that has
    checked it already passes the spans to {!ingest_frames}. *)

val ingest_frames : t -> string -> Store.Record.span list -> unit
(** {!ingest} of a batch together with its records, as
    {!Store.Ship.spans} returned them for it: the bytes are written as
    they are, and no payload is copied. *)

val install_snapshot : t -> string -> int64
(** Replica side: install a shipped reset batch as the local snapshot,
    empty the journal, and re-base sequence numbering past the
    returned covered sequence — see {!Store.Wal.install_snapshot}.
    Checks the batch like {!ingest}. *)

val install_frames : t -> string -> Store.Record.span list -> int64
(** {!install_snapshot} of a batch together with its records, as
    {!Store.Ship.spans} returned them for it. *)

val stats : t -> Store.Wal.counters
(** Lifetime journal counters (appends, bytes, fsyncs, compactions). *)

val group_stats : t -> Store.Journal.Group.stats
(** Group-commit batching counters. *)

val dir : t -> string

val close : t -> unit
(** Flush and close the journal. Idempotent. *)

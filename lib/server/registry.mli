(** The daemon's collection of named evaluation sessions.

    One table, guarded by its own lock, maps each id to one entry: the
    session incarnation registered under it (a delete and re-create
    makes a new one) and that incarnation's cached response. Each held
    {!Core.Sosae.Session.t} is additionally serialized through
    {!Core.Sosae.Session.exclusively} by {!with_session}, so concurrent
    requests against the same session queue up while requests against
    distinct sessions run in parallel.

    Memory changes along one path: an insert, a delete or an edit of an
    entry, each of which knows its own undo. With a {!Persist.t}, every
    mutation — {!add}, {!apply_diff}, {!remove} — is appended to the
    write-ahead journal before the call returns (and so before the API
    acknowledges it). A mutation lock serializes the apply-and-stage
    step so journal order equals apply order; when the journal refuses
    the record, the change is undone before the exception propagates,
    so memory never holds a mutation recovery would not rebuild. The
    durability wait happens with that lock released — under group
    commit, concurrent mutators share one fsync instead of queuing
    behind each other's. Evaluations and other reads never touch that
    lock. Lock order: mutation lock > snapshot lock > session locks >
    table lock. *)

type t

val create : ?jobs:int -> ?persist:Persist.t -> unit -> t
(** [jobs] is handed to every [Session.evaluate] the server runs
    (default {!Core.Sosae.default_jobs}): the domain-pool width for an
    evaluate whose stale walks reach {!Core.Sosae.fan_out_work}. Smaller
    evaluates, and every campaign, run on the request's thread.
    [persist], when given, makes every
    mutation durable; the registry still starts empty — feed
    {!recover} the mutations {!Persist.open_} returned. *)

val jobs : t -> int

val persist : t -> Persist.t option

val add :
  t ->
  id:string ->
  ?config:Walkthrough.Engine.config ->
  ?source:string * string * string ->
  Core.Sosae.project ->
  (unit, [ `Conflict ]) result
(** Create a session named [id] over the project. [`Conflict] when the
    name is taken. Durable on return (per the fsync policy) when the
    registry persists; if the journal refuses the record, the in-memory
    insert is undone and the exception propagates (the API answers 500
    — never an acknowledged-but-lost session). A failed fsync after a
    successful stage leaves the session in memory, unacknowledged;
    recovery may keep it, since its bytes were written.

    [source] is the [(scenarios, architecture, mapping)] XML the
    project was parsed from; when given, those exact strings are
    journaled instead of re-serializing the project — callers that
    received artifacts over the wire already hold them, and skipping
    the three [to_string] passes roughly halves the CPU cost of a
    journaled create. *)

val remove : t -> string -> bool
(** [true] when a session was removed (journaled first, and undone
    when the journal refuses the record, like {!add}). *)

val apply_diff :
  t ->
  string ->
  ops:(Core.Sosae.Session.t -> Adl.Diff.op list) ->
  (Adl.Diff.op list, [ `Not_found | `Apply_error of string ]) result
(** [apply_diff t id ~ops] runs [ops] under the session's lock (it may
    read the current architecture — the API expands [excise] there),
    applies the resulting op list, journals it, and returns it. Ops
    without a wire encoding ([Add_*]) are journaled as the whole
    post-diff architecture instead. When the journal refuses the
    record, the pre-diff architecture is restored and the exception
    propagates, like {!add}. The restore is a new revision: cached
    verdicts revalidate by replay, and the response cached for the
    diff's revision no longer matches. *)

type recovery_stats = {
  applied : int;  (** tried and applied *)
  skipped : int;  (** tried and refused: no longer applies *)
  superseded : int;
      (** not applied because a later [Remove] of the same id in the
          same list cancels it, plus each such closing [Remove] that
          then finds nothing to delete *)
}
(** For a list of [n] mutations, [applied + skipped + superseded = n]. *)

val recover : t -> Persist.mutation list -> recovery_stats
(** Replay recovered mutations into the registry without re-journaling
    them. Only what the list leaves standing is applied: each id's last
    [Remove] cancels every earlier mutation of that id, which is then
    neither parsed nor applied and counts as [superseded]. This is
    exact — every mutation changes only its own id's entry, and that
    remove leaves the id absent whatever came before — so the end state
    is the one a record-by-record replay reaches. Records that are
    tried but no longer apply — the benign case is a mutation
    journaled in the compaction overlap window, whose effect the
    snapshot already contains — are counted in [skipped] and dropped.
    Takes the same locks as {!apply_shipped}, so it needs no
    quiescence; the daemon calls it once, before serving. *)

val apply_shipped :
  t -> reset:bool -> string -> (recovery_stats * int64, string) result
(** The replica apply loop's entry point: decode a shipped batch's raw
    frames and apply them — like {!recover} but safe while the
    registry is serving reads (the batch is applied under the mutation
    lock through the same inserts, deletes and edits as the primary's
    mutations, so a re-created session starts with no cached
    response). Like {!recover}, it applies only what the batch leaves
    standing, so a concurrent read never sees a session that the same
    batch creates and removes; every frame is still journaled. The
    batch is walked once, checking every CRC ({!Store.Ship.spans}),
    and every payload is decoded where it lies ({!Persist.decode_at})
    before anything is applied: a create's documents are copied out
    of the batch only when the create is applied, so a superseded
    create costs no copy. Returns the apply statistics plus the highest record
    sequence in the batch ([0L] for an empty one). When the registry
    persists, the batch is journaled locally first, byte-for-byte and
    under the same mutation lock, so a durable replica is itself
    shippable-from and immediately durable after promotion. [reset]
    (the batch is a snapshot bootstrap: the primary compacted away the
    records after this replica's position) installs the batch as the
    local snapshot, re-bases the journal, and deletes every session
    (with its cached response) before applying; no compaction runs
    between the deletes and the install. [Error] means the batch failed CRC
    validation or carried an undecodable payload — a transport bug or
    a frame corrupted on the upstream's disk; nothing was applied or
    journaled. A journal failure raises after the batch was
    applied in memory (the local journal then lags it). *)

val checkpoint : t -> unit
(** Compact now, with mutations held off: snapshot the current state
    and rotate the journal to empty. No-op without persistence. The
    daemon calls this during SIGTERM drain so restarts recover from a
    snapshot instead of a long journal. *)

val maintenance_compact : t -> bool
(** If the journal is past its compaction threshold, snapshot and
    rotate it {e without} stopping mutations (see
    {!Persist.compact_background}); [true] when a compaction ran.

    {!checkpoint}, this and a reset {!apply_shipped} are the registry's
    snapshot writers, and they run one at a time: each holds one
    registry lock from state capture to snapshot swap, so any of them
    may run from any thread. *)

val ids : t -> string list
(** Sorted. *)

(** {1 Response cache}

    The warm evaluate path is dominated by rendering the full-suite
    result, not by evaluating it (verdicts are already cached in the
    session). Each session's registry entry therefore holds one string
    of the caller's bytes keyed on {!Core.Sosae.Session.revision} —
    valid exactly while no architecture edit lands — together with a
    strong entity tag the API surfaces as [ETag] / answers
    [If-None-Match] with. The registry never reads the bytes: {!Api}
    keeps the whole warm response body there. A re-created session is
    a new entry, so it starts with nothing cached; both accessors check
    (under the table lock) that [session] is still physically the one
    registered for [id], so an evaluate that outlives a delete/recreate
    can neither poison the namesake's cache nor serve its bytes. Etags read
    ["r<revision>-<boot>-<n>"]: a random per-boot component plus a
    registry-global mint counter, so an etag handed out for one
    incarnation of a session — or by an earlier run of the daemon —
    can never validate against a later one. *)

val cached_response :
  t -> string -> session:Core.Sosae.Session.t -> revision:int ->
  (string * string) option
(** [cached_response t id ~session ~revision] is [Some (etag, body)]
    when bytes for exactly that session revision are cached and
    [session] is still the session registered for [id]. *)

val cache_response :
  t -> string -> session:Core.Sosae.Session.t -> revision:int ->
  body:string -> string
(** Store [body] for [revision] on [id]'s entry, replacing what it
    held, and return a freshly minted etag. When [session] is no longer
    the one registered for [id], nothing is stored and the returned
    etag will never validate. *)

val with_session :
  t -> string -> (Core.Sosae.Session.t -> 'a) -> ('a, [ `Not_found ]) result
(** Run the callback holding the session's private lock
    ({!Core.Sosae.Session.exclusively}). The registry lock is NOT held
    during the callback, so slow evaluations don't block unrelated
    requests; a concurrent [remove] only unlinks the name, the session
    stays valid for callbacks already running. *)

(** The daemon's collection of named evaluation sessions.

    The registry map itself is guarded by its own lock (creation,
    lookup, removal); each held {!Core.Sosae.Session.t} is additionally
    serialized through {!Core.Sosae.Session.exclusively} by
    {!with_session}, so concurrent requests against the same session
    queue up while requests against distinct sessions run in
    parallel.

    With a {!Persist.t}, every mutation — {!add}, {!apply_diff},
    {!remove} — is appended to the write-ahead journal before the call
    returns (and so before the API acknowledges it); a mutation lock
    serializes the apply-and-stage step so journal order equals apply
    order, but the durability wait happens with that lock released —
    under group commit, concurrent mutators share one fsync instead of
    queuing behind each other's. Evaluations and other reads never
    touch that lock. *)

type t

val create : ?jobs:int -> ?persist:Persist.t -> unit -> t
(** [jobs] is the domain-pool width handed to every
    [Session.evaluate] the server runs (default
    {!Core.Sosae.default_jobs}). [persist], when given, makes every
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
    registry persists; if journaling fails, the in-memory insert is
    rolled back and the exception propagates (the API answers 500 —
    never an acknowledged-but-lost session).

    [source] is the [(scenarios, architecture, mapping)] XML the
    project was parsed from; when given, those exact strings are
    journaled instead of re-serializing the project — callers that
    received artifacts over the wire already hold them, and skipping
    the three [to_string] passes roughly halves the CPU cost of a
    journaled create. *)

val remove : t -> string -> bool
(** [true] when a session was removed (journaled first, like {!add}). *)

val apply_diff :
  t ->
  string ->
  ops:(Core.Sosae.Session.t -> Adl.Diff.op list) ->
  (Adl.Diff.op list, [ `Not_found | `Apply_error of string ]) result
(** [apply_diff t id ~ops] runs [ops] under the session's lock (it may
    read the current architecture — the API expands [excise] there),
    applies the resulting op list, journals it, and returns it. Ops
    without a wire encoding ([Add_*]) are journaled as the whole
    post-diff architecture instead. *)

type recovery_stats = { applied : int; skipped : int }

val recover : t -> Persist.mutation list -> recovery_stats
(** Replay recovered mutations into the registry without re-journaling
    them. Records that no longer apply — the benign case is a mutation
    journaled in the compaction overlap window, whose effect the
    snapshot already contains — are counted in [skipped] and dropped.
    Takes the same locks as {!apply_shipped}, so it needs no
    quiescence; the daemon calls it once, before serving. *)

val apply_shipped :
  t -> reset:bool -> string -> (recovery_stats * int64, string) result
(** The replica apply loop's entry point: decode a shipped batch's raw
    frames and apply them — like {!recover} but safe while the
    registry is serving reads (the batch is applied under the mutation
    lock, table accesses under the registry lock, session edits under
    each session's own lock, and create/remove invalidate the response
    cache). Returns the apply statistics plus the highest record
    sequence in the batch ([0L] for an empty one). When the registry
    persists, the batch is journaled locally first, byte-for-byte and
    under the same mutation lock, so a durable replica is itself
    shippable-from and immediately durable after promotion. [reset]
    (the batch is a snapshot bootstrap: the primary compacted away the
    records after this replica's position) installs the batch as the
    local snapshot, re-bases the journal, and clears every session and
    cached response before applying; no compaction runs between the
    clear and the install. [Error] means the batch failed CRC
    validation or carried an undecodable payload — a transport bug,
    nothing was applied. A journal failure raises after the batch was
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

(** {1 Serialized-response cache}

    The warm evaluate path is dominated by serializing the full-suite
    result, not by evaluating it (verdicts are already cached in the
    session). The registry therefore keeps, per session, one serialized
    result body keyed on {!Core.Sosae.Session.revision} — valid exactly
    while no architecture edit lands — together with a strong entity
    tag the API surfaces as [ETag] / answers [If-None-Match] with.
    Entries are dropped when a session is created or removed under the
    same id; both accessors verify (under the registry lock) that
    [session] is still physically the one registered for [id], so an
    evaluate that outlives a delete/recreate can neither poison the
    namesake's cache nor serve its bytes. Etags carry a random
    per-boot component plus a registry-global mint counter, so an etag
    handed out for one incarnation of a session — or by an earlier
    run of the daemon — can never validate against a later one. *)

val cached_response :
  t -> string -> session:Core.Sosae.Session.t -> revision:int ->
  (string * string) option
(** [cached_response t id ~session ~revision] is [Some (etag, body)]
    when a serialized result for exactly that session revision is
    cached and [session] is still the session registered for [id]. *)

val cache_response :
  t -> string -> session:Core.Sosae.Session.t -> revision:int ->
  body:string -> string
(** Store the serialized result for [revision] and return its freshly
    minted etag. If a concurrent caller already stored the same
    revision, its (equivalent) entry and etag are kept. When [session]
    is no longer the one registered for [id], nothing is stored and
    the returned etag will never validate. *)

val with_session :
  t -> string -> (Core.Sosae.Session.t -> 'a) -> ('a, [ `Not_found ]) result
(** Run the callback holding the session's private lock
    ({!Core.Sosae.Session.exclusively}). The registry lock is NOT held
    during the callback, so slow evaluations don't block unrelated
    requests; a concurrent [remove] only unlinks the name, the session
    stays valid for callbacks already running. *)

(** The HTTP endpoints: routes, JSON payloads, and error bodies. Pure
    request → response logic over the registry — no sockets, which is
    what lets the e2e tests also call {!handle} directly.

    Every error response is
    [{"error":{"category":<string>,"message":<string>}}] (possibly
    with extra machine-readable fields in the error object). Categories
    mirror {!Core.Sosae.load_error} for loading failures ([io_error],
    [xml_error], [schema_error]) and extend them with [apply_error],
    [bad_request], [not_found], [method_not_allowed],
    [payload_too_large], [unsupported], [overloaded], [timeout],
    [read_only], [no_journal] and [internal].

    Roles: a daemon is a [Primary] (the default) or a [Replica]
    feeding off one. A replica serves every read — [GET]s, evaluate,
    evaluate/batch, diff/preview, simulate — from its locally applied
    copy, and rejects mutations ([POST /sessions], [DELETE],
    [POST .../diff]) with [421] [read_only], the primary's address in
    the error object's ["primary"] field, and [Retry-After: 1].

    Endpoints:
    - [GET /health] — liveness: status, version, session count.
    - [GET /metrics] — request counters, latency histogram, in-flight
      gauge, registry-wide cache statistics. Read from their owners
      when scraped: with a journal, a [journal] object (records,
      bytes, fsyncs, compactions, the [group_commit] batching counters
      and the boot [recovery] summary); on every node, a [replication]
      object byte-equal to the [GET /replication] body.
    - [GET /sessions] — session ids with their cache stats.
    - [POST /sessions] — create a session; the body carries the
      artifact XML inline ([scenarios]/[architecture]/[mapping] string
      fields) or server-side file names (a [paths] object), plus an
      optional [policy] ("routed"|"direct"). 201, or 409 on a taken id.
    - [GET /sessions/:id/stats] — one session's cache stats and
      architecture size.
    - [POST /sessions/:id/evaluate] — the full suite through the
      verdict cache (empty body), or a sub-suite ([{"scenarios":
      [ids]}]); responds with the verdicts plus how many scenarios were
      re-walked vs served from cache for this call. Full-suite
      responses carry a strong [ETag] bound to the session's
      architecture revision; a request whose [If-None-Match] matches is
      answered [304 Not Modified] with no body (the session's verdict
      cache is still consulted, so stats count the call like any
      other). The whole warm body, counters [0] and the suite's size,
      is cached per revision: a call that re-walks nothing answers it
      as it is, and any other call answers the cached result with its
      own counters.
    - [POST /sessions/:id/evaluate/batch] — [{"suites": [body, …]}]
      where each element is shaped like a one-shot evaluate body (at
      most 1024); answers [{"responses": [r, …]}] with each element
      byte-for-byte the one-shot 200 body, in order, computed under one
      session-lock acquisition. Any bad element fails the whole batch
      with the one-shot status.
    - [POST /sessions/:id/diff] — apply evolution ops
      ([{"ops":[{"op":"remove_link","id":...}, ...]}]); [excise]
      removes every link between two elements (the paper's Fig. 4
      excision as an API call). 409 [apply_error] when an op does not
      apply, and the session is untouched.
    - [POST /sessions/:id/diff/preview] — expand and validate the same
      body without applying anything; answers the expanded op list.
      Served by replicas (it is a read).
    - [DELETE /sessions/:id] — drop a session.
    - [GET /replication] — role, primary address (replicas), applied
      and covered sequence numbers, lag, the replica's [last_error]
      when its last poll failed, and on a journaling node that has
      been fetched from, a [ship] object (cursor-cache hits/misses,
      reset batches, per-cursor lag).
    - [GET /replication/log?after=N] — the ship endpoint: raw
      {!Store.Record}-framed journal records with sequence numbers in
      [(N, covered]] as [application/octet-stream], the covered seq in
      [X-Sosae-Covered], and [X-Sosae-Reset: 1] when the body is a
      snapshot bootstrap. [409] [no_journal] without a data dir. *)

type role = Primary | Replica of Replica.t

type ctx = {
  registry : Registry.t;
  metrics : Metrics.t;
  mutable role : role;
      (** set once by the daemon before serving; flipped to [Primary]
          by a promotion *)
}

val make_ctx : ?jobs:int -> ?persist:Persist.t -> unit -> ctx
(** [persist] makes every registry mutation durable (see {!Registry});
    the caller replays recovered mutations with {!Registry.recover}
    before serving. The role starts as [Primary]. *)

val error_response :
  ?headers:(string * string) list ->
  ?extra:(string * Jsonlight.t) list ->
  int ->
  category:string ->
  string ->
  Http.response
(** [headers] are appended after [Content-Type]; [extra] fields are
    appended inside the error object. *)

val response_of_parse_error : Http.parse_error -> Http.response
(** 400/413/501 with the matching category, for the connection layer. *)

val overloaded_response : Http.response
(** The 429 [overloaded] the daemon writes to a connection that finds
    its bound of open connections reached. *)

val handle : ctx -> Http.request -> string * Http.response
(** Dispatch one request. The returned string is the matched route
    pattern (["<unmatched>"] otherwise) — the metrics label. Handler
    escapes are caught and mapped to 500 [internal]; never raises. *)

(** A minimal blocking HTTP/1.1 client, just enough to talk to
    {!Daemon}: keep-alive connections, [Content-Length]-framed
    responses, and one retry loop. {!Replica} fetches shipped batches
    with it, and the tests and the bench harness ([bench/main.ml])
    drive daemons with it — not a general-purpose client. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** TCP to [host] (default 127.0.0.1). The host is resolved with
    [getaddrinfo], so names like ["localhost"] work as well as numeric
    addresses. *)

val connect_unix : string -> t
(** Unix-domain socket at the given path. *)

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected descriptor (e.g. one end of a
    socketpair) — lets tests drive the protocol machinery with no
    listener. The client takes ownership: {!close} closes it. *)

type response = { status : int; headers : (string * string) list; body : string }

val request :
  t ->
  ?headers:(string * string) list ->
  ?body:string ->
  Http.meth ->
  string ->
  (response, string) result
(** [request t meth target] sends one request and reads the response.
    A [Content-Length] header is added when [body] is given. A [HEAD]
    response is read as header-only (its [Content-Length] names the
    GET body it does not carry). [Error] means the connection is
    unusable (closed, timed out, or the response did not parse) —
    reconnect to retry. Never raises. *)

val get : t -> string -> (response, string) result

val post : t -> string -> body:string -> (response, string) result

val close : t -> unit

(** {2 Retries}

    {!with_retry}, {!call}, {!read} and {!mutate} run one attempt
    loop. Each entry point chooses only where the next try goes and
    whether a connection survives a successful try; the loop owns the
    rest, with the same rules everywhere:

    - A try is {e transient} when the connection is refused or torn
      (opening it raises [Unix_error], or [f] returns [Error]), when
      the response has a {!retryable_status}, or when it is a [421]
      carrying [Retry-After] (a promotion in flight). Any other
      response is final and returned as-is.
    - After a transient try the loop sleeps the next capped, jittered
      exponential backoff (see {!backoff_schedule}), floored by the
      response's {!retry_after}, and tries again, up to
      [policy.max_attempts] attempts; when they run out the last
      outcome is returned. Only a read pass moves on without sleeping
      (see {!read}).
    - With follow-primary on, a [421] [read_only] rejection naming its
      primary ({!read_only_primary}) sends every later try to that
      address. The redirect spends an attempt but skips the backoff;
      an unreachable primary then fails like any refused connect, so
      there is never an infinite follow loop.
    - A connection is dropped after a torn try, after a response
      carrying [Connection: close] (the daemon's per-connection
      request cap, or a drain), and when [f] raises. The exception
      escapes and is not retried. [f] must be safe to repeat.
    - [seed] fixes the jitter: one generator per handle, drawn once
      per sleep. [sleep] (default [Unix.sleepf]) and [connect_to]
      (default: a TCP {!connect}, used for every address-named try)
      are injectable, so tests can record delays and script
      connections instead of waiting on sockets. *)

type retry_policy = {
  max_attempts : int;  (** total tries, including the first *)
  base_delay : float;  (** seconds before the first retry *)
  multiplier : float;  (** exponential growth factor *)
  max_delay : float;  (** cap on any single delay, seconds *)
  jitter : float;  (** 0..1 — each delay is shrunk by up to this
                       fraction of itself *)
}

val default_policy : retry_policy
(** 6 attempts, 50 ms base, doubling, 2 s cap, 0.2 jitter — worst
    case a little under 4 s of waiting. *)

val retryable_status : int -> bool
(** [true] for 408 (request timeout), 429 (overloaded) and 503.
    Deliberately not 421 (a replica's read-only rejection): asking the
    same replica again can never succeed. A 421 carrying [Retry-After]
    is still transient (see above). *)

val retry_after : response -> float option
(** The server-sent [Retry-After] header in seconds, when present and
    numeric: the floor under the backoff sleep that follows. *)

val read_only_primary : response -> string option
(** [Some "HOST:PORT"] when the response is a replica's [421]
    [read_only] rejection advertising its primary. *)

val backoff_schedule : ?seed:int -> retry_policy -> float list
(** The [max_attempts - 1] delays a handle seeded with [seed] sleeps
    between consecutive failed attempts when no [Retry-After] floors
    them and no redirect intervenes: the [i]th is
    [base_delay * multiplier^i], capped at [max_delay] and shrunk by
    up to [jitter]. Deterministic, for tests. *)

val with_retry :
  ?policy:retry_policy ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  ?follow_primary:bool ->
  ?connect_to:(string * int -> t) ->
  connect:(unit -> t) ->
  (t -> (response, string) result) ->
  (response, string) result
(** [with_retry ~connect f] runs [f] on a fresh connection per try,
    closed after it. Every try goes to [connect], or to the followed
    primary ([follow_primary], default [false]). *)

(** {2 Persistent connections} *)

type persistent
(** A handle holding one keep-alive connection across calls, so the
    warm path is a single request on an already-open socket. Not
    thread-safe: one handle per thread. *)

val persistent :
  ?policy:retry_policy ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  ?follow_primary:bool ->
  ?connect_to:(string * int -> t) ->
  (unit -> t) ->
  persistent
(** [persistent connect] — no connection is opened until the first
    {!call}. Retries go to the same endpoint, on the held connection
    while it lives. A followed redirect ([follow_primary], default
    [false]) is sticky for the handle's lifetime. *)

val call : persistent -> (t -> (response, string) result) -> (response, string) result
(** Run [f] on the held connection, opening it with [connect] when
    there is none, under the retry rules above. The connection stays
    open for the next [call] unless the loop dropped it. *)

val persistent_close : persistent -> unit
(** Close the held connection, if any. The handle stays usable — the
    next {!call} reconnects. *)

(** {2 Replication status} *)

type replication = {
  role : string;  (** ["primary"] or ["replica"] *)
  primary : string option;  (** upstream address, when a replica *)
  applied_seq : int64;
  covered_seq : int64;
  lag : int64;
}

val replication : response -> (replication, string) result
(** Decode an answer to [GET /replication]; [Error] unless it is a 200
    naming a role. Sequence fields are [0L] when the server omits them
    (a primary without a journal). *)

(** {2 Replica sets}

    Client-side failover over a fleet of daemons — a primary plus its
    (possibly chained) replicas. Reads spread round-robin across the
    healthy endpoints and fail over to a sibling when a hop dies;
    mutations chase the primary, wherever promotion has moved it. One
    connection per try: the abstraction is about placement, not
    connection reuse. Not thread-safe: one handle per thread. *)

type replica_set

val replica_set :
  ?policy:retry_policy ->
  ?seed:int ->
  ?sleep:(float -> unit) ->
  ?connect_to:(string * int -> t) ->
  ?max_lag:int64 ->
  (string * int) list ->
  replica_set
(** [replica_set endpoints] — no connection is opened until the first
    operation (which runs {!probe} if none has). [connect_to] opens
    every connection, probes included. [max_lag] (default 1024): a
    replica reporting more shipped records outstanding than this is
    skipped by reads until a probe sees it caught up.
    @raise Invalid_argument on an empty list. *)

val probe : replica_set -> unit
(** One [GET /replication] per endpoint: refresh reachability, role,
    and lag, and learn where the primary is (an endpoint answering as
    primary wins; failing that, a replica's advertised upstream).
    Runs automatically before the first operation and after a fully
    failed read pass; call it explicitly after reshaping the fleet. *)

val healthy_endpoints : replica_set -> (string * int) list
(** The endpoints the last probe (or operation) left marked healthy:
    reachable, and — for replicas — within [max_lag]. *)

val read :
  replica_set -> (t -> (response, string) result) -> (response, string) result
(** Run one read. A pass tries the healthy endpoints round-robin,
    then the unhealthy ones; after a transient try the next sibling is
    tried at once, with no backoff and no attempt spent (they are
    different hosts). A spent pass backs off, re-probes and starts
    again, so [policy.max_attempts] counts passes. A refused or torn
    try marks its endpoint unhealthy; a final answer marks it healthy
    and advances the rotation past it. Never follows a redirect. *)

val mutate :
  replica_set -> (t -> (response, string) result) -> (response, string) result
(** Run one mutation against the primary, with follow-primary always
    on: the first try goes to the best-known primary (from probes,
    redirects, or a previous success), each retry to the next fleet
    member in rotation. The address that finally accepts (any status
    below 400) is remembered for the next call. *)

(** The long-running evaluation server: a TCP (and optionally Unix
    domain) listener in front of {!Api.handle}.

    Concurrency model: one accept thread per listener serves each
    admitted connection on a thread of its own, with blocking socket
    IO; a thread whose connection closed parks and serves the next
    one, so threads start only as open connections grow. A connection
    holds one of [workers] permits only while a request is in progress
    on it (a half-sent request and a pipelined burst included), so an
    idle keep-alive connection holds none, and at most [workers] of
    {!Core.Sosae.Session.evaluate}'s domain pools run at once. Past
    [workers + queue_capacity] open connections, the accept thread
    writes a best-effort 429 and closes the connection (bounded
    memory, fast failure).

    Connection lifecycle: connections are keep-alive by default
    (HTTP/1.1 semantics, pipelining included — see {!Http.parser_}) and
    close when the client says [Connection: close], after
    [max_requests] responses (the response that hits the cap carries
    [Connection: close]), on a framing error, or on timeout. Two
    timeouts guard the reads: [read_timeout] while a request is partly
    buffered (a timeout there answers 408 and closes) and
    [idle_timeout] between requests on a quiescent keep-alive
    connection (reaped silently). Request head and body sizes are
    bounded ({!Http.parser_} limits). [SIGPIPE] is ignored for the
    process (writes to dead peers fail with [EPIPE] instead). Each
    connection copies every response, head and body, into one reused
    byte buffer and writes it from there in one write.

    {!stop} drains gracefully: the listeners close (no new
    connections), and every admitted connection is still served until
    it closes. {!run} wires this to [SIGTERM]/[SIGINT] for the CLI. *)

type config = {
  port : int;  (** 0 picks an ephemeral port — see {!port} *)
  host : string;  (** bind address, default ["127.0.0.1"] *)
  unix_path : string option;  (** additional Unix-domain listener *)
  jobs : int option;
      (** domain-pool width for an evaluate whose stale walks reach
          {!Core.Sosae.fan_out_work}; [None] = {!Core.Sosae.default_jobs} *)
  workers : int;  (** requests in progress at once (at least 1) *)
  queue_capacity : int;  (** open connections admitted beyond [workers] *)
  read_timeout : float;  (** seconds, while a request is in flight *)
  write_timeout : float;  (** seconds *)
  idle_timeout : float;
      (** seconds a quiescent keep-alive connection may sit between
          requests before being reaped; default 30 *)
  max_requests : int;
      (** requests served per connection before it is closed
          ([Connection: close] on the last response); [0] = unlimited;
          default 1000 *)
  max_head : int;  (** request-head byte limit *)
  max_body : int;  (** request-body byte limit *)
  data_dir : string option;
      (** durability directory for the write-ahead journal and
          snapshots; [None] (the default) keeps the registry purely
          in-memory, exactly as before *)
  fsync : Store.Journal.fsync_policy;
      (** when journal appends reach the disk (only meaningful with
          [data_dir]); default {!Store.Journal.Always}. Under
          [Interval], the maintenance thread fsyncs a journal left
          unsynced by a quiet spell once the interval is up. *)
  group_window : float;
      (** group-commit accumulation window in seconds (the CLI flag is
          in milliseconds): how long a batch leader waits for more
          writers before the shared fsync. [0.0] (the default) still
          batches — writers arriving during an in-flight fsync share
          the next one — it just never delays an uncontended writer.
          Only meaningful with [data_dir] and [fsync = Always]. *)
  compact_threshold : int;
      (** journal bytes past which the maintenance thread snapshots
          and rotates it (off the request path); default 8 MiB *)
  replica_of : (string * int) option;
      (** boot as a read replica of the upstream at [(host, port)]: a
          background loop tails the upstream's journal over
          [GET /replication/log] (bootstrapping a fresh copy from
          [GET /replication/snapshot] when one exists) and applies it
          locally, reads are served from the applied copy, and
          mutations answer [421] [read_only] naming the upstream.
          Composes with [data_dir]: a durable replica journals every
          shipped batch byte-for-byte, recovers and resumes from its
          local frontier after a restart, serves the ship endpoints to
          chained replicas of its own, and is immediately durable and
          shippable-from when promoted. The upstream may itself be a
          replica — chains form fan-out trees, and a link never
          applies a record its upstream hadn't already made durable. *)
  replica_poll : float;
      (** seconds the apply loop sleeps between polls once caught up;
          default 0.02 *)
}

val default_config : config
(** Port 8080 on 127.0.0.1, no Unix listener, 4 workers and 64 more
    connections, 10 s timeouts, {!Http.parser_}'s default size limits. *)

type t

val start : ?config:config -> unit -> t
(** Bind, spawn the accept threads, return immediately. The registry starts
    empty — unless [config.data_dir] is set, in which case the journal
    and snapshot found there are replayed into the registry first
    (tolerating a torn tail from a crash) and every subsequent
    mutation is journaled before it is acknowledged. Recovery
    statistics appear under ["journal"."recovery"] in [GET /metrics].
    @raise Unix.Unix_error when the data directory cannot be opened
    (its argument names the path) or binding fails (its argument names
    the address: [HOST:PORT] or the socket path). *)

val port : t -> int
(** The actual bound TCP port — equals [config.port] unless that was 0,
    in which case this is the kernel-assigned ephemeral port (how the
    tests and bench run servers without port coordination). *)

val ctx : t -> Api.ctx
(** The live registry + metrics, for in-process inspection. *)

val promote : t -> unit
(** Replica → primary: seal the apply loop (no further shipped record
    is applied), then flip the role so mutations are accepted. The
    sealed state is exactly the applied prefix of the old primary's
    journal. No-op on a primary or an already-promoted replica.
    {!run} wires this to [SIGUSR1]. *)

val stop : t -> unit
(** Graceful drain; idempotent. Returns once every admitted
    connection has closed, an idle keep-alive one after up to
    [idle_timeout]. With persistence, the drained state is then
    checkpointed into a snapshot and the journal closed, so the next
    boot recovers from the snapshot instead of replaying a long
    journal. *)

val run : ?config:config -> unit -> unit
(** [start], print the bound address on stdout, then block until
    [SIGTERM] or [SIGINT], then [stop]. When booted with
    [replica_of], [SIGUSR1] triggers {!promote}. The CLI entry
    point. Raises only what {!start} raises. *)

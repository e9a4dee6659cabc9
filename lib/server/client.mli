(** A minimal blocking HTTP/1.1 client, just enough to talk to
    {!Daemon}: keep-alive connections, responses framed by
    {!Http.next_response} (the daemon's own framer, strict on malformed
    heads, with no body limit since a replica's reset batch carries the
    whole state), and a held connection that makes one try per call.
    {!Replica} fetches shipped batches with it, and the tests and the
    bench harness ([bench/main.ml]) drive daemons with it — not a
    general-purpose client. It never retries, sleeps or follows a
    redirect: a caller that wants another try (the replica's poll loop)
    simply calls again. *)

type t

val connect : ?host:string -> port:int -> unit -> t
(** TCP to [host] (default 127.0.0.1). The host is resolved with
    [getaddrinfo], so names like ["localhost"] work as well as numeric
    addresses.
    @raise Unix.Unix_error when the connect fails.
    @raise Failure naming the host when it does not resolve. *)

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
    unusable: ["connection closed mid-response"], a socket error, or
    the {!Http.parse_error_message} of a response that does not frame —
    reconnect to retry. Never raises. *)

val get : t -> string -> (response, string) result

val post : t -> string -> body:string -> (response, string) result

val close : t -> unit

(** {2 Held connections} *)

type persistent
(** A handle holding one keep-alive connection across calls, so the
    warm path is a single request on an already-open socket. Not
    thread-safe: one handle per thread. *)

val persistent : (unit -> t) -> persistent
(** [persistent connect] — no connection is opened until the first
    {!call}. *)

val call : persistent -> (t -> (response, string) result) -> (response, string) result
(** Run [f] once on the held connection, opening it with [connect]
    when there is none; a [connect] that raises [Unix_error] or
    [Failure] (an unresolvable host) is an [Error]. Every response is
    returned as-is, whatever its status. The connection is dropped,
    and the next call redials, after an [Error], after a response
    carrying [Connection: close] (the daemon's per-connection request
    cap, or a drain), and when [f] raises; the exception escapes. *)

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

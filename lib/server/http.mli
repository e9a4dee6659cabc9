(** Hand-rolled HTTP/1.1 on byte strings: one incremental framer for
    both ends of the wire, and a response serializer. No sockets here —
    the daemon and {!Client} hand {!read} a function that reads from
    theirs — which is what makes the framer property-testable: any
    split of a valid message into reads must parse identically, and no
    byte sequence may raise. Framing is linear in the message: a head
    waits in a growable buffer with a read offset, the head-end search
    resumes where it stopped, and a framed head is not re-parsed per
    read. A body not yet all buffered when its head is framed goes into
    a buffer of its own, which later reads fill directly and which is
    handed out as the body without a copy.

    Supported: start line + headers + [Content-Length] bodies,
    percent-encoded targets with query strings, keep-alive pipelining
    (unconsumed bytes stay buffered for the next message). Not
    supported, by design: [Transfer-Encoding] (rejected as 501-shaped
    [`Unsupported]), multiline header folding (rejected), HTTP/2. *)

type meth = GET | HEAD | POST | PUT | DELETE | OPTIONS | Other of string

val meth_to_string : meth -> string

type request = {
  meth : meth;
  target : string;  (** the raw request target, e.g. ["/sessions/a?x=1"] *)
  path : string list;  (** decoded segments, e.g. [["sessions"; "a"]] *)
  query : (string * string) list;  (** decoded key/value pairs *)
  version : [ `Http_1_0 | `Http_1_1 ];
  headers : (string * string) list;  (** names lowercased, values trimmed *)
  body : string;
}

val header : request -> string -> string option
(** Case-insensitive lookup (first match). *)

val keep_alive : request -> bool
(** HTTP/1.1 without [Connection: close], or HTTP/1.0 with
    [Connection: keep-alive]. *)

val if_none_match_matches : request -> etag:string -> bool
(** Does the request's [If-None-Match] header match the resource's
    current (quoted, strong) entity tag? ["*"] matches anything;
    otherwise the header is a comma-separated tag list compared
    byte-for-byte. [false] without the header. *)

type parse_error =
  | Bad_request of string  (** malformed start line, header, or framing *)
  | Head_too_large  (** start line + headers exceed the head limit *)
  | Body_too_large  (** declared [Content-Length] exceeds the body limit *)
  | Unsupported of string  (** e.g. [Transfer-Encoding: chunked] *)

val parse_error_message : parse_error -> string

type parser_

val parser_ : ?max_head:int -> ?max_body:int -> unit -> parser_
(** Limits default to 16 KiB of head and 4 MiB of body. *)

val read : parser_ -> (Bytes.t -> int -> int -> int) -> int
(** [read p reader] calls [reader b off len] once to put up to [len]
    received bytes into [b] at [off], and returns what [reader]
    returns: the count it put there, [0] at end of input. Exceptions
    from [reader] pass through. While a framed head waits for its
    body, [b] is the body's own buffer and [len] never reaches past the
    body, so a message's body bytes go from the reader to the message
    with no copy. That buffer is first sized for the declared length,
    but for at most 4 MiB; past that it grows with the bytes that
    arrive. Otherwise [b] is the head buffer, which [read] makes at
    least a quarter free first. *)

val feed : parser_ -> string -> unit
(** Append bytes already received: {!read} with a reader that copies
    from the string, until all of it is taken. *)

val next : parser_ -> [ `Request of request | `Need_more | `Error of parse_error ]
(** Try to extract the next complete request from the buffered bytes.
    [`Request] consumes the request's bytes (later bytes remain
    buffered); [`Error] is sticky — the connection cannot be re-synced
    and must be closed after the error response. Never raises. *)

val buffered : parser_ -> int
(** Bytes currently buffered, a framed body's included (0 on a
    quiescent keep-alive connection — used to tell an idle timeout
    from a mid-request one). *)

(** {1 Responses} *)

type response = {
  status : int;
  reason : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

val response : ?headers:(string * string) list -> int -> string -> response
(** [response status body]; the reason phrase comes from the status
    code. *)

val next_response :
  ?head_only:bool ->
  parser_ ->
  [ `Response of response | `Need_more | `Error of parse_error ]
(** {!next} for the other end of the wire: the same head rules, limits
    and sticky errors after a status line. Header names are lowercased.
    With [head_only] (the answer to a [HEAD]) the declared body is
    absent, as it is after 1xx, 204 and 304. *)

val serialize : ?request_meth:meth -> close:bool -> response -> string
(** Status line, headers ([Content-Length] computed and always
    explicit, [0] included, [Connection: close] added when [close]),
    blank line, body — the exact bytes to write. A [HEAD]
    [request_meth] suppresses the body but keeps its [Content-Length];
    204/304/1xx statuses suppress the body {e and} declare
    [Content-Length: 0], whatever body the response value carries. *)

val serialize_with :
  (string -> unit) -> ?request_meth:meth -> close:bool -> response -> unit
(** [serialize_with add] hands {!serialize}'s bytes to [add] in wire
    order, piece by piece, the body as one piece: the daemon copies
    them into its connection's output buffer. The status code's and
    [Content-Length]'s digits are the only strings it makes. *)

val serialize_to :
  Buffer.t -> ?request_meth:meth -> close:bool -> response -> unit
(** {!serialize_with} into a caller-owned buffer. *)

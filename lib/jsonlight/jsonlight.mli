(** Minimal JSON library: a document builder and a parser, with no
    dependencies — the repo's JSON substrate.

    Grew out of [Walkthrough.Json] (since removed): machine-readable
    reports only needed a printer, but the evaluation server
    ({!Server.Daemon}) must {e read} request bodies too, so the module
    now stands alone under the walkthrough layer.

    Strings are escaped per RFC 8259; non-finite floats serialize as
    [null]. {!of_string} parses any RFC 8259 document (plus surrounding
    whitespace); it never raises. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, single-line. *)

val to_buffer : Buffer.t -> t -> unit

val strings : string list -> t
(** [List] of [String]s. *)

val add_int : Buffer.t -> int -> unit
(** Append the bytes of [string_of_int i], digit by digit rather than
    through C's printf. *)

val add_escaped : Buffer.t -> string -> unit
(** Append what [to_string (String s)] puts between its quotes: a
    writer that keeps the quotes in its own literals (["\"key\":\""])
    escapes only the value. *)

(** {1 Reused-buffer writer}

    The journal's record encoder ({!Server.Persist}): one {!Writer.t}
    per journal renders every record into the same backing store, so
    the steady state allocates no fresh buffers, and {!Writer.raw}
    splices already-serialized fragments — a create record's artifact
    documents — without re-rendering them. *)

module Writer : sig
  type json = t
  (** The document type of the enclosing module, under a name the
      writer's own [t] does not shadow. *)

  type t

  val create : ?size:int -> unit -> t
  (** A writer whose backing store starts at [size] bytes (default
      4096) and is retained across {!clear}. *)

  val clear : t -> unit
  (** Empty the writer, keeping the backing store. *)

  val length : t -> int

  val contents : t -> string
  (** The bytes written since the last {!clear}. *)

  val raw : t -> string -> unit
  (** Splice a pre-serialized fragment in verbatim. The caller
      guarantees it is valid JSON in context. *)

  val char : t -> char -> unit

  val int : t -> int -> unit
  (** The decimal digits, unquoted — a JSON number. *)

  val string : t -> string -> unit
  (** An RFC 8259-escaped, quoted JSON string. *)

  val json : t -> json -> unit
  (** Render a document (same bytes as {!to_string}). *)

  val field : t -> first:bool -> string -> unit
  (** Object-field plumbing: [,] unless [first], then the quoted
      [name] and [:]. *)
end

val of_string : string -> (t, string) result
(** Parse one JSON document. Numbers without [.]/[e] parse as [Int]
    (falling back to [Float] when out of [int] range), others as
    [Float]. Arrays and objects nest at most 512 deep (RFC 8259 §9
    allows the bound): a deeper document is
    [Error "nesting deeper than 512 at offset N"], [N] being the offset
    of the bracket past the bound.

    Strings decode to UTF-8. Bytes other than ['"'] and ['\\'] are
    taken as they are, control characters included. A [\u] escape
    takes exactly four hex digits, of either case, and decodes to the
    UTF-8 bytes of its code point; a code point above U+FFFF is written
    as a surrogate pair, a high escape ([\uD800]-[\uDBFF]) followed at
    once by a low one ([\uDC00]-[\uDFFF]), which decodes to one 4-byte
    sequence. A surrogate escape without its other half is
    [Error "lone surrogate in \\u escape at offset N"], [N] being the
    offset of its first hex digit, as in the other [\u] errors. *)

val member : string -> t -> t option
(** First field of that name when the value is an [Obj]; [None]
    otherwise. *)

(** {1 Shape accessors}

    [None] when the value is not of the requested shape — the
    building blocks of request-body validation. *)

val string_opt : t -> string option

val int_opt : t -> int option
(** [Int] directly; an integral [Float] is not accepted. *)

val list_opt : t -> t list option

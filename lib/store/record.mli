(** Length-prefixed, CRC-checksummed journal records.

    Wire layout of one record (all integers big-endian):

    {v
    +------------+-----------+----------+------------------+
    | length u32 | crc32 u32 | seq u64  | payload bytes    |
    +------------+-----------+----------+------------------+
    v}

    [length] counts the seq field plus the payload ([8 + |payload|]);
    [crc32] covers the same bytes ({!Crc32}). The sequence number is
    assigned by {!Journal} and lets {!Wal} recovery skip journal
    entries already folded into a snapshot.

    Decoding never raises on bad input: a truncated or corrupt record
    terminates the scan with a {!tail} describing why, and everything
    before it is returned — the torn-tail tolerance the recovery
    invariant is built on. *)

val header_size : int
(** Bytes before the payload: 16. *)

val encode : Buffer.t -> seq:int64 -> string -> unit
(** Append one framed record to the buffer. *)

type tail =
  | Clean  (** the scan consumed every byte *)
  | Torn of int  (** a record was cut short; valid bytes end here *)
  | Corrupt of int  (** checksum or length-field mismatch at this offset *)

type span = { seq : int64; pos : int; len : int }
(** One record of a string of frames: its sequence number, and its
    payload as the bytes [s.[pos, pos + len)]. *)

val walk : string -> span list * int * tail
(** [walk s] scans records from offset 0 and returns
    [(records, end_of_valid_prefix, tail)]: every complete, checksummed
    record in order as a span over [s], the offset just past the last
    valid one, and how the scan ended. Every CRC is checked; no payload
    is copied. How a replica checks a shipped batch before it applies
    or journals any of it. *)

val decode_all : string -> (int64 * string) list * int * tail
(** {!walk} with each payload copied out. *)

val frames : string -> (int64 * int) list
(** The frame walk of {!walk} from the headers alone:
    [(seq, frame size)] for each whole frame from offset 0, stopping at
    a torn or impossible length. No checksum is checked, so a frame
    whose CRC fails is listed where {!walk} would stop; whoever
    decodes the bytes must still check them. How the primary finds the
    record boundaries of the journal region it ships. *)

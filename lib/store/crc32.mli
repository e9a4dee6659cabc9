(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), for record
    checksumming in {!Journal} files. The table loop is a slicing-by-16
    kernel written in C ([crc32_stubs.c]), sixteen input bytes per
    round through sixteen 256-entry tables built once when this module
    initialises; it links no library.

    Checksums are exposed as [int] (always non-negative, fits in 32
    bits) so they can be compared and serialized without [Int32]
    boxing. *)

val string : ?crc:int -> string -> int
(** [string s] is the CRC-32 of [s]. [?crc] continues a running
    checksum (feed chunks in order starting from the default); it must
    be a value this module returned, so below 2{^32}. *)

val sub : ?crc:int -> string -> int -> int -> int
(** [sub s pos len] checksums the given substring without copying.
    [?crc] is as for {!string}.
    @raise Invalid_argument when the range is out of bounds. *)

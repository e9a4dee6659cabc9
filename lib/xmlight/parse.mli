(** XML parser.

    Recursive-descent parser for the XML subset used by ScenarioML and
    xADL documents: elements, attributes, character data, CDATA sections,
    comments, processing instructions, numeric and predefined entity
    references, and an (ignored) DOCTYPE declaration. Namespaces are kept
    as prefixed names; no DTD validation is performed.

    References are the five predefined entities ([&lt;] [&gt;] [&amp;]
    [&apos;] [&quot;]) and the character references of XML 1.0 §4.1:
    [&#] decimal digits [;] or [&#x] hex digits [;], decoded to UTF-8.
    One that names a surrogate or a value past U+10FFFF is "out of
    range"; any other [&#...;], such as [&#X41;], [&#+5;] or [&#1_0;], is
    a "bad character reference". *)

type position = { line : int; column : int }
(** Lines count from 1. Columns count bytes from 1, not characters: a
    multi-byte UTF-8 character advances the column by its length. *)

type error = { position : position; message : string }

exception Parse_error of error

val error_to_string : error -> string

val parse : string -> (Doc.t, error) result
(** Parse a complete document from a string. *)

val parse_exn : string -> Doc.t
(** @raise Parse_error on malformed input. *)

val parse_file : string -> (Doc.t, error) result
(** Read and parse a file. I/O errors are reported as parse errors at
    position 0:0. *)

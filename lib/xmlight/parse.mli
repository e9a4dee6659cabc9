(** XML parser.

    One lexer for the XML subset used by ScenarioML and xADL documents:
    elements, attributes, character data, CDATA sections, comments,
    processing instructions, numeric and predefined entity references,
    and an (ignored) DOCTYPE declaration. Namespaces are kept as
    prefixed names; no DTD validation is performed.

    The lexer records a document as a flat array of spans, byte ranges
    of the input: tags, attribute names and values, text, CDATA,
    comments and processing instructions, each element followed by its
    attributes and content. Nothing is copied while lexing. The model
    readers ({!read}) query the spans in place; {!parse} builds a
    {!Doc.t} from them for the tests.

    References are the five predefined entities ([&lt;] [&gt;] [&amp;]
    [&apos;] [&quot;]) and the character references of XML 1.0 §4.1:
    [&#] decimal digits [;] or [&#x] hex digits [;], decoded to UTF-8.
    One that names a surrogate or a value past U+10FFFF is "out of
    range"; any other [&#...;], such as [&#X41;], [&#+5;] or [&#1_0;], is
    a "bad character reference".

    Elements nest at most 512 deep, the bound JSON bodies have: the
    start tag of one nested deeper is an error at its ['<']. *)

type position = { line : int; column : int }
(** Lines count from 1. Columns count bytes from 1, not characters: a
    multi-byte UTF-8 character advances the column by its length. *)

type error = { position : position; message : string }

val error_to_string : error -> string

val parse : string -> (Doc.t, error) result
(** Parse a complete document from a string into a tree. The readers do
    not build one; tests compare this tree, or its error, with the
    frozen reference parser's, which pins the lexer every {!read}
    runs. *)

(** {1 Reading in place}

    A reader receives the lexed document and its root element, and
    asks for what it keeps: tag names are compared against the input,
    and a value or text is copied (entities decoded) only when asked
    for. Elements are visited in document order. *)

type doc
(** A lexed document. Valid only inside the {!read} that made it: its
    span array is kept for the next document read. *)

type element

val read : string -> (doc -> element -> 'a) -> ('a, error) result
(** [read input f] lexes [input] and applies [f] to its root element.
    The error is the one {!parse} reports; exceptions raised by [f]
    pass through. *)

val tag_is : doc -> element -> string -> bool

val tag : doc -> element -> string
(** A copy of the tag name, for messages. *)

val attr : doc -> element -> string -> string option
(** The value of the element's first attribute with that name. *)

val attr_default : doc -> element -> string -> string -> string
(** [attr_default d e name default] is the attribute value or [default]. *)

val attr_is : doc -> element -> string -> string -> bool
(** [attr_is d e name v]: the attribute is present and its value is [v]. *)

val child_text : doc -> element -> string
(** The element's immediate text and CDATA children, concatenated and
    trimmed with [String.trim]. *)

val find_child : doc -> element -> string -> element option
(** The first element child with the given tag. *)

val map_children : doc -> element -> string list -> (element -> 'a) -> 'a list
(** [map_children d e tags f] applies [f], in document order, to every
    element child of [e] whose tag is one of [tags]. *)

(** XML serialization. *)

val escape_text : string -> string
(** Escape [&], [<], [>] for character data. *)

val escape_attr : string -> string
(** Escape ampersand, angle brackets, and both quote characters for
    attribute values. *)

val to_string : ?indent:int -> Doc.t -> string
(** Serialize a document. [indent] (default 2) controls pretty-printing;
    elements whose children are only text are kept on one line so that
    print∘parse preserves text content exactly. *)

val element_to_string : ?indent:int -> Doc.element -> string
(** Serialize a single element without the XML declaration. *)

(** XML document model.

    A deliberately small DOM: elements with attributes and ordered
    children, text nodes, comments, and processing instructions. The
    ScenarioML and xADL writers build it for {!Print}; the readers do
    not use it (they read {!Parse}'s spans in place). *)

type attribute = { attr_name : string; attr_value : string }

type node =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of string * string  (** target, content *)

and element = {
  tag : string;
  attrs : attribute list;
  children : node list;
}

type t = {
  decl : attribute list;  (** attributes of the [<?xml ...?>] declaration *)
  root : element;
}

val element : ?attrs:(string * string) list -> string -> node list -> element
(** [element ~attrs tag children] builds an element. *)

val elt : ?attrs:(string * string) list -> string -> node list -> node
(** Like {!element} but wrapped as a node. *)

val text : string -> node

val doc : element -> t
(** Document with the default [version="1.0" encoding="UTF-8"] declaration. *)

val equal_element : element -> element -> bool
(** Structural equality ignoring comments, processing instructions, and
    whitespace-only text nodes. Attribute order is significant. The
    print/parse round-trip tests compare with it: every [*_to_string]
    writer relies on the parser reading back what {!Print} writes. *)

(** XML document model.

    A deliberately small DOM: elements with attributes and ordered
    children, text nodes, comments, and processing instructions. This is
    the substrate on which the ScenarioML and xADL readers/writers are
    built. *)

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

val attr : element -> string -> string option
(** [attr e name] is the value of attribute [name] on [e], if present. *)

val attr_default : element -> string -> string -> string
(** [attr_default e name d] is the attribute value or [d]. *)

val children_elements : element -> element list
(** Element children only, in document order. *)

val child_text : element -> string
(** Concatenation of all immediate text children, whitespace-trimmed. *)

val find_child : element -> string -> element option
(** First element child with the given tag. *)

val find_children : element -> string -> element list
(** All element children with the given tag, in order. *)

val descendants : element -> string -> element list
(** All descendant elements (preorder) with the given tag, excluding the
    element itself. *)

val equal_element : element -> element -> bool
(** Structural equality ignoring comments, processing instructions, and
    whitespace-only text nodes. Attribute order is significant. *)

val node_count : element -> int
(** Number of element nodes in the subtree rooted at the argument. *)

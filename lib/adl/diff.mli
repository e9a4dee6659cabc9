(** Architecture evolution operations and structural diffing.

    The paper's traceability argument (§5) is that requirements and
    architecture co-evolve, so both the mapping and the evaluation must
    survive edits. This module represents edits explicitly: the Fig. 4
    experiment ("we artificially introduced an error in the PIMS
    architecture by excising the link between the Data Access and Loader
    components") is [Remove_link] applied to the intact architecture. *)

type op =
  | Add_component of Structure.component
  | Remove_component of string
      (** also removes links anchored at the component *)
  | Add_connector of Structure.connector
  | Remove_connector of string  (** also removes links anchored at it *)
  | Add_link of Structure.link
  | Remove_link of string  (** by link id *)
  | Rename_element of { old_id : string; new_id : string }
      (** consistently renames anchors in links too *)

exception Apply_error of string

val apply : Structure.t -> op -> Structure.t
(** @raise Apply_error when the op does not apply (unknown ids, clashes). *)

val apply_all : Structure.t -> op list -> Structure.t

val excise_ops : Structure.t -> string -> string -> op list
(** One [Remove_link] for every link whose two anchors are the given
    elements (in either orientation), in link order.
    @raise Apply_error when no such link exists. *)

val excise_link_between : Structure.t -> string -> string -> Structure.t
(** [apply_all t (excise_ops t a b)].
    @raise Apply_error when no such link exists. *)

val diff : Structure.t -> Structure.t -> op list
(** An edit script from the first architecture to the second: removals
    (links, then components/connectors), replacements of elements whose
    definition changed (remove + add, re-adding surviving links), then
    additions. Renames are not inferred. [apply_all a (diff a b)] has
    the same elements and links as [b]. *)

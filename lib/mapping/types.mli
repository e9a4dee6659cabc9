(** The event-type-to-component mapping.

    "The mapping is performed between event types in the ontology and
    components in the architecture's structural description. It is based
    on the meaning of the events of the scenarios and the
    responsibilities of the components. ... The mapping is many-to-many"
    (paper §3.4). *)

type entry = {
  event_type : string;  (** ontology event-type id *)
  components : string list;  (** architecture component ids, in order *)
  rationale : string;  (** why these components realize the event type *)
}

type t = {
  mapping_id : string;
  ontology_id : string;  (** id of the ontology mapped from *)
  architecture_id : string;  (** id of the architecture mapped to *)
  entries : entry list;
}

val empty : id:string -> ontology_id:string -> architecture_id:string -> t

val find : t -> string -> entry option
(** Entry for an event type. *)

val components_of : t -> string -> string list
(** Components an event type maps to; [] when unmapped. *)

val mapped_event_types : t -> string list

val mapped_components : t -> string list
(** Every component referenced by some entry, without duplicates, in
    first-reference order. *)

val link_count : t -> int
(** Total number of event-type-to-component links (the with-ontology
    mapping size). *)

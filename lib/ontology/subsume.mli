(** Subsumption (subclass/supertype) queries over domain classes and
    event types.

    All functions assume a well-formed ontology (see {!Wellformed}): in
    particular, acyclic supertype chains. On a malformed ontology the
    chain-walking functions stop after [size] steps rather than loop. *)

val class_ancestors : Types.t -> string -> string list
(** Proper ancestors of a class, nearest first. Unknown ids yield []. *)

val event_ancestors : Types.t -> string -> string list
(** Proper ancestors of an event type, nearest first. *)

val class_subsumes : Types.t -> super:string -> sub:string -> bool
(** Reflexive-transitive: a class subsumes itself. *)

val event_subsumes : Types.t -> super:string -> sub:string -> bool

val class_descendants : Types.t -> string -> string list
(** All classes subsumed by the given class, excluding itself, in
    definition order. *)

val event_roots : Types.t -> Types.event_type list
(** Event types with no supertype, in definition order. *)

val inherited_params : Types.t -> Types.event_type -> Types.param list
(** Parameters of an event type including those inherited from its
    ancestors (ancestor parameters first, shadowed by name). *)

val individuals_of_class : Types.t -> string -> Types.individual list
(** Individuals whose class is subsumed by the given class. *)

val common_event_ancestor : Types.t -> string -> string -> string option
(** Nearest event type subsuming both arguments, if any. *)

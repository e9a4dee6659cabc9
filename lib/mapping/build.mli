(** Construction of mappings. *)

exception Duplicate of string

val create : id:string -> ontology:Ontology.Types.t -> architecture:Adl.Structure.t -> Types.t
(** Empty mapping carrying the ids of the given ontology and
    architecture. *)

val map :
  ?rationale:string -> event_type:string -> to_:string list -> Types.t -> Types.t
(** Add an entry.
    @raise Duplicate if the event type is already mapped (use
    {!extend} to add components to an existing entry). *)

val extend : event_type:string -> to_:string list -> Types.t -> Types.t
(** Add components to an existing entry (creating it when absent);
    duplicates are ignored. *)

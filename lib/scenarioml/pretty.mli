(** Human-readable rendering of scenarios (used by the figure
    reproductions and the CLI). *)

val pp_event : Ontology.Types.t -> Format.formatter -> Event.t -> unit
(** Numbered, indented rendering of an event tree. *)

val pp_scenario : Ontology.Types.t -> Format.formatter -> Scen.t -> unit

val scenario_to_string : Ontology.Types.t -> Scen.t -> string

val set_to_string : Scen.set -> string

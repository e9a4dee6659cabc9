(** Validation of scenarios and scenario sets against their ontology. *)

type problem =
  | Duplicate_scenario_id of string
  | Duplicate_event_id of { scenario : string; event : string }
  | Unknown_event_type of { scenario : string; event : string; event_type : string }
  | Unknown_param of { scenario : string; event : string; param : string }
  | Missing_arg of { scenario : string; event : string; param : string }
  | Unknown_individual of { scenario : string; event : string; individual : string }
  | Arg_class_mismatch of {
      scenario : string;
      event : string;
      param : string;
      expected : string;  (** class required by the parameter *)
      actual : string;  (** class of the supplied individual *)
    }
  | Unknown_actor of { scenario : string; actor : string }
  | Unknown_episode of { scenario : string; event : string; episode : string }
  | Episode_cycle of string list  (** scenario ids on the cycle *)
  | Bad_iteration_count of { scenario : string; event : string; count : int }
  | Empty_alternation of { scenario : string; event : string }

val pp_problem : Format.formatter -> problem -> unit

val problem_to_string : problem -> string

val check : Scen.set -> problem list
(** All problems across the set, including episode cycles, in a
    deterministic order. *)

val is_valid : Scen.set -> bool

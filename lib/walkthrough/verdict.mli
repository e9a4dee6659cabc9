(** Result types of the walkthrough evaluation (paper §3.5).

    An architecture can be inconsistent with the requirements as:
    - a missing link between two components required by successive
      scenario events;
    - a violated communication constraint (style rule);
    - an event the mapping cannot place on any component;
    - a *negative* scenario that executes successfully. *)

type inconsistency =
  | Unmapped_event_type of { step : int; event_type : string }
      (** a typed event whose event type maps to no component *)
  | Unmapped_simple_event of { step : int; event : string }
      (** a simple (untyped) event, which cannot be placed *)
  | Missing_link of {
      step : int;  (** index of the second of the two events *)
      from_components : string list;
      to_components : string list;
    }
      (** no communication path between the components of successive
          events *)
  | Constraint_violation of Styles.Rule.violation
  | Negative_scenario_executes of { scenario : string; trace_index : int }

type hop = {
  hop_from : string;
  hop_to : string;
  via : string list;  (** full brick path, endpoints included *)
}

type step_result = {
  index : int;  (** 1-based, as in the paper's numbered events *)
  text : string;  (** rendered event text *)
  event_type : string option;  (** for typed events *)
  components : string list;  (** mapped components *)
  hop : hop option;  (** communication used from the previous step *)
  step_problems : inconsistency list;
}

type trace_result = {
  trace_index : int;
  steps : step_result list;
  walked : bool;  (** every step placed and connected *)
}

type verdict = Consistent | Inconsistent

type scenario_result = {
  scenario_id : string;
  scenario_name : string;
  negative : bool;
  traces : trace_result list;
  truncated : bool;  (** linearization hit its cap *)
  verdict : verdict;
  inconsistencies : inconsistency list;
      (** aggregated: for positive scenarios, the problems of failing
          traces; for negative ones, {!Negative_scenario_executes} *)
}

val pp_inconsistency : Format.formatter -> inconsistency -> unit

val is_consistent : scenario_result -> bool

type inconsistency =
  | Unmapped_event_type of { step : int; event_type : string }
  | Unmapped_simple_event of { step : int; event : string }
  | Missing_link of {
      step : int;
      from_components : string list;
      to_components : string list;
    }
  | Constraint_violation of Styles.Rule.violation
  | Negative_scenario_executes of { scenario : string; trace_index : int }

type hop = { hop_from : string; hop_to : string; via : string list }

type step_result = {
  index : int;
  text : string;
  event_type : string option;
  components : string list;
  hop : hop option;
  step_problems : inconsistency list;
}

type trace_result = { trace_index : int; steps : step_result list; walked : bool }

type verdict = Consistent | Inconsistent

type scenario_result = {
  scenario_id : string;
  scenario_name : string;
  negative : bool;
  traces : trace_result list;
  truncated : bool;
  verdict : verdict;
  inconsistencies : inconsistency list;
}

let pp_inconsistency ppf = function
  | Unmapped_event_type { step; event_type } ->
      Format.fprintf ppf "step %d: event type %S maps to no component" step event_type
  | Unmapped_simple_event { step; event } ->
      Format.fprintf ppf "step %d: simple event %S cannot be placed on the architecture" step
        event
  | Missing_link { step; from_components; to_components } ->
      Format.fprintf ppf "step %d: no communication path from {%s} to {%s}" step
        (String.concat ", " from_components)
        (String.concat ", " to_components)
  | Constraint_violation v -> Format.fprintf ppf "constraint: %a" Styles.Rule.pp_violation v
  | Negative_scenario_executes { scenario; trace_index } ->
      Format.fprintf ppf "negative scenario %S executes successfully (trace %d)" scenario
        trace_index

let is_consistent r = match r.verdict with Consistent -> true | Inconsistent -> false

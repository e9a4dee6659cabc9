(** Behavioral walkthrough: executing scenarios over component
    statecharts.

    The static engine ({!Engine}) checks that successive events land on
    components that *can* communicate. This module adds the behavioral
    half the paper sketches — "going through the sequence of the events
    in the scenarios ... while simulating the behavior of the matched
    components" (§3.5) and SOSAE's "mechanism for automatically
    executing the scenarios on the architecture" (§8).

    Semantics: each component may carry a statechart (matched by the
    chart's [component] field). Walking a trace delivers each typed
    event's trigger — by default the event-type id — to the chart of
    every component the event maps to, in chain order, advancing the
    charts as it goes. A chart that cannot fire on a delivered trigger
    *rejects* the event: a {!behavioral_mismatch}. Components without a
    chart accept vacuously. Chart outputs are recorded per step.

    This catches protocol-order defects the static walkthrough cannot:
    e.g. a scenario that saves downloaded prices before downloading them
    walks statically (all links exist) but is rejected by a Loader chart
    that only accepts [system-saves] after [system-downloads]. *)

type behavioral_mismatch = {
  step : int;  (** 1-based step index *)
  component : string;
  trigger : string;
  active_states : string list;  (** chart configuration at rejection *)
}

type step_exec = {
  exec_index : int;
  exec_trigger : string option;  (** [None] for narrative steps *)
  reactions : (string * string list) list;
      (** per fired component: its emitted outputs *)
  mismatches : behavioral_mismatch list;
}

type trace_exec = {
  exec_trace_index : int;
  steps : step_exec list;
  accepted : bool;  (** no mismatch anywhere *)
  final_configs : (string * Statechart.Exec.config) list;
}

type result = {
  scenario_id : string;
  traces : trace_exec list;
  ok : bool;
      (** positive scenario: all traces accepted; negative: none *)
}

type config = {
  trigger_of : Scenarioml.Event.t -> string option;
      (** trigger extracted from a primitive event; [None] skips the
          step behaviorally *)
  guards : string -> bool;
  linearize : Scenarioml.Linearize.config;
}

val default_config : config
(** Typed events trigger with their event-type id; simple events are
    skipped; all guards true. *)

val evaluate_scenario :
  ?config:config ->
  set:Scenarioml.Scen.set ->
  mapping:Mapping.Types.t ->
  charts:Statechart.Types.t list ->
  Scenarioml.Scen.t ->
  result

val pp_result : Format.formatter -> result -> unit

(** The walkthrough engine.

    "The task of evaluating an architecture against a set of scenarios
    consists of going through the sequence of the events in the
    scenarios, using the established mapping to match events to
    components, while simulating the behavior of the matched
    components. The resulting architecture behavior is then evaluated
    for inconsistencies with the scenario" (paper §3.5).

    For each linearized trace of a scenario, each event is matched to
    its mapped components; for each pair of successive events, some
    component of the first must be able to communicate with some
    component of the second through the structure (under the configured
    path policy). A positive scenario is consistent when *every* trace
    walks; a negative scenario is consistent when *no* trace walks.

    Communication queries go through an {!Adl.Reach} oracle. Callers
    evaluating repeatedly against the same architecture should build the
    oracle once and pass it as [?reach]; each call otherwise builds a
    fresh one. [Sosae.Session] layers caching and incremental
    re-evaluation on top of this. *)

type simple_event_policy =
  | Skip_simple  (** simple events are narrative: no placement required *)
  | Report_simple  (** simple events are reported as unplaceable *)

type config = {
  policy : Adl.Graph.policy;  (** communication path policy *)
  simple_events : simple_event_policy;
  linearize : Scenarioml.Linearize.config;
  check_style : bool;  (** include declared-style violations *)
  check_internal : bool;
      (** an event mapped to several components is realized by that
          chain in order; check each consecutive pair can communicate *)
  internal_policy : Adl.Graph.policy;
      (** policy for the realization chain; default [Direct]: the data
          handoff inside one event cannot be routed through unrelated
          components (Fig. 4: "other paths do not support transfer of
          this data") *)
  constraints : Styles.Constraint_lang.t list;
      (** requirements-imposed communication constraints, checked with
          the declared style and reported as style violations *)
}

val config :
  ?policy:Adl.Graph.policy ->
  ?simple_events:simple_event_policy ->
  ?linearize:Scenarioml.Linearize.config ->
  ?check_style:bool ->
  ?check_internal:bool ->
  ?internal_policy:Adl.Graph.policy ->
  ?constraints:Styles.Constraint_lang.t list ->
  unit ->
  config
(** Build a configuration without spelling out the whole record; every
    omitted field takes its {!default_config} value. *)

val default_config : config
(** [config ()]: [Routed] paths, [Skip_simple], default linearization,
    style and internal-chain checks on. *)

(** Functional updates, for deriving one configuration from another:
    [default_config |> with_style_checks false |> with_constraints cs]. *)

val with_style_checks : bool -> config -> config

val with_internal_checks : ?policy:Adl.Graph.policy -> bool -> config -> config
(** [with_internal_checks ~policy on c] toggles the realization-chain
    check; [policy] also replaces the chain policy when given. *)

val with_constraints : Styles.Constraint_lang.t list -> config -> config

val evaluate_scenario :
  ?config:config ->
  ?reach:Adl.Reach.t ->
  ?record:Adl.Reach.recorder ->
  set:Scenarioml.Scen.set ->
  architecture:Adl.Structure.t ->
  mapping:Mapping.Types.t ->
  Scenarioml.Scen.t ->
  Verdict.scenario_result
(** [reach], when given, must have been built from [architecture] (or an
    architecture with the same communication graph); [record] captures
    the reachability queries the walk performs, for later
    {!Adl.Reach.replay}. *)

type set_result = {
  results : Verdict.scenario_result list;
  style_violations : Styles.Rule.violation list;
  coverage_problems : Mapping.Coverage.problem list;
  consistent : bool;
      (** every scenario consistent, no style violations (when checked) *)
}

val check_architecture : config -> Adl.Structure.t -> Styles.Rule.violation list
(** The per-architecture checks of {!evaluate_set}: declared-style rules
    (under [check_style]) plus the configured constraints. *)

val evaluate_set :
  ?config:config ->
  ?reach:Adl.Reach.t ->
  set:Scenarioml.Scen.set ->
  architecture:Adl.Structure.t ->
  mapping:Mapping.Types.t ->
  unit ->
  set_result

type simple_event_policy = Skip_simple | Report_simple

type config = {
  policy : Adl.Graph.policy;
  simple_events : simple_event_policy;
  linearize : Scenarioml.Linearize.config;
  check_style : bool;
  check_internal : bool;
  internal_policy : Adl.Graph.policy;
  constraints : Styles.Constraint_lang.t list;
}

let config ?(policy = Adl.Graph.Routed) ?(simple_events = Skip_simple)
    ?(linearize = Scenarioml.Linearize.default_config) ?(check_style = true)
    ?(check_internal = true) ?(internal_policy = Adl.Graph.Direct) ?(constraints = []) () =
  {
    policy;
    simple_events;
    linearize;
    check_style;
    check_internal;
    internal_policy;
    constraints;
  }

let default_config = config ()

let with_style_checks check_style c = { c with check_style }

let with_internal_checks ?policy check_internal c =
  {
    c with
    check_internal;
    internal_policy = Option.value policy ~default:c.internal_policy;
  }

let with_constraints constraints c = { c with constraints }

(* Components of one step; [`Narrative] means "no placement required"
   (simple event under [Skip_simple]). *)
let place config mapping ontology step =
  match step.Scenarioml.Linearize.step_event with
  | Scenarioml.Event.Typed { event_type; _ } ->
      let direct = Mapping.Types.components_of mapping event_type in
      if direct <> [] then `Placed (Some event_type, direct)
      else begin
        (* Fall back on the event-type hierarchy: an unmapped subtype
           inherits its nearest mapped ancestor's placement (the paper's
           generalization discussion, §5). *)
        let rec up id =
          match Ontology.Types.find_event_type ontology id with
          | Some { Ontology.Types.event_super = Some super; _ } -> (
              match Mapping.Types.components_of mapping super with
              | [] -> up super
              | components -> Some components)
          | Some { Ontology.Types.event_super = None; _ } | None -> None
        in
        match up event_type with
        | Some components -> `Placed (Some event_type, components)
        | None -> `Unmapped_type event_type
      end
  | Scenarioml.Event.Simple { text; _ } -> (
      match config.simple_events with
      | Skip_simple -> `Narrative
      | Report_simple -> `Unplaceable text)
  | Scenarioml.Event.Compound _ | Scenarioml.Event.Alternation _
  | Scenarioml.Event.Iteration _ | Scenarioml.Event.Optional _
  | Scenarioml.Event.Episode _ ->
      (* Linearization only emits primitive steps. *)
      `Narrative

let connect_hop config ?record reach from_components to_components =
  (* Some component of the previous step must communicate with some
     component of this step. Components shared by both steps connect
     trivially. *)
  let shared =
    List.filter (fun c -> List.exists (String.equal c) to_components) from_components
  in
  match shared with
  | c :: _ -> Some { Verdict.hop_from = c; hop_to = c; via = [ c ] }
  | [] ->
      let candidate =
        List.concat_map
          (fun a ->
            List.filter_map
              (fun b ->
                match Adl.Reach.path ~policy:config.policy ?record reach a b with
                | Some via -> Some { Verdict.hop_from = a; hop_to = b; via }
                | None -> None)
              to_components)
          from_components
      in
      (* Prefer the shortest communication path. *)
      List.fold_left
        (fun acc hop ->
          match acc with
          | None -> Some hop
          | Some best ->
              if List.length hop.Verdict.via < List.length best.Verdict.via then Some hop
              else acc)
        None candidate

let walk_trace config ?record set mapping reach trace_index trace =
  let ontology = set.Scenarioml.Scen.ontology in
  let rec loop index prev_components acc = function
    | [] -> List.rev acc
    | step :: rest -> (
        let text = Scenarioml.Event.render ontology step.Scenarioml.Linearize.step_event in
        match place config mapping ontology step with
        | `Narrative ->
            let result =
              {
                Verdict.index;
                text;
                event_type = None;
                components = [];
                hop = None;
                step_problems = [];
              }
            in
            (* Narrative steps do not move the placement. *)
            loop (index + 1) prev_components (result :: acc) rest
        | `Unplaceable event ->
            let result =
              {
                Verdict.index;
                text;
                event_type = None;
                components = [];
                hop = None;
                step_problems = [ Verdict.Unmapped_simple_event { step = index; event } ];
              }
            in
            loop (index + 1) prev_components (result :: acc) rest
        | `Unmapped_type event_type ->
            let result =
              {
                Verdict.index;
                text;
                event_type = Some event_type;
                components = [];
                hop = None;
                step_problems = [ Verdict.Unmapped_event_type { step = index; event_type } ];
              }
            in
            loop (index + 1) prev_components (result :: acc) rest
        | `Placed (event_type, components) ->
            let hop, hop_problems =
              match prev_components with
              | [] -> (None, [])
              | prev -> (
                  match connect_hop config ?record reach prev components with
                  | Some hop -> (Some hop, [])
                  | None ->
                      ( None,
                        [
                          Verdict.Missing_link
                            {
                              step = index;
                              from_components = prev;
                              to_components = components;
                            };
                        ] ))
            in
            (* An event mapped to several components is realized by that
               chain of components in order (Fig. 4's fourth event:
               "transfer specific data from the Loader through Data
               Access to the Data Repository"): each consecutive pair
               must be able to communicate. *)
            let internal_problems =
              if not config.check_internal then []
              else
                let rec chain = function
                  | a :: (b :: _ as rest) ->
                      let tail = chain rest in
                      if
                        String.equal a b
                        || Adl.Reach.reachable ~policy:config.internal_policy ?record reach
                             a b
                      then tail
                      else
                        Verdict.Missing_link
                          { step = index; from_components = [ a ]; to_components = [ b ] }
                        :: tail
                  | [ _ ] | [] -> []
                in
                chain components
            in
            let result =
              {
                Verdict.index;
                text;
                event_type;
                components;
                hop;
                step_problems = hop_problems @ internal_problems;
              }
            in
            loop (index + 1) components (result :: acc) rest)
  in
  let steps = loop 1 [] [] trace in
  let walked =
    List.for_all (fun s -> s.Verdict.step_problems = []) steps
  in
  { Verdict.trace_index; steps; walked }

let evaluate_scenario ?(config = default_config) ?reach ?record ~set ~architecture
    ~mapping s =
  let reach =
    match reach with Some r -> r | None -> Adl.Reach.of_structure architecture
  in
  let { Scenarioml.Linearize.traces; truncated } =
    Scenarioml.Linearize.scenario ~config:config.linearize set s
  in
  let results =
    List.mapi
      (fun i trace -> walk_trace config ?record set mapping reach (i + 1) trace)
      traces
  in
  let negative = Scenarioml.Scen.is_negative s in
  let verdict, inconsistencies =
    if negative then begin
      (* Inconsistent when any trace executes successfully. *)
      let executing = List.filter (fun t -> t.Verdict.walked) results in
      match executing with
      | [] -> (Verdict.Consistent, [])
      | ts ->
          ( Verdict.Inconsistent,
            List.map
              (fun t ->
                Verdict.Negative_scenario_executes
                  { scenario = s.Scenarioml.Scen.scenario_id; trace_index = t.Verdict.trace_index })
              ts )
    end
    else begin
      let failing = List.filter (fun t -> not t.Verdict.walked) results in
      match failing with
      | [] -> (Verdict.Consistent, [])
      | ts ->
          ( Verdict.Inconsistent,
            List.concat_map
              (fun t ->
                List.concat_map (fun st -> st.Verdict.step_problems) t.Verdict.steps)
              ts )
    end
  in
  {
    Verdict.scenario_id = s.Scenarioml.Scen.scenario_id;
    scenario_name = s.Scenarioml.Scen.scenario_name;
    negative;
    traces = results;
    truncated;
    verdict;
    inconsistencies;
  }

type set_result = {
  results : Verdict.scenario_result list;
  style_violations : Styles.Rule.violation list;
  coverage_problems : Mapping.Coverage.problem list;
  consistent : bool;
}

let check_architecture config architecture =
  (if config.check_style then Styles.Check.check_declared architecture else [])
  @ Styles.Constraint_lang.check architecture config.constraints

let evaluate_set ?(config = default_config) ?reach ~set ~architecture ~mapping () =
  let reach =
    match reach with Some r -> r | None -> Adl.Reach.of_structure architecture
  in
  let results =
    List.map
      (evaluate_scenario ~config ~reach ~set ~architecture ~mapping)
      set.Scenarioml.Scen.scenarios
  in
  let style_violations = check_architecture config architecture in
  let coverage_problems =
    Mapping.Coverage.check set.Scenarioml.Scen.ontology architecture mapping
  in
  let consistent =
    List.for_all Verdict.is_consistent results && style_violations = []
  in
  { results; style_violations; coverage_problems; consistent }

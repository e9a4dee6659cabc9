(* Experiment harness: regenerates every table and figure of the paper
   (see EXPERIMENTS.md for the index) and runs the Bechamel
   micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig4    # one artifact
     dune exec bench/main.exe -- bench   # micro-benchmarks only *)

let header id title =
  let line = String.make 74 '=' in
  Printf.printf "\n%s\n== [%s] %s\n%s\n" line id title line

(* ------------------------------------------------------------------ *)
(* FIG1: overview of the approach                                     *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  header "FIG1" "Overview of the approach (paper Fig. 1)";
  print_string
    "  (1) Scenarios      requirements-level scenarios in ScenarioML\n\
    \                     (library: scenarioml; ontology: ontology)\n\
    \  (2) Architecture   structural + behavioral description, xADL-style\n\
    \                     (libraries: adl, statechart; styles: styles)\n\
    \  (3) Mapping        ontology event types -> architecture components\n\
    \                     (library: mapping)\n\
    \  (4) Evaluation     scenario walkthroughs over the structure, plus\n\
    \                     dynamic simulation for quality attributes\n\
    \                     (libraries: walkthrough, dsim)\n"

(* ------------------------------------------------------------------ *)
(* FIG2: PIMS scenarios and ontology                                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "FIG2" "PIMS scenarios and ontology event types (paper Fig. 2)";
  let ontology = Casestudies.Pims.ontology in
  print_endline (Ontology.Pretty.summary ontology);
  print_endline "Ontology event types (excerpt: actions performed by the actors):";
  List.iter
    (fun id ->
      match Ontology.Types.find_event_type ontology id with
      | Some e -> Format.printf "  @[<v>%a@]@." (Ontology.Pretty.pp_event_type ontology) e
      | None -> ())
    [ "user-initiates"; "user-enters"; "system-prompts"; "system-downloads"; "system-saves" ];
  Format.printf "%a@."
    (Scenarioml.Pretty.pp_scenario ontology)
    Casestudies.Pims.create_portfolio;
  Format.printf "%a@."
    (Scenarioml.Pretty.pp_scenario ontology)
    Casestudies.Pims.get_share_prices

(* ------------------------------------------------------------------ *)
(* FIG3: PIMS architecture                                            *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "FIG3" "PIMS layered architecture in xADL (paper Fig. 3)";
  Format.printf "%a@." Adl.Pretty.pp_layered Casestudies.Pims.architecture;
  print_endline (Adl.Pretty.summary Casestudies.Pims.architecture);
  Printf.printf "style violations: %d\n"
    (List.length (Styles.Check.check_declared Casestudies.Pims.architecture));
  print_endline "xADL serialization (first lines):";
  let xml = Adl.Xml_io.to_string Casestudies.Pims.architecture in
  String.split_on_char '\n' xml
  |> List.filteri (fun i _ -> i < 12)
  |> List.iter (fun l -> print_endline ("  " ^ l))

(* ------------------------------------------------------------------ *)
(* TAB1: the mapping table                                            *)
(* ------------------------------------------------------------------ *)

let tab1 () =
  header "TAB1" "Mapping between ontology event types and components (paper Table 1)";
  print_string
    (Mapping.Pretty.table_to_string ~event_type_label:Casestudies.Pims.event_type_label
       ~component_label:Casestudies.Pims.component_label Casestudies.Pims.mapping);
  let summary =
    Mapping.Coverage.summarize Casestudies.Pims.ontology Casestudies.Pims.architecture
      Casestudies.Pims.mapping
  in
  Format.printf "%a@." Mapping.Coverage.pp_summary summary;
  Printf.printf
    "Table 1 property (every event type mapped, every component mapped to): %b\n"
    (Mapping.Coverage.is_total Casestudies.Pims.ontology Casestudies.Pims.architecture
       Casestudies.Pims.mapping)

(* ------------------------------------------------------------------ *)
(* FIG4 (+WALK-A/WALK-B): the excised-link walkthrough                *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "FIG4" "Failed walkthrough of \"Get the current prices of shares\" (paper Fig. 4)";
  let set = Casestudies.Pims.scenario_set in
  let eval arch s =
    Walkthrough.Engine.evaluate_scenario ~set ~architecture:arch
      ~mapping:Casestudies.Pims.mapping s
  in
  print_endline "WALK-A/WALK-B expectations: \"our expectation was that the walkthrough of";
  print_endline "the Create portfolio scenario would succeed while the Get the current";
  print_endline "prices of shares scenario would fail.\"";
  print_endline "";
  print_endline "-- intact architecture --";
  print_endline
    (Walkthrough.Report.summary_line
       (eval Casestudies.Pims.architecture Casestudies.Pims.create_portfolio));
  print_endline
    (Walkthrough.Report.summary_line
       (eval Casestudies.Pims.architecture Casestudies.Pims.get_share_prices));
  print_endline "";
  print_endline "-- after excising the Loader / Data Access link --";
  let broken = Casestudies.Pims.broken_architecture in
  print_endline
    (Walkthrough.Report.summary_line (eval broken Casestudies.Pims.create_portfolio));
  Format.printf "%a@." Walkthrough.Report.pp_scenario_result
    (eval broken Casestudies.Pims.get_share_prices)

(* ------------------------------------------------------------------ *)
(* FIG5: CRASH high-level architecture                                *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  header "FIG5" "CRASH high-level architecture (paper Fig. 5)";
  let hl = Casestudies.Crash.high_level_architecture () in
  print_endline (Adl.Pretty.summary hl);
  List.iter
    (fun (org, name) ->
      Printf.printf "  %-14s %s: Display + Information Gathering Sources + C&C\n" org name)
    Casestudies.Crash.organizations;
  print_endline "  all Command and Control centers joined by the emergency ad hoc network";
  let g = Adl.Graph.of_structure hl in
  Printf.printf "  fire-cc can reach police-cc: %b\n"
    (Adl.Graph.reachable g "fire-cc" "police-cc");
  Printf.printf "  displays only reach their own C&C directly: %b\n"
    (Adl.Graph.reachable ~policy:Adl.Graph.Direct g "fire-display" "fire-cc"
    && not (Adl.Graph.reachable ~policy:Adl.Graph.Direct g "fire-display" "police-cc"))

(* ------------------------------------------------------------------ *)
(* FIG6: the Entity Availability scenario                             *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  header "FIG6" "\"Entity Availability\" scenario in ScenarioML (paper Fig. 6)";
  Format.printf "%a@."
    (Scenarioml.Pretty.pp_scenario Casestudies.Crash.ontology)
    Casestudies.Crash.entity_availability;
  print_endline "ScenarioML serialization:";
  print_string
    (Xmlight.Print.element_to_string
       (Scenarioml.Xml_io.scenario_to_element Casestudies.Crash.entity_availability));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* FIG7: CRASH entity internal architecture                           *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  header "FIG7" "Architecture of each CRASH entity (paper Fig. 7, C2 style)";
  Format.printf "%a@." Adl.Pretty.pp Casestudies.Crash.entity_architecture;
  Printf.printf "C2 style violations: %d\n"
    (List.length (Styles.Check.check_declared Casestudies.Crash.entity_architecture))

(* ------------------------------------------------------------------ *)
(* FIG8: ontology / scenario / architecture mapping                   *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  header "FIG8" "CRASH ontology, scenario, and architecture mapping (paper Fig. 8)";
  Format.printf "%a@."
    (Scenarioml.Pretty.pp_scenario Casestudies.Crash.ontology)
    Casestudies.Crash.message_sequence;
  print_string
    (Mapping.Pretty.table_to_string ~event_type_label:Casestudies.Crash.event_type_label
       ~component_label:Casestudies.Crash.component_label Casestudies.Crash.entity_mapping);
  Printf.printf "\nsendMessage maps to: %s\n"
    (String.concat ", "
       (List.map Casestudies.Crash.component_label
          (Mapping.Types.components_of Casestudies.Crash.entity_mapping "send-message")));
  print_endline "-- static walkthroughs over the entity architecture --";
  let set = Casestudies.Crash.entity_scenario_set in
  List.iter
    (fun s ->
      let r =
        Walkthrough.Engine.evaluate_scenario ~set
          ~architecture:Casestudies.Crash.entity_architecture
          ~mapping:Casestudies.Crash.entity_mapping s
      in
      print_endline ("  " ^ Walkthrough.Report.summary_line r))
    set.Scenarioml.Scen.scenarios

(* ------------------------------------------------------------------ *)
(* WALK-C: availability, dynamic                                      *)
(* ------------------------------------------------------------------ *)

let crash_avail () =
  header "WALK-C" "Dynamic evaluation: Entity Availability (paper 4.2)";
  print_endline "Expectation: the Fire operator is alerted iff the architecture provides";
  print_endline "a failure-detection mechanism.";
  let run detector =
    let r = Casestudies.Crash_sim.run_availability ~detector in
    Format.printf "failure detector %-3s: %a | operator chart alerted: %b@."
      (if detector then "ON" else "OFF")
      Dsim.Checks.pp_availability r.Casestudies.Crash_sim.verdict
      r.Casestudies.Crash_sim.fire_alerted;
    r
  in
  let on = run true in
  let _off = run false in
  print_endline "network trace with the detector on:";
  Format.printf "%a@." Dsim.Trace_pp.pp_trace on.Casestudies.Crash_sim.events

(* ------------------------------------------------------------------ *)
(* WALK-D: message ordering, dynamic                                  *)
(* ------------------------------------------------------------------ *)

let crash_order () =
  header "WALK-D" "Dynamic evaluation: Message Sequence (paper 4.2)";
  print_endline "Expectation: the sequence is preserved iff channels are FIFO.";
  let run fifo =
    let r = Casestudies.Crash_sim.run_ordering ~fifo () in
    Format.printf "%-17s: %a@."
      (if fifo then "FIFO channels" else "jittered channels")
      Dsim.Checks.pp_ordering r.Casestudies.Crash_sim.verdict
  in
  run true;
  run false;
  print_endline "";
  print_endline "the paper's exact workload (2 messages, 5 s apart) under small jitter:";
  let r =
    Casestudies.Crash_sim.run_ordering ~messages:2 ~gap:5.0 ~jitter:2.0 ~fifo:false ()
  in
  Format.printf "%a@." Dsim.Checks.pp_ordering r.Casestudies.Crash_sim.verdict

(* ------------------------------------------------------------------ *)
(* COMPLX: the ontology link-complexity claim                         *)
(* ------------------------------------------------------------------ *)

let complexity () =
  header "COMPLX" "Mapping complexity with vs without the ontology (paper 1/5)";
  print_endline "Claim: \"the more extensive the reuse of the ontology definitions in the";
  print_endline "scenarios, the greater is the reduction in complexity.\"";
  print_endline "";
  print_endline "-- measured on the PIMS case study --";
  let stats = Scenarioml.Stats.of_set Casestudies.Pims.scenario_set in
  let counts =
    Mapping.Complexity.measure Casestudies.Pims.mapping ~usage:stats.Scenarioml.Stats.usage
  in
  Format.printf "%a@." Scenarioml.Stats.pp stats;
  Printf.printf
    "links with ontology: %d (occurrence->definition %d + definition->component %d)\n"
    counts.Mapping.Complexity.with_ontology counts.Mapping.Complexity.occurrences
    counts.Mapping.Complexity.definition_links;
  Printf.printf "links without ontology: %d\nreduction factor: %.2f\n"
    counts.Mapping.Complexity.without_ontology counts.Mapping.Complexity.reduction;
  print_endline "";
  print_endline "-- synthetic sweep (20 event types, fanout 3, 8 components) --";
  Printf.printf "%8s | %12s | %15s | %9s\n" "reuse" "with ontol." "without ontol." "reduction";
  Printf.printf "%s\n" (String.make 55 '-');
  List.iter
    (fun (r, c) ->
      Printf.printf "%8d | %12d | %15d | %9.2f\n" r c.Mapping.Complexity.with_ontology
        c.Mapping.Complexity.without_ontology c.Mapping.Complexity.reduction)
    (Mapping.Complexity.sweep ~event_types:20 ~fanout:3 ~components:8
       ~reuse:[ 1; 2; 4; 8; 16; 32; 64 ])

(* ------------------------------------------------------------------ *)
(* COVER: which components the 22 use cases exercise                  *)
(* ------------------------------------------------------------------ *)

let cover () =
  header "COVER" "Component coverage of the PIMS scenarios (paper 3.3)";
  let result =
    Walkthrough.Engine.evaluate_set ~set:Casestudies.Pims.scenario_set
      ~architecture:Casestudies.Pims.architecture ~mapping:Casestudies.Pims.mapping ()
  in
  Format.printf "%a@." Walkthrough.Coverage_report.pp
    (Walkthrough.Coverage_report.of_set_result Casestudies.Pims.architecture result)

(* ------------------------------------------------------------------ *)
(* ENTITY-SIM: executing messages on the Fig. 7 architecture          *)
(* ------------------------------------------------------------------ *)

let entity_sim () =
  header "ENTITY-SIM" "Executing messages on the entity architecture (Figs. 7/8)";
  print_endline "The operator composes a message at the User Interface; it must traverse";
  print_endline "exactly the three components Fig. 8 maps sendMessage to, then the network.";
  let r = Casestudies.Crash_behavior.run_message_paths () in
  Printf.printf "outgoing path : %s -> network (%s)\n"
    (String.concat " -> " r.Casestudies.Crash_behavior.outgoing_path)
    (if r.Casestudies.Crash_behavior.outgoing_reached_network then "delivered"
     else "LOST");
  Printf.printf "incoming path : %s (operator %s)\n"
    (String.concat " -> " r.Casestudies.Crash_behavior.incoming_path)
    (if r.Casestudies.Crash_behavior.incoming_informed_ui then "informed"
     else "NOT informed");
  print_endline "";
  print_endline "with the Sharing Info Manager severed from the lower bus:";
  let broken =
    Adl.Diff.excise_link_between Casestudies.Crash.entity_architecture
      "sharing-info-manager" "bus-bottom"
  in
  let r2 = Casestudies.Crash_behavior.run_message_paths_on broken in
  Printf.printf "outgoing path : %s (%s)\n"
    (String.concat " -> " r2.Casestudies.Crash_behavior.outgoing_path)
    (if r2.Casestudies.Crash_behavior.outgoing_reached_network then "delivered"
     else "message LOST before the network")

(* ------------------------------------------------------------------ *)
(* FAULTS: availability under intermittent failures and partitions    *)
(* ------------------------------------------------------------------ *)

let faults () =
  header "FAULTS" "Availability under intermittent failures (extension of WALK-C)";
  print_endline "Fire sends one request per second for 100 s; Police crash-restarts every";
  print_endline "10 s, staying down for a growing fraction of each period.";
  Printf.printf "%10s | %8s | %10s | %8s | %8s\n" "down frac" "sent" "delivered" "ratio"
    "notices";
  Printf.printf "%s\n" (String.make 56 '-');
  List.iter
    (fun p ->
      Printf.printf "%10.2f | %8d | %10d | %8.3f | %8d\n"
        p.Casestudies.Crash_sim.downtime_fraction p.Casestudies.Crash_sim.stats.Dsim.Checks.sent
        p.Casestudies.Crash_sim.stats.Dsim.Checks.delivered
        p.Casestudies.Crash_sim.stats.Dsim.Checks.delivery_ratio
        p.Casestudies.Crash_sim.failure_notices)
    (Casestudies.Crash_sim.run_fault_sweep
       ~downtime_fractions:[ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9 ]
       ());
  print_endline "";
  print_endline "Silent partition (no failure detector signal), healing at t=10 of 20:";
  let stats = Casestudies.Crash_sim.run_partition () in
  Format.printf "  %a@." Dsim.Checks.pp_stats stats

(* ------------------------------------------------------------------ *)
(* ABL-POLICY: routed vs direct hop policy                            *)
(* ------------------------------------------------------------------ *)

let ablation_policy () =
  header "ABL-POLICY" "Ablation: Routed vs Direct communication policy";
  print_endline "The paper's Fig. 4 narrative routes requests \"through intervening";
  print_endline "connectors and components\" (Routed); the stricter Direct policy only";
  print_endline "lets connectors relay. Effect on the 22 PIMS walkthroughs:";
  let count policy =
    let config = Walkthrough.Engine.config ~policy () in
    let r =
      Walkthrough.Engine.evaluate_set ~config ~set:Casestudies.Pims.scenario_set
        ~architecture:Casestudies.Pims.architecture ~mapping:Casestudies.Pims.mapping ()
    in
    List.length (List.filter Walkthrough.Verdict.is_consistent r.Walkthrough.Engine.results)
  in
  Printf.printf "  Routed: %d/22 consistent\n" (count Adl.Graph.Routed);
  Printf.printf "  Direct: %d/22 consistent\n" (count Adl.Graph.Direct)

(* ------------------------------------------------------------------ *)
(* ABL-GENERAL: event generalization vs a flat event vocabulary       *)
(* ------------------------------------------------------------------ *)

let ablation_generalization () =
  header "ABL-GENERAL" "Ablation: generalized event types vs a flat per-occurrence vocabulary";
  print_endline "Without generalization every occurrence is its own definition (reuse 1);";
  print_endline "with the PIMS ontology occurrences share 17 definitions (paper 5).";
  let stats = Scenarioml.Stats.of_set Casestudies.Pims.scenario_set in
  let shared =
    Mapping.Complexity.measure Casestudies.Pims.mapping ~usage:stats.Scenarioml.Stats.usage
  in
  (* flat variant: one synthetic event type per occurrence, each mapped
     with its original fanout *)
  let flat_usage =
    List.concat_map
      (fun (et, n) -> List.init n (fun i -> (Printf.sprintf "%s#%d" et i, 1)))
      stats.Scenarioml.Stats.usage
  in
  let flat_mapping =
    {
      Mapping.Types.mapping_id = "flat";
      ontology_id = "flat";
      architecture_id = "pims-arch";
      entries =
        List.map
          (fun (et_occ, _) ->
            let base = List.hd (String.split_on_char '#' et_occ) in
            {
              Mapping.Types.event_type = et_occ;
              components = Mapping.Types.components_of Casestudies.Pims.mapping base;
              rationale = "flattened";
            })
          flat_usage;
    }
  in
  let flat = Mapping.Complexity.measure flat_mapping ~usage:flat_usage in
  Printf.printf "%24s | %10s | %10s\n" "" "shared" "flat";
  Printf.printf "%24s | %10d | %10d\n" "distinct definitions"
    stats.Scenarioml.Stats.distinct_event_types_used (List.length flat_usage);
  Printf.printf "%24s | %10d | %10d\n" "definition->component" shared.Mapping.Complexity.definition_links
    flat.Mapping.Complexity.definition_links;
  Printf.printf "%24s | %10d | %10d\n" "total maintained links" shared.Mapping.Complexity.with_ontology
    flat.Mapping.Complexity.with_ontology;
  Printf.printf "link growth without generalization: %.2fx\n"
    (float_of_int flat.Mapping.Complexity.with_ontology
    /. float_of_int shared.Mapping.Complexity.with_ontology)

(* ------------------------------------------------------------------ *)
(* ABL-DYNAMIC: static vs behavioral walkthrough                      *)
(* ------------------------------------------------------------------ *)

let ablation_dynamic () =
  header "ABL-DYNAMIC" "Ablation: static walkthrough vs behavioral execution";
  print_endline "A scenario that saves prices before downloading them: every hop exists";
  print_endline "structurally, but the Loader's statechart rejects the premature save.";
  let reordered = Casestudies.Pims_behavior.reordered_get_share_prices in
  let set =
    Scenarioml.Scen.make_set ~id:"abl" ~name:"Ablation" Casestudies.Pims.ontology
      [ reordered ]
  in
  let static =
    Walkthrough.Engine.evaluate_scenario ~set ~architecture:Casestudies.Pims.architecture
      ~mapping:Casestudies.Pims.mapping reordered
  in
  Printf.printf "  static    : %s\n"
    (match static.Walkthrough.Verdict.verdict with
    | Walkthrough.Verdict.Consistent -> "CONSISTENT (defect missed)"
    | Walkthrough.Verdict.Inconsistent -> "INCONSISTENT");
  let dynamic =
    Walkthrough.Dynamic.evaluate_scenario ~set ~mapping:Casestudies.Pims.mapping
      ~charts:Casestudies.Pims_behavior.charts reordered
  in
  Printf.printf "  behavioral: %s\n"
    (if dynamic.Walkthrough.Dynamic.ok then "ACCEPTED" else "REJECTED (defect caught)");
  Format.printf "%a@." Walkthrough.Dynamic.pp_result dynamic

(* ------------------------------------------------------------------ *)
(* ABL-INFER: manual vs entity-inferred mapping                       *)
(* ------------------------------------------------------------------ *)

let ablation_infer () =
  header "ABL-INFER" "Ablation: hand-written mapping vs entity-based inference (paper 8)";
  let associations =
    [
      { Mapping.Infer.entity = "user"; responsible = [ "master-controller" ] };
      { Mapping.Infer.entity = "system"; responsible = [ "master-controller" ] };
      { Mapping.Infer.entity = "portfolio"; responsible = [ "portfolio-manager" ] };
      { Mapping.Infer.entity = "transaction"; responsible = [ "transaction-manager" ] };
      { Mapping.Infer.entity = "share-price"; responsible = [ "loader" ] };
      { Mapping.Infer.entity = "password"; responsible = [ "authentication" ] };
      {
        Mapping.Infer.entity = "repository-data";
        responsible = [ "data-access"; "data-repository" ];
      };
      { Mapping.Infer.entity = "website"; responsible = [ "remote-price-db" ] };
    ]
  in
  let inferred =
    Mapping.Infer.infer ~id:"pims-inferred" ~ontology:Casestudies.Pims.ontology
      ~architecture:Casestudies.Pims.architecture associations
  in
  Printf.printf "entity associations: %d (vs %d hand-written mapping entries)\n"
    (List.length associations)
    (List.length Casestudies.Pims.mapping.Mapping.Types.entries);
  Printf.printf "inferred entries: %d, links: %d (manual links: %d)\n"
    (List.length inferred.Mapping.Types.entries)
    (Mapping.Types.link_count inferred)
    (Mapping.Types.link_count Casestudies.Pims.mapping);
  let divergences = Mapping.Infer.compare_mappings Casestudies.Pims.mapping inferred in
  Printf.printf "divergent event types: %d\n" (List.length divergences);
  List.iteri
    (fun i d -> if i < 6 then Format.printf "  %a@." Mapping.Infer.pp_divergence d)
    divergences

(* ------------------------------------------------------------------ *)
(* RANK: scenario prioritization                                      *)
(* ------------------------------------------------------------------ *)

let rank () =
  header "RANK" "Scenario prioritization (the ranking the paper leaves open, 3.2)";
  List.iter
    (fun sc -> Format.printf "  %a@." Scenarioml.Rank.pp_score sc)
    (Scenarioml.Rank.rank Casestudies.Pims.scenario_set);
  let top = Scenarioml.Rank.cover Casestudies.Pims.scenario_set 5 in
  Printf.printf "a 5-scenario evaluation suite: %s\n" (String.concat ", " top)

(* ------------------------------------------------------------------ *)
(* SCALE: walkthrough cost vs system size                             *)
(* ------------------------------------------------------------------ *)

(* A synthetic chain system: n components in a line, one scenario
   touching every component in order. *)
let synthetic_project n =
  let name i = Printf.sprintf "c%d" i in
  let ontology =
    List.fold_left
      (fun o i ->
        Ontology.Build.add_event_type ~id:(Printf.sprintf "e%d" i)
          ~name:(Printf.sprintf "e%d" i)
          ~template:(Printf.sprintf "step %d happens" i)
          o)
      (Ontology.Build.create ~id:"syn" ~name:"Synthetic")
      (List.init n Fun.id)
  in
  let architecture =
    let with_components =
      List.fold_left
        (fun t i ->
          Adl.Build.add_component ~id:(name i) ~name:(name i) ~responsibilities:[ "r" ] t)
        (Adl.Build.create ~id:"syn-arch" ~name:"Synthetic chain" ())
        (List.init n Fun.id)
    in
    List.fold_left
      (fun t i -> Adl.Build.biconnect t (name i) (name (i + 1)))
      with_components
      (List.init (n - 1) Fun.id)
  in
  let mapping =
    List.fold_left
      (fun m i ->
        Mapping.Build.map ~event_type:(Printf.sprintf "e%d" i) ~to_:[ name i ] m)
      (Mapping.Build.create ~id:"syn-map" ~ontology ~architecture)
      (List.init n Fun.id)
  in
  let scenario =
    Scenarioml.Scen.scenario ~id:"walk" ~name:"Walk the chain"
      (List.init n (fun i ->
           Scenarioml.Event.typed ~id:(Printf.sprintf "s%d" i)
             ~event_type:(Printf.sprintf "e%d" i) []))
  in
  let set = Scenarioml.Scen.make_set ~id:"syn-set" ~name:"Synthetic" ontology [ scenario ] in
  (set, architecture, mapping)

let scale_tests =
  let open Bechamel in
  List.map
    (fun n ->
      let set, architecture, mapping = synthetic_project n in
      Test.make ~name:(Printf.sprintf "walkthrough-chain-%03d" n)
        (Staged.stage (fun () ->
             Walkthrough.Engine.evaluate_set ~set ~architecture ~mapping ())))
    [ 8; 32; 128 ]

(* ------------------------------------------------------------------ *)
(* PERF: Bechamel micro-benchmarks                                    *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* INCR: full vs incremental re-evaluation after an edit              *)
(* ------------------------------------------------------------------ *)

(* A chain of [components], walked by [scenarios] scenarios that each
   touch a contiguous segment of [span] components (segments spread
   evenly over the chain). Excising one link in the middle then only
   dirties the scenarios whose segment crosses it — the workload shape
   an evaluation session exploits. *)
let synthetic_suite ~components ~scenarios ~span =
  let name i = Printf.sprintf "c%d" i in
  let ontology =
    List.fold_left
      (fun o i ->
        Ontology.Build.add_event_type ~id:(Printf.sprintf "e%d" i)
          ~name:(Printf.sprintf "e%d" i)
          ~template:(Printf.sprintf "step %d happens" i)
          o)
      (Ontology.Build.create ~id:"syn" ~name:"Synthetic")
      (List.init components Fun.id)
  in
  let architecture =
    let with_components =
      List.fold_left
        (fun t i ->
          Adl.Build.add_component ~id:(name i) ~name:(name i) ~responsibilities:[ "r" ] t)
        (Adl.Build.create ~id:"syn-arch" ~name:"Synthetic chain" ())
        (List.init components Fun.id)
    in
    List.fold_left
      (fun t i -> Adl.Build.biconnect t (name i) (name (i + 1)))
      with_components
      (List.init (components - 1) Fun.id)
  in
  let mapping =
    List.fold_left
      (fun m i ->
        Mapping.Build.map ~event_type:(Printf.sprintf "e%d" i) ~to_:[ name i ] m)
      (Mapping.Build.create ~id:"syn-map" ~ontology ~architecture)
      (List.init components Fun.id)
  in
  let span = min span components in
  let scenario k =
    let start = if scenarios = 1 then 0 else k * (components - span) / (scenarios - 1) in
    Scenarioml.Scen.scenario
      ~id:(Printf.sprintf "seg%d" k)
      ~name:(Printf.sprintf "Walk %d..%d" start (start + span - 1))
      (List.init span (fun i ->
           Scenarioml.Event.typed
             ~id:(Printf.sprintf "s%d-%d" k i)
             ~event_type:(Printf.sprintf "e%d" (start + i))
             []))
  in
  let set =
    Scenarioml.Scen.make_set ~id:"syn-set" ~name:"Synthetic" ontology
      (List.init scenarios scenario)
  in
  (set, architecture, mapping)

let incr_json : Jsonlight.t list ref = ref []

(* Timed comparison: after excising the links between [a] and [b],
   re-evaluate the whole suite. "full" runs a fresh evaluation; the
   session applies the diff to a warm cache and re-evaluates only what
   the excision touched. Warming the sessions (the state a long-lived
   tool already has) is not timed. *)
let incr_case ~label ~reps ~a ~b (set, architecture, mapping) =
  let ops = Adl.Diff.excise_ops architecture a b in
  let time_ms f =
    (* compacting first puts both measurements in the same heap state,
       so earlier targets (the allocation-heavy micro-benchmarks in
       particular) don't skew whichever section happens to run next *)
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let broken = Adl.Diff.apply_all architecture ops in
  let full_ms =
    time_ms (fun () ->
        for _ = 1 to reps do
          ignore (Walkthrough.Engine.evaluate_set ~set ~architecture:broken ~mapping ())
        done)
  in
  let project = { Core.Sosae.scenarios = set; architecture; mapping } in
  let sessions =
    List.init reps (fun _ ->
        let s = Core.Sosae.Session.create project in
        ignore (Core.Sosae.Session.evaluate s);
        s)
  in
  let incr_ms =
    time_ms (fun () ->
        List.iter
          (fun s ->
            Core.Sosae.Session.apply_diff s ops;
            ignore (Core.Sosae.Session.evaluate s))
          sessions)
  in
  let stats = Core.Sosae.Session.stats (List.hd sessions) in
  let total = List.length set.Scenarioml.Scen.scenarios in
  let re_evaluated = stats.Core.Sosae.Session.evaluations - total in
  let speedup = full_ms /. incr_ms in
  Printf.printf "%-26s | %9.2f | %9.2f | %7.1fx | %5d of %d\n" label
    (full_ms /. float_of_int reps)
    (incr_ms /. float_of_int reps)
    speedup re_evaluated total;
  incr_json :=
    Jsonlight.Obj
      [
        ("suite", Jsonlight.String label);
        ("scenarios", Jsonlight.Int total);
        ("reps", Jsonlight.Int reps);
        ("full_ms_per_rep", Jsonlight.Float (full_ms /. float_of_int reps));
        ("incremental_ms_per_rep", Jsonlight.Float (incr_ms /. float_of_int reps));
        ("speedup", Jsonlight.Float speedup);
        ("re_evaluated", Jsonlight.Int re_evaluated);
      ]
    :: !incr_json;
  speedup

(* CI smoke mode: tiny suites and rep counts, just enough to catch
   bit-rot in the harness itself (set SOSAE_BENCH_SMOKE=1). *)
let smoke = Sys.getenv_opt "SOSAE_BENCH_SMOKE" <> None

let incr () =
  header "INCR" "Full vs incremental re-evaluation after a single-link excision";
  print_endline "Each suite is re-evaluated after excising one link: \"full\" evaluates";
  print_endline "every scenario afresh; \"incremental\" replays a warm Sosae.Session";
  print_endline "(per-rep times; \"dirty\" = scenarios the session re-walked).";
  print_endline "";
  Printf.printf "%-26s | %9s | %9s | %8s | %s\n" "suite" "full ms" "incr ms" "speedup"
    "dirty";
  Printf.printf "%s\n" (String.make 72 '-');
  let chain components =
    let scenarios = components / 8 and span = 12 in
    let mid = components / 2 in
    let label = Printf.sprintf "chain-%04d (%d scen.)" components scenarios in
    incr_case ~label
      ~reps:(if smoke then 2 else max 3 (2048 / components))
      ~a:(Printf.sprintf "c%d" mid)
      ~b:(Printf.sprintf "c%d" (mid + 1))
      (synthetic_suite ~components ~scenarios ~span)
  in
  let _ = chain 64 in
  let largest =
    if smoke then chain 128
    else begin
      let _ = chain 256 in
      chain 1024
    end
  in
  let pims =
    incr_case ~label:"pims-excise-loader-da" ~reps:(if smoke then 5 else 100) ~a:"loader"
      ~b:"data-access"
      ( Casestudies.Pims.scenario_set,
        Casestudies.Pims.architecture,
        Casestudies.Pims.mapping )
  in
  print_endline "";
  Printf.printf "largest chain speedup: %.1fx, PIMS speedup: %.1fx%s\n" largest pims
    (if largest >= 2.0 then " (acceptance: >= 2x ok)" else " (below 2x target!)")

(* ------------------------------------------------------------------ *)
(* SCALE: parallel suite evaluation vs number of domains              *)
(* ------------------------------------------------------------------ *)

let scale_json : Jsonlight.t list ref = ref []

(* Batches timed per jobs count by [scale] and [sim]: one batch read
   anywhere from 0.6x to 1.3x for the same suite, run to run, on a
   shared 2-vCPU guest, so each reports the median of five. *)
let rounds = if smoke then 1 else 5

let median samples = List.nth (List.sort compare samples) (List.length samples / 2)

(* The rounds interleave the jobs counts. *)
let scale_case ~label ~reps (set, architecture, mapping) =
  let project = { Core.Sosae.scenarios = set; architecture; mapping } in
  let time_ms jobs =
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Core.Sosae.evaluate ~jobs project)
    done;
    (Unix.gettimeofday () -. t0) *. 1000.0 /. float_of_int reps
  in
  let scenarios = List.length set.Scenarioml.Scen.scenarios in
  let work =
    scenarios
    * (List.length architecture.Adl.Structure.components
      + List.length architecture.Adl.Structure.connectors)
  in
  let jobs_list = [ 1; 2; 4; 8 ] in
  List.iter (fun jobs -> ignore (Core.Sosae.evaluate ~jobs project)) jobs_list (* warm-up *);
  let batches = List.init rounds (fun _ -> List.map (fun jobs -> (jobs, time_ms jobs)) jobs_list) in
  let timings =
    List.map (fun jobs -> (jobs, median (List.map (List.assoc jobs) batches))) jobs_list
  in
  let base = List.assoc 1 timings in
  let path = if work >= Core.Sosae.fan_out_work then "pool" else "inline" in
  let rows =
    List.map
      (fun (jobs, ms) ->
        let speedup = base /. ms in
        Printf.printf "%-26s | %6d | %4d | %9.2f | %7.2fx\n" label work jobs ms speedup;
        Jsonlight.Obj
          [
            ("jobs", Jsonlight.Int jobs);
            ("ms_per_eval", Jsonlight.Float ms);
            ("speedup", Jsonlight.Float speedup);
          ])
      timings
  in
  scale_json :=
    Jsonlight.Obj
      [
        ("suite", Jsonlight.String label);
        ("scenarios", Jsonlight.Int scenarios);
        ("work", Jsonlight.Int work);
        ("path", Jsonlight.String path);
        ("reps", Jsonlight.Int reps);
        ("rounds", Jsonlight.Int rounds);
        ("cores", Jsonlight.Int (Core.Sosae.default_jobs ()));
        ("runs", Jsonlight.List rows);
      ]
    :: !scale_json;
  base /. List.assoc 2 timings

let scale () =
  header "SCALE" "Suite evaluation wall-clock vs domain-pool size (--jobs)";
  Printf.printf
    "Every scenario of a suite is an independent walkthrough. Sosae.evaluate ~jobs\n\
     fans a suite out over an OCaml 5 domain pool when its work (scenarios x\n\
     bricks) reaches Sosae.fan_out_work = %d, and walks it inline below that, at\n\
     every jobs (per-rep times, median of interleaved batches; host reports %d\n\
     recommended domain(s)).\n\n"
    Core.Sosae.fan_out_work (Core.Sosae.default_jobs ());
  Printf.printf "%-26s | %6s | %4s | %9s | %8s\n" "suite" "work" "jobs" "ms/eval" "speedup";
  Printf.printf "%s\n" (String.make 65 '-');
  let chain components =
    let scenarios = components / 8 and span = 12 in
    let label = Printf.sprintf "chain-%04d (%d scen.)" components scenarios in
    ( label,
      scale_case ~label
        ~reps:(if smoke then 2 else max 3 (16384 / components))
        (synthetic_suite ~components ~scenarios ~span) )
  in
  (* chain-192 and chain-224 bracket the constant: 24 x 192 walks
     inline, 28 x 224 fans out. The smoke run keeps chain-256 so that
     CI still runs the pool. *)
  let sizes = if smoke then [ 64; 256 ] else [ 64; 128; 192; 224; 256; 1024 ] in
  let results = List.map chain sizes in
  let smallest = List.hd results and largest = List.nth results (List.length results - 1) in
  print_endline "";
  Printf.printf "jobs=2 speedup: %.2fx on %s, %.2fx on %s\n" (snd largest) (fst largest)
    (snd smallest) (fst smallest)

(* ------------------------------------------------------------------ *)
(* SERVE: HTTP evaluation-server throughput                           *)
(* ------------------------------------------------------------------ *)

let serve_json : Jsonlight.t list ref = ref []

(* nearest-rank quantile over a sorted latency array *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

(* [clients] keep-alive connections each issue [requests] back-to-back
   requests; per-request latency is measured client-side, so the
   quantiles include the full loopback round trip. [sink] picks which
   JSON section the case lands in (the repl section reuses this
   machinery against a replica daemon). *)
let serve_case ?(headers = []) ?(expect = 200) ?(sink = serve_json) daemon
    ~label ~clients ~requests ~meth ~target ~body =
  let port = Server.Daemon.port daemon in
  let latencies = Array.make (clients * requests) 0.0 in
  let errors = Atomic.make 0 in
  let worker ci =
    let c = Server.Client.connect ~port () in
    Fun.protect
      ~finally:(fun () -> Server.Client.close c)
      (fun () ->
        for ri = 0 to requests - 1 do
          let t0 = Unix.gettimeofday () in
          (match Server.Client.request c ~headers ?body meth target with
          | Ok { Server.Client.status; _ } when status = expect -> ()
          | Ok _ | Error _ -> Atomic.incr errors);
          latencies.((ci * requests) + ri) <- Unix.gettimeofday () -. t0
        done)
  in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun ci -> Thread.create worker ci) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  Array.sort compare latencies;
  let total = clients * requests in
  let rps = float_of_int total /. wall in
  let ms q = quantile latencies q *. 1000.0 in
  Printf.printf "%-28s | %8.0f req/s | p50 %7.3f ms | p90 %7.3f | p99 %7.3f | err %d\n"
    label rps (ms 0.5) (ms 0.9) (ms 0.99) (Atomic.get errors);
  sink :=
    Jsonlight.Obj
      [
        ("case", Jsonlight.String label);
        ("clients", Jsonlight.Int clients);
        ("requests", Jsonlight.Int total);
        ("requests_per_second", Jsonlight.Float rps);
        ("p50_ms", Jsonlight.Float (ms 0.5));
        ("p90_ms", Jsonlight.Float (ms 0.9));
        ("p99_ms", Jsonlight.Float (ms 0.99));
        ("errors", Jsonlight.Int (Atomic.get errors));
      ]
    :: !sink;
  rps

let serve () =
  header "SERVE" "HTTP evaluation server (in-process daemon, loopback TCP)";
  print_endline "Requests from concurrent keep-alive clients against one PIMS session;";
  print_endline "\"evaluate\" runs the full 22-scenario suite through the warm verdict";
  print_endline "cache on every request.";
  print_endline "";
  let daemon =
    Server.Daemon.start
      ~config:
        {
          Server.Daemon.default_config with
          Server.Daemon.port = 0;
          workers = (if smoke then 2 else 8);
          queue_capacity = 256;
        }
      ()
  in
  Fun.protect
    ~finally:(fun () -> Server.Daemon.stop daemon)
    (fun () ->
      let registry = (Server.Daemon.ctx daemon).Server.Api.registry in
      (match
         Server.Registry.add registry ~id:"pims"
           {
             Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
             architecture = Casestudies.Pims.architecture;
             mapping = Casestudies.Pims.mapping;
           }
       with
      | Ok () -> ()
      | Error `Conflict -> assert false);
      (* warm the verdict cache so "evaluate" measures serving, not the
         one-time first walk *)
      (match Server.Registry.with_session registry "pims" (fun s ->
           ignore (Core.Sosae.Session.evaluate s))
       with
      | Ok () -> ()
      | Error `Not_found -> assert false);
      let clients = if smoke then 2 else 8 in
      let health_rps =
        serve_case daemon ~label:"GET /health" ~clients
          ~requests:(if smoke then 25 else 500)
          ~meth:Server.Http.GET ~target:"/health" ~body:None
      in
      let evaluate_rps =
        serve_case daemon ~label:"POST evaluate (warm cache)" ~clients
          ~requests:(if smoke then 5 else 100)
          ~meth:Server.Http.POST ~target:"/sessions/pims/evaluate"
          ~body:(Some "{}")
      in
      (* the session's current etag, for the conditional case *)
      let etag =
        let c = Server.Client.connect ~port:(Server.Daemon.port daemon) () in
        Fun.protect
          ~finally:(fun () -> Server.Client.close c)
          (fun () ->
            match Server.Client.post c "/sessions/pims/evaluate" ~body:"{}" with
            | Ok r -> List.assoc "etag" r.Server.Client.headers
            | Error m -> failwith ("etag fetch: " ^ m))
      in
      let conditional_rps =
        serve_case daemon ~label:"POST evaluate (If-None-Match)" ~clients
          ~requests:(if smoke then 25 else 500)
          ~headers:[ ("If-None-Match", etag) ]
          ~expect:304 ~meth:Server.Http.POST
          ~target:"/sessions/pims/evaluate" ~body:(Some "{}")
      in
      let batch_n = 8 in
      let batch_body =
        Printf.sprintf {|{"suites":[%s]}|}
          (String.concat "," (List.init batch_n (fun _ -> "{}")))
      in
      let batch_rps =
        serve_case daemon
          ~label:(Printf.sprintf "POST evaluate/batch (%d suites)" batch_n)
          ~clients
          ~requests:(if smoke then 5 else 50)
          ~meth:Server.Http.POST ~target:"/sessions/pims/evaluate/batch"
          ~body:(Some batch_body)
      in
      print_endline "";
      Printf.printf
        "protocol ceiling %.0f req/s; full-body warm evaluate %.0f req/s \
         (1/%.1f of /health)\n"
        health_rps evaluate_rps
        (health_rps /. Float.max 1.0 evaluate_rps);
      Printf.printf
        "ETag revalidation %.0f req/s (%s); batch %.0f req/s (~%.0f \
         evaluates/s)\n"
        conditional_rps
        (if conditional_rps *. 3.0 >= health_rps then
           "within 3x of /health: ok"
         else "below the within-3x-of-/health target!")
        batch_rps
        (batch_rps *. float_of_int batch_n))

(* ------------------------------------------------------------------ *)
(* WAL: write-ahead journal throughput                                *)
(* ------------------------------------------------------------------ *)

let wal_json : Jsonlight.t list ref = ref []

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

(* The project every create journals, plus its XML serialization —
   passed as [~source] the way the API layer hands over the request
   strings it parsed, so the bench measures the server's actual
   journaled-create path (no per-create re-serialization). *)
let wal_project =
  lazy
    (let project =
       {
         Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
         architecture = Casestudies.Pims.architecture;
         mapping = Casestudies.Pims.mapping;
       }
     in
     let source =
       ( Scenarioml.Xml_io.set_to_string project.Core.Sosae.scenarios,
         Adl.Xml_io.to_string project.Core.Sosae.architecture,
         Mapping.Xml_io.to_string project.Core.Sosae.mapping )
     in
     (project, source))

(* [creates] session creations against one registry; each create is a
   full PIMS project journaled (and fsynced per policy) before the add
   returns, exactly the acknowledged-durability path of POST
   /sessions. *)
let wal_case ~label ~creates policy =
  let project, source = Lazy.force wal_project in
  let dir = Option.map (fun _ -> temp_dir "sosae-wal") policy in
  (* compaction pinned out of reach: the case measures the journaling
     path itself, not snapshot cost (the serve bench covers that) *)
  let persist =
    match (policy, dir) with
    | Some fsync, Some dir ->
        Some (fst (Server.Persist.open_ ~fsync ~compact_bytes:max_int dir))
    | _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Server.Persist.close persist;
      Option.iter rm_rf dir)
    (fun () ->
      let registry = Server.Registry.create ?persist () in
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      for i = 0 to creates - 1 do
        match
          Server.Registry.add registry ~id:(Printf.sprintf "s%04d" i) ~source
            project
        with
        | Ok () -> ()
        | Error `Conflict -> assert false
      done;
      let wall = Unix.gettimeofday () -. t0 in
      let cps = float_of_int creates /. wall in
      let bytes, fsyncs, compactions =
        match persist with
        | None -> (0, 0, 0)
        | Some p ->
            let s = Server.Persist.stats p in
            (s.Store.Wal.bytes, s.Store.Wal.fsyncs, s.Store.Wal.compactions)
      in
      Printf.printf "%-18s | %8.0f creates/s | %9d B journaled | %4d fsyncs | %d compactions\n"
        label cps bytes fsyncs compactions;
      wal_json :=
        Jsonlight.Obj
          [
            ("case", Jsonlight.String label);
            ("creates", Jsonlight.Int creates);
            ("creates_per_second", Jsonlight.Float cps);
            ("journal_bytes", Jsonlight.Int bytes);
            ("fsyncs", Jsonlight.Int fsyncs);
            ("compactions", Jsonlight.Int compactions);
          ]
        :: !wal_json;
      cps)

(* [writers] threads share one registry, each journaling its own slice
   of [creates] session creations — the contended path POST /sessions
   takes under concurrent load. The writers stage under the mutation
   lock; under fsync=always they share fsyncs through the group-commit
   barrier. *)
let wal_concurrent_case ~label ~creates ~writers policy =
  let project, source = Lazy.force wal_project in
  let dir = temp_dir "sosae-wal" in
  (* default group config (window 0): batches form naturally from the
     writers that queue while the previous fsync is in flight — on
     this host a sleep-based accumulation window costs more than the
     fsyncs it saves (Unix.sleepf granularity exceeds the fsync) *)
  let persist =
    fst (Server.Persist.open_ ~fsync:policy ~compact_bytes:max_int dir)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.Persist.close persist;
      rm_rf dir)
    (fun () ->
      let registry = Server.Registry.create ~persist () in
      Gc.compact ();
      let t0 = Unix.gettimeofday () in
      let per_writer = creates / writers in
      let threads =
        List.init writers (fun w ->
            Thread.create
              (fun () ->
                for i = 0 to per_writer - 1 do
                  match
                    Server.Registry.add registry
                      ~id:(Printf.sprintf "w%d-s%04d" w i)
                      ~source project
                  with
                  | Ok () -> ()
                  | Error `Conflict -> assert false
                done)
              ())
      in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t0 in
      let done_ = per_writer * writers in
      let cps = float_of_int done_ /. wall in
      let s = Server.Persist.stats persist in
      let g = Server.Persist.group_stats persist in
      let saved = g.Store.Journal.Group.fsyncs_saved
      and largest = g.Store.Journal.Group.largest_batch in
      Printf.printf
        "%-26s | %8.0f creates/s | %4d fsyncs | %4d saved | largest batch %d\n"
        label cps s.Store.Wal.fsyncs saved largest;
      wal_json :=
        Jsonlight.Obj
          [
            ("case", Jsonlight.String label);
            ("creates", Jsonlight.Int done_);
            ("writers", Jsonlight.Int writers);
            ("creates_per_second", Jsonlight.Float cps);
            ("journal_bytes", Jsonlight.Int s.Store.Wal.bytes);
            ("fsyncs", Jsonlight.Int s.Store.Wal.fsyncs);
            ("fsyncs_saved", Jsonlight.Int saved);
            ("largest_batch", Jsonlight.Int largest);
            ("compactions", Jsonlight.Int s.Store.Wal.compactions);
          ]
        :: !wal_json;
      cps)

let wal () =
  header "WAL" "Durable session creation: journaled-create throughput per fsync policy";
  print_endline "Each create journals the full PIMS project (~38 KB) before returning —";
  print_endline "the same acknowledged-durability path POST /sessions takes with";
  print_endline "--data-dir. \"no-journal\" is the in-memory baseline.";
  print_endline "";
  let creates = if smoke then 5 else 200 in
  let base = wal_case ~label:"no-journal" ~creates None in
  let never = wal_case ~label:"fsync=never" ~creates (Some Store.Journal.Never) in
  let _interval =
    wal_case ~label:"fsync=interval:0.05" ~creates
      (Some (Store.Journal.Interval 0.05))
  in
  let always = wal_case ~label:"fsync=always" ~creates (Some Store.Journal.Always) in
  print_endline "";
  print_endline "8 concurrent writers (the contended path group commit batches):";
  print_endline "";
  let writers = 8 in
  let w8 = if smoke then 8 else 400 in
  (* the labels keep their "group" suffix so trend baselines line up *)
  let always_group =
    wal_concurrent_case ~label:"w8 fsync=always group" ~creates:w8 ~writers
      Store.Journal.Always
  in
  ignore
    (wal_concurrent_case ~label:"w8 fsync=never group" ~creates:w8 ~writers
       Store.Journal.Never);
  ignore
    (wal_concurrent_case ~label:"w8 fsync=interval:0.05 group" ~creates:w8
       ~writers (Store.Journal.Interval 0.05));
  print_endline "";
  Printf.printf
    "journal overhead: fsync=never costs %.1f%% of baseline throughput; each\n\
     fsync=always create pays one synchronous flush (%.2f ms at this rate).\n\
     group commit under 8 writers: %.1fx the single-writer fsync=always rate\n\
     (%.0f vs %.0f creates/s; the durability tax left is the batched fsync).\n"
    ((1.0 -. (never /. base)) *. 100.0)
    (1000.0 /. always)
    (always_group /. (if always > 0.0 then always else 1.0))
    always_group always

(* ------------------------------------------------------------------ *)
(* REPL: log-shipping replication                                     *)
(* ------------------------------------------------------------------ *)

let repl_json : Jsonlight.t list ref = ref []

(* A keep-alive handle for a loop polling a daemon's
   [GET /replication]: one try per call (the loop is the retry), and
   a reconnect whenever the daemon caps or drops the connection. *)
let repl_handle daemon =
  Server.Client.persistent (fun () ->
      Server.Client.connect ~port:(Server.Daemon.port daemon) ())

let repl_status p =
  Result.bind
    (Server.Client.call p (fun c -> Server.Client.get c "/replication"))
    Server.Client.replication

(* Poll [GET /replication] on [daemon] until the replica has applied
   at least [seq] with zero lag against its primary. *)
let repl_wait ?(timeout = 30.0) daemon ~seq =
  let p = repl_handle daemon in
  Fun.protect
    ~finally:(fun () -> Server.Client.persistent_close p)
    (fun () ->
      let deadline = Unix.gettimeofday () +. timeout in
      let rec loop () =
        match repl_status p with
        | Ok r
          when r.Server.Client.applied_seq >= seq && r.Server.Client.lag = 0L
          ->
            ()
        | _ when Unix.gettimeofday () > deadline ->
            failwith "repl bench: replica did not catch up"
        | _ ->
            Thread.delay 0.005;
            loop ()
      in
      loop ())

(* Snapshot catch-up vs full replay: the same store, tailed once
   record by record from seq 0 and once bootstrapped from the
   compacted snapshot's reset batch. The journal holds one create
   plus alternating component renames — small records, so the
   full-replay cost is exactly the per-record apply work the snapshot
   path collapses into one state install. *)
let repl_catchup () =
  let records = if smoke then 200 else 10_000 in
  print_endline "";
  Printf.printf
    "Catch-up paths over a %d-record journal (one create + renames):\n" records;
  print_endline "";
  let dir = temp_dir "sosae-repl-catchup" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let project, source = Lazy.force wal_project in
      let persist, _ =
        Server.Persist.open_ ~fsync:Store.Journal.Never ~compact_bytes:max_int
          dir
      in
      Fun.protect
        ~finally:(fun () -> Server.Persist.close persist)
        (fun () ->
          let registry = Server.Registry.create ~persist () in
          (match Server.Registry.add registry ~id:"pims" ~source project with
          | Ok () -> ()
          | Error `Conflict -> assert false);
          for i = 1 to records - 1 do
            let rename =
              if i land 1 = 1 then
                Adl.Diff.Rename_element { old_id = "loader"; new_id = "loader-b" }
              else
                Adl.Diff.Rename_element { old_id = "loader-b"; new_id = "loader" }
            in
            match Server.Registry.apply_diff registry "pims" ~ops:(fun _ -> [ rename ]) with
            | Ok _ -> ()
            | Error _ -> assert false
          done;
          let replay label =
            let replica = Server.Registry.create () in
            Gc.compact ();
            let t0 = Unix.gettimeofday () in
            let applied = ref 0L in
            let batches = ref 0 in
            let rec pump () =
              let batch = Server.Persist.ship persist ~after:!applied in
              if batch.Store.Ship.reset || batch.Store.Ship.data <> "" then begin
                batches := !batches + 1;
                (match
                   Server.Registry.apply_shipped replica
                     ~reset:batch.Store.Ship.reset batch.Store.Ship.data
                 with
                | Ok (_, last) -> if last > !applied then applied := last
                | Error e -> failwith ("repl bench: bad batch: " ^ e));
                pump ()
              end
            in
            pump ();
            let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
            (* records regained per second of catch-up: a throughput,
               so trend.exe --section repl gates it like the evaluate
               cases (slower catch-up = regression) *)
            let rps = float_of_int records /. Float.max 1e-9 (ms /. 1000.0) in
            Printf.printf "%-28s | %9.1f ms | %4d batches | frontier %Ld\n"
              label ms !batches !applied;
            repl_json :=
              Jsonlight.Obj
                [
                  ("case", Jsonlight.String label);
                  ("records", Jsonlight.Int records);
                  ("catchup_ms", Jsonlight.Float ms);
                  ("requests_per_second", Jsonlight.Float rps);
                  ("batches", Jsonlight.Int !batches);
                ]
              :: !repl_json;
            ms
          in
          let full = replay "catch-up: full replay" in
          (* compact: the journal collapses into the snapshot, so a
             fresh cursor now bootstraps from the reset batch *)
          Server.Registry.checkpoint registry;
          let snap = replay "catch-up: snapshot bootstrap" in
          Printf.printf
            "\nsnapshot bootstrap replaced a %d-record replay: %.1fx faster\n"
            records
            (full /. Float.max 0.1 snap)))

(* A primary (journaling to a temp dir) with a live replica tailing it:
   replica-side warm-evaluate throughput against the primary's, then
   ship lag while 8 writers journal creates on the primary. *)
let repl () =
  header "REPL" "Log-shipping replication (primary + replica, loopback TCP)";
  print_endline "A replica tails the primary's journal over GET /replication/log and";
  print_endline "serves evaluates from the applied copy; \"ship lag\" samples";
  print_endline "GET /replication on the replica while 8 writers create sessions";
  print_endline "on the primary.";
  print_endline "";
  let dir = temp_dir "sosae-repl" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let primary =
        Server.Daemon.start
          ~config:
            {
              Server.Daemon.default_config with
              Server.Daemon.port = 0;
              workers = (if smoke then 2 else 4);
              queue_capacity = 256;
              data_dir = Some dir;
              fsync = Store.Journal.Never;
              compact_threshold = max_int;
            }
          ()
      in
      Fun.protect
        ~finally:(fun () -> Server.Daemon.stop primary)
        (fun () ->
          let replica =
            Server.Daemon.start
              ~config:
                {
                  Server.Daemon.default_config with
                  Server.Daemon.port = 0;
                  workers = (if smoke then 2 else 8);
                  queue_capacity = 256;
                  replica_of = Some ("127.0.0.1", Server.Daemon.port primary);
                  replica_poll = 0.002;
                }
              ()
          in
          Fun.protect
            ~finally:(fun () -> Server.Daemon.stop replica)
            (fun () ->
              let project, source = Lazy.force wal_project in
              let registry = (Server.Daemon.ctx primary).Server.Api.registry in
              (match Server.Registry.add registry ~id:"pims" ~source project with
              | Ok () -> ()
              | Error `Conflict -> assert false);
              repl_wait replica ~seq:1L;
              (* warm both verdict caches so the cases measure serving *)
              List.iter
                (fun d ->
                  match
                    Server.Registry.with_session
                      (Server.Daemon.ctx d).Server.Api.registry "pims"
                      (fun s -> ignore (Core.Sosae.Session.evaluate s))
                  with
                  | Ok () -> ()
                  | Error `Not_found -> assert false)
                [ primary; replica ];
              let clients = if smoke then 2 else 8 in
              let requests = if smoke then 5 else 100 in
              let replica_rps =
                serve_case ~sink:repl_json replica
                  ~label:"replica POST evaluate (warm)" ~clients ~requests
                  ~meth:Server.Http.POST ~target:"/sessions/pims/evaluate"
                  ~body:(Some "{}")
              in
              let primary_rps =
                serve_case ~sink:repl_json primary
                  ~label:"primary POST evaluate (warm)" ~clients ~requests
                  ~meth:Server.Http.POST ~target:"/sessions/pims/evaluate"
                  ~body:(Some "{}")
              in
              (* ship lag under write load: 8 writers journal creates on
                 the primary while a sampler polls the replica's lag *)
              let writers = 8 in
              let per_writer = if smoke then 2 else 25 in
              let stop_sampling = Atomic.make false in
              let max_lag = ref 0L in
              let samples = ref [] in
              let sampler =
                Thread.create
                  (fun () ->
                    let p = repl_handle replica in
                    while not (Atomic.get stop_sampling) do
                      (match repl_status p with
                      | Ok r ->
                          let lag = r.Server.Client.lag in
                          if lag > !max_lag then max_lag := lag;
                          samples := lag :: !samples
                      | Error _ -> ());
                      Thread.delay 0.002
                    done;
                    Server.Client.persistent_close p)
                  ()
              in
              Gc.compact ();
              let t0 = Unix.gettimeofday () in
              let threads =
                List.init writers (fun w ->
                    Thread.create
                      (fun () ->
                        for i = 0 to per_writer - 1 do
                          match
                            Server.Registry.add registry
                              ~id:(Printf.sprintf "r%d-s%04d" w i)
                              ~source project
                          with
                          | Ok () -> ()
                          | Error `Conflict -> assert false
                        done)
                      ())
              in
              List.iter Thread.join threads;
              let write_wall = Unix.gettimeofday () -. t0 in
              let total = writers * per_writer in
              let cps = float_of_int total /. write_wall in
              repl_wait replica ~seq:(Int64.of_int (total + 1));
              let catchup_ms =
                (Unix.gettimeofday () -. t0 -. write_wall) *. 1000.0
              in
              Atomic.set stop_sampling true;
              Thread.join sampler;
              let mean_lag =
                match !samples with
                | [] -> 0.0
                | l ->
                    List.fold_left
                      (fun acc x -> acc +. Int64.to_float x)
                      0.0 l
                    /. float_of_int (List.length l)
              in
              Printf.printf
                "%-28s | %8.0f creates/s | max lag %Ld records | mean %.1f | \
                 caught up %.0f ms after last write\n"
                (Printf.sprintf "ship lag (%d writers)" writers)
                cps !max_lag mean_lag catchup_ms;
              repl_json :=
                Jsonlight.Obj
                  [
                    ("case", Jsonlight.String
                       (Printf.sprintf "ship lag (%d writers)" writers));
                    ("creates", Jsonlight.Int total);
                    ("creates_per_second", Jsonlight.Float cps);
                    ("max_lag_records", Jsonlight.Int (Int64.to_int !max_lag));
                    ("mean_lag_records", Jsonlight.Float mean_lag);
                    ("catchup_ms", Jsonlight.Float catchup_ms);
                    ("lag_samples", Jsonlight.Int (List.length !samples));
                  ]
                :: !repl_json;
              print_endline "";
              Printf.printf
                "replica warm evaluate %.0f req/s (%.0f%% of the primary's \
                 %.0f); shipping kept the\nreplica within %Ld record(s) of \
                 the primary under %d-writer load.\n"
                replica_rps
                (100.0 *. replica_rps /. Float.max 1.0 primary_rps)
                primary_rps !max_lag writers)));
  repl_catchup ()

(* ------------------------------------------------------------------ *)
(* SIM: Monte-Carlo dependability campaigns                           *)
(* ------------------------------------------------------------------ *)

let sim_json : Jsonlight.t list ref = ref []

let sim_case ~label ~trials campaign =
  let time_s jobs =
    (* One reusable pool per jobs count; the warm-up batch also pays
       the domain-spawn cost so the timed batches measure trial
       throughput, not pool setup. *)
    Dsim.Pool.with_pool ~jobs (fun pool ->
        ignore (Dsim.Campaign.run ~pool ~trials:(min trials 50) campaign);
        let batch () =
          Gc.compact ();
          let t0 = Unix.gettimeofday () in
          ignore (Dsim.Campaign.run ~pool ~trials campaign);
          Unix.gettimeofday () -. t0
        in
        median (List.init rounds (fun _ -> batch ())))
  in
  let jobs_list = [ 1; 2; 4; 8 ] in
  let timings = List.map (fun jobs -> (jobs, time_s jobs)) jobs_list in
  let base = List.assoc 1 timings in
  let report = Dsim.Campaign.report ~trials campaign in
  let rows =
    List.map
      (fun (jobs, s) ->
        let tps = if s > 0.0 then float_of_int trials /. s else 0.0 in
        let speedup = base /. s in
        Printf.printf "%-26s | %4d | %9.0f | %7.2fx\n" label jobs tps speedup;
        Jsonlight.Obj
          [
            ("jobs", Jsonlight.Int jobs);
            ("seconds", Jsonlight.Float s);
            ("trials_per_sec", Jsonlight.Float tps);
            ("speedup", Jsonlight.Float speedup);
          ])
      timings
  in
  sim_json :=
    Jsonlight.Obj
      [
        ("campaign", Jsonlight.String label);
        ("trials", Jsonlight.Int trials);
        ("cores", Jsonlight.Int (Core.Sosae.default_jobs ()));
        ("completion_rate", Jsonlight.Float report.Dsim.Stats.completion_rate);
        ( "completion_ci",
          Jsonlight.Obj
            [
              ("lo", Jsonlight.Float report.Dsim.Stats.completion_ci.Dsim.Stats.lo);
              ("hi", Jsonlight.Float report.Dsim.Stats.completion_ci.Dsim.Stats.hi);
            ] );
        ("mean_uptime", Jsonlight.Float report.Dsim.Stats.mean_uptime);
        ("runs", Jsonlight.List rows);
      ]
    :: !sim_json;
  base /. List.assoc 2 timings

let sim () =
  header "SIM" "Monte-Carlo campaign trials/sec vs domain-pool size (--jobs)";
  Printf.printf
    "Each trial runs one sampled fault plan (crash window + downtime, seeded\n\
     loss/jitter) through the architecture simulator; trials are independent and\n\
     fan out on a reusable Dsim.Pool (host reports %d recommended domain(s)).\n\n"
    (Core.Sosae.default_jobs ());
  Printf.printf "%-26s | %4s | %9s | %8s\n" "campaign" "jobs" "trials/s" "speedup";
  Printf.printf "%s\n" (String.make 56 '-');
  let trials = if smoke then 60 else 4000 in
  let crash =
    sim_case ~label:"crash-availability" ~trials
      (Casestudies.Campaigns.crash_availability ~loss:0.05 ())
  in
  let pims =
    sim_case ~label:"pims-price-feed" ~trials
      (Casestudies.Campaigns.pims_price_feed ~loss:0.05 ())
  in
  print_endline "";
  Printf.printf "jobs=2 speedup: %.2fx on crash-availability, %.2fx on pims-price-feed\n"
    crash pims

(* the three documents a PIMS create carries *)
let pims_xml =
  lazy
    Casestudies.Pims.
      ( Scenarioml.Xml_io.set_to_string scenario_set,
        Adl.Xml_io.to_string architecture,
        Mapping.Xml_io.to_string mapping )

(* the shape of one shipped seed-7 replica-catchup batch (1,017,720
   bytes, 95-96 records): 96 frames of ~10.6 KB *)
let walk_batch =
  lazy
    (let buf = Buffer.create (1 lsl 20) in
     for i = 1 to 96 do
       Store.Record.encode buf ~seq:(Int64.of_int i)
         (String.init 10_585 (fun j -> Char.chr ((i + j) land 0xFF)))
     done;
     Buffer.contents buf)

let bench_tests =
  let open Bechamel in
  [
    Test.make ~name:"project-of-strings-pims"
      (Staged.stage (fun () ->
           let scenarios, architecture, mapping = Lazy.force pims_xml in
           Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping));
    Test.make ~name:"validate-pims-scenarios"
      (Staged.stage (fun () -> Scenarioml.Validate.check Casestudies.Pims.scenario_set));
    Test.make ~name:"graph-build-pims"
      (Staged.stage (fun () -> Adl.Graph.of_structure Casestudies.Pims.architecture));
    Test.make ~name:"walkthrough-pims-22-scenarios"
      (Staged.stage (fun () ->
           Walkthrough.Engine.evaluate_set ~set:Casestudies.Pims.scenario_set
             ~architecture:Casestudies.Pims.architecture ~mapping:Casestudies.Pims.mapping
             ()));
    Test.make ~name:"walkthrough-one-scenario"
      (Staged.stage (fun () ->
           Walkthrough.Engine.evaluate_scenario ~set:Casestudies.Pims.scenario_set
             ~architecture:Casestudies.Pims.architecture ~mapping:Casestudies.Pims.mapping
             Casestudies.Pims.get_share_prices));
    Test.make ~name:"style-check-c2-entity"
      (Staged.stage (fun () ->
           Styles.Check.check_declared Casestudies.Crash.entity_architecture));
    Test.make ~name:"complexity-sweep"
      (Staged.stage (fun () ->
           Mapping.Complexity.sweep ~event_types:50 ~fanout:3 ~components:10
             ~reuse:[ 1; 10; 100 ]));
    Test.make ~name:"owl-export-and-closure"
      (Staged.stage (fun () ->
           Semweb.Reason.closure
             (Semweb.Export.full_export Casestudies.Crash.ontology
                Casestudies.Crash.entity_mapping)));
    Test.make ~name:"sim-availability"
      (Staged.stage (fun () -> Casestudies.Crash_sim.run_availability ~detector:true));
    Test.make ~name:"sim-ordering-8-msgs"
      (Staged.stage (fun () -> Casestudies.Crash_sim.run_ordering ~fifo:false ()));
    Test.make ~name:"sim-broadcast-7-peers"
      (Staged.stage (fun () -> Casestudies.Crash_sim.run_all_peers_broadcast ()));
    Test.make ~name:"arch-sim-entity-message"
      (Staged.stage (fun () -> Casestudies.Crash_behavior.run_message_paths ()));
    Test.make ~name:"bgp-query-crash-export"
      (Staged.stage
         (let store =
            Semweb.Export.full_export Casestudies.Crash.ontology
              Casestudies.Crash.entity_mapping
          in
          fun () ->
            Semweb.Query.select store
              [
                Semweb.Query.pattern (Semweb.Query.v "event")
                  (Semweb.Query.iri (Semweb.Term.Vocab.sosae "mapsTo"))
                  (Semweb.Query.v "component");
              ]));
    Test.make ~name:"record-walk-1mib"
      (Staged.stage (fun () -> Store.Record.walk (Lazy.force walk_batch)));
  ]
  @ scale_tests

let micro_json : Jsonlight.t list ref = ref []

let bench () =
  header "PERF" "Bechamel micro-benchmarks (one per pipeline stage)";
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  Printf.printf "%-34s | %14s | %8s\n" "benchmark" "time/run" "r^2";
  Printf.printf "%s\n" (String.make 64 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> e
            | Some _ | None -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
          in
          let human t =
            if t >= 1e9 then Printf.sprintf "%8.2f s " (t /. 1e9)
            else if t >= 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
            else if t >= 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
            else Printf.sprintf "%8.2f ns" t
          in
          Printf.printf "%-34s | %14s | %8.4f\n" name (human estimate) r2;
          micro_json :=
            Jsonlight.Obj
              [
                ("name", Jsonlight.String name);
                ("ns_per_run", Jsonlight.Float estimate);
                ("r_square", Jsonlight.Float r2);
              ]
            :: !micro_json)
        analyzed)
    bench_tests

let bench_json_file = "BENCH_walkthrough.json"

(* Machine-readable companion of the PERF/INCR/SCALE tables, for
   tooling and for EXPERIMENTS.md to cite stable numbers. Sections
   whose target did not run in this invocation are carried over from
   the existing file instead of being clobbered with empty lists. A
   smoke run's samples are no record: it leaves the file alone and
   writes only bench/results/, which the CI trend gate reads. *)
let write_bench_json () =
  let sections =
    [
      ("micro", !micro_json);
      ("incremental", !incr_json);
      ("scale", !scale_json);
      ("serve", !serve_json);
      ("wal", !wal_json);
      ("repl", !repl_json);
      ("sim", !sim_json);
    ]
  in
  if List.exists (fun (_, fresh) -> fresh <> []) sections then begin
    let existing =
      if not (Sys.file_exists bench_json_file) then []
      else begin
        let ic = open_in_bin bench_json_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        match Jsonlight.of_string s with
        | Ok (Jsonlight.Obj fields) -> fields
        | Ok _ | Error _ -> []
      end
    in
    let section (name, fresh) =
      if fresh <> [] then Some (name, Jsonlight.List (List.rev fresh))
      else Option.map (fun kept -> (name, kept)) (List.assoc_opt name existing)
    in
    let json =
      Jsonlight.Obj
        ([
           ("schema", Jsonlight.String "sosae-bench/1");
           ("sosae_version", Jsonlight.String Core.Sosae.version);
         ]
        @ List.filter_map section sections)
    in
    let write path =
      let oc = open_out path in
      output_string oc (Jsonlight.to_string json);
      output_char oc '\n';
      close_out oc
    in
    if smoke then
      Printf.printf "\nSOSAE_BENCH_SMOKE is set: %s left as it is\n" bench_json_file
    else begin
      write bench_json_file;
      Printf.printf "\nwrote %s\n" bench_json_file
    end;
    (* Trend history: every run also lands in bench/results/ as a
       timestamped file plus latest.json, which bench/trend.exe diffs
       against a previous run's latest.json (CI fails on a >20% serve
       regression). Skipped when not run from the repo root. *)
    if Sys.file_exists "bench" && Sys.is_directory "bench" then begin
      let results_dir = Filename.concat "bench" "results" in
      if not (Sys.file_exists results_dir) then Unix.mkdir results_dir 0o755;
      let tm = Unix.localtime (Unix.gettimeofday ()) in
      let stamped =
        Filename.concat results_dir
          (Printf.sprintf "%04d%02d%02d-%02d%02d%02d.json"
             (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
             tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec)
      in
      let latest = Filename.concat results_dir "latest.json" in
      write stamped;
      write latest;
      Printf.printf "wrote %s and %s\n" stamped latest
    end
  end

(* ------------------------------------------------------------------ *)
(* driver                                                             *)
(* ------------------------------------------------------------------ *)

let artifacts =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("tab1", tab1);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("crash-avail", crash_avail);
    ("crash-order", crash_order);
    ("complexity", complexity);
    ("cover", cover);
    ("entity-sim", entity_sim);
    ("faults", faults);
    ("abl-policy", ablation_policy);
    ("abl-general", ablation_generalization);
    ("abl-dynamic", ablation_dynamic);
    ("abl-infer", ablation_infer);
    ("rank", rank);
  ]

let () =
  let targets =
    match Array.to_list Sys.argv with _ :: [] | [] -> [ "all" ] | _ :: rest -> rest
  in
  List.iter
    (fun target ->
      match target with
      | "all" ->
          List.iter (fun (_, f) -> f ()) artifacts;
          bench ();
          incr ();
          scale ();
          serve ();
          wal ();
          repl ();
          sim ()
      | "bench" -> bench ()
      | "incr" -> incr ()
      | "scale" -> scale ()
      | "serve" -> serve ()
      | "wal" -> wal ()
      | "repl" -> repl ()
      | "sim" -> sim ()
      | name -> (
          match List.assoc_opt name artifacts with
          | Some f -> f ()
          | None ->
              Printf.eprintf
                "unknown target %S; known: %s, bench, incr, scale, serve, wal, repl, sim, all\n"
                name
                (String.concat ", " (List.map fst artifacts));
              exit 2))
    targets;
  write_bench_json ()

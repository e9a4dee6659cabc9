(* The stakeholder-to-architect round trip the paper's §8 envisions,
   starting from a scenario already typed against the ontology: the
   scenario as prose, requirements constraints, and the walkthrough
   verdict travelling back.

     dune exec examples/stakeholder_pipeline.exe *)

let rule title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Requirements impose communication constraints (paper 3.5). *)
let requirements_constraints =
  "# from the requirements document\n\
   connect master-controller -> remote-price-db\n\
   route loader -> data-repository via data-access\n\
   forbid remote-price-db -> data-repository\n"

let () =
  let ontology = Casestudies.Pims.ontology in
  let scenario = Casestudies.Pims.get_share_prices in
  let set =
    Scenarioml.Scen.make_set ~id:"stakeholder" ~name:"Stakeholder scenarios" ontology
      [ scenario ]
  in

  rule "1. The typed scenario, as stakeholders read it";
  print_string (Scenarioml.Text_io.to_prose ontology set scenario);

  rule "2. Requirements constraints";
  print_string requirements_constraints;
  let constraints = Styles.Constraint_lang.parse requirements_constraints in

  rule "3. Evaluate";
  let config = Walkthrough.Engine.config ~constraints () in
  let result =
    Walkthrough.Engine.evaluate_set ~config ~set ~architecture:Casestudies.Pims.architecture
      ~mapping:Casestudies.Pims.mapping ()
  in
  Format.printf "%a@." Walkthrough.Report.pp_set_result result;

  rule "4. The verdict travels back";
  let scenario_ok =
    List.for_all Walkthrough.Verdict.is_consistent result.Walkthrough.Engine.results
  in
  Printf.printf "=> scenario: %s\n"
    (if scenario_ok then "supported by the architecture" else "NOT supported");
  Printf.printf "=> requirements constraints: %s\n"
    (match result.Walkthrough.Engine.style_violations with
    | [] -> "all satisfied"
    | violations ->
        Printf.sprintf "%d violated (e.g. %s)" (List.length violations)
          (Format.asprintf "%a" Styles.Rule.pp_violation (List.hd violations)))

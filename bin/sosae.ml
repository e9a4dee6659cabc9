(* SOSAE command-line tool: validate, evaluate, tabulate, export.

   The paper's §8 describes SOSAE (Scenario and Ontology-based Software
   Architecture Evaluation) as an Eclipse plug-in under development;
   this is that tool, as a CLI. *)

open Cmdliner

let scenarios_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "s"; "scenarios" ] ~docv:"FILE" ~doc:"ScenarioML scenario-set XML file.")

let architecture_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "a"; "architecture" ] ~docv:"FILE" ~doc:"xADL-style architecture XML file.")

let mapping_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "m"; "mapping" ] ~docv:"FILE" ~doc:"Event-type-to-component mapping XML file.")

let load scenarios architecture mapping =
  Result.map_error Core.Sosae.load_error_to_string
    (Core.Sosae.load_project_result ~scenarios ~architecture ~mapping)

let or_die = function
  | Ok x -> x
  | Error msg ->
      prerr_endline ("sosae: " ^ msg);
      exit 2

(* ------------------------------ validate -------------------------- *)

let validate_cmd =
  let run scenarios architecture mapping =
    let p = or_die (load scenarios architecture mapping) in
    let v = Core.Sosae.validate p in
    Format.printf "%a@." Core.Sosae.pp_validation v;
    if v.Core.Sosae.ok then 0 else 1
  in
  let term = Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg) in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check ontology, scenarios, architecture, and mapping coverage.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ evaluate -------------------------- *)

let policy_conv =
  Arg.enum [ ("routed", Adl.Graph.Routed); ("direct", Adl.Graph.Direct) ]

let policy_arg =
  Arg.(
    value & opt policy_conv Adl.Graph.Routed
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Communication path policy between successive events: $(b,routed) or $(b,direct).")

let scenario_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"ID" ~doc:"Evaluate only the scenario with this id.")

let behavior_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "b"; "behavior" ] ~docv:"FILE"
        ~doc:
          "Statechart bundle XML ($(b,<archBehavior>)); when given, the behavioral \
           walkthrough runs after the static one.")

let load_behavior = function
  | None -> []
  | Some path -> (
      let text =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      match Statechart.Bundle.of_string text with
      | bundle -> bundle.Statechart.Bundle.charts
      | exception Statechart.Bundle.Malformed m ->
          prerr_endline ("sosae: in behavior file: " ^ m);
          exit 2)

let run_behavioral ?(quiet = false) p charts scenario =
  let r =
    Walkthrough.Dynamic.evaluate_scenario ~set:p.Core.Sosae.scenarios
      ~mapping:p.Core.Sosae.mapping ~charts scenario
  in
  if not quiet then Format.printf "%a@." Walkthrough.Dynamic.pp_result r;
  r.Walkthrough.Dynamic.ok

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Print machine-readable JSON verdicts instead of the Fig. 4-style report.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run a suite's scenario walks on $(docv) parallel domains once their work \
           (scenarios times bricks) reaches the fan-out threshold. $(b,0) (the \
           default) picks the machine's recommended domain count, $(b,1) forces the \
           sequential path. Results and their order are identical for every $(docv).")

let resolve_jobs jobs = if jobs <= 0 then Core.Sosae.default_jobs () else jobs

let evaluate_cmd =
  let run scenarios architecture mapping policy scenario_id behavior json jobs =
    let p = or_die (load scenarios architecture mapping) in
    let charts = load_behavior behavior in
    let config = Walkthrough.Engine.config ~policy () in
    match scenario_id with
    | Some id -> (
        match Core.Sosae.evaluate_scenario ~config p id with
        | Some r ->
            if json then print_endline (Walkthrough.Report.scenario_result_to_json r)
            else Format.printf "%a@." Walkthrough.Report.pp_scenario_result r;
            let behavioral_ok =
              charts = []
              ||
              match Scenarioml.Scen.find p.Core.Sosae.scenarios id with
              | Some scenario -> run_behavioral ~quiet:json p charts scenario
              | None -> true
            in
            if Walkthrough.Verdict.is_consistent r && behavioral_ok then 0 else 1
        | None ->
            prerr_endline ("sosae: unknown scenario " ^ id);
            2)
    | None ->
        let r = Core.Sosae.evaluate ~config ~jobs:(resolve_jobs jobs) p in
        if json then print_endline (Walkthrough.Report.set_result_to_json r)
        else Format.printf "%a@." Walkthrough.Report.pp_set_result r;
        let behavioral_ok =
          charts = []
          || List.for_all
               (run_behavioral ~quiet:json p charts)
               p.Core.Sosae.scenarios.Scenarioml.Scen.scenarios
        in
        if r.Walkthrough.Engine.consistent && behavioral_ok then 0 else 1
  in
  let term =
    Term.(
      const run $ scenarios_arg $ architecture_arg $ mapping_arg $ policy_arg
      $ scenario_id_arg $ behavior_arg $ json_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Walk scenarios through the architecture and report verdicts.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ session ---------------------------- *)

(* Repeated evaluation across architecture edits, the paper's §4.1
   evolution experiment as a workflow: evaluate, edit, re-evaluate —
   with unchanged verdicts served from the session cache. *)
let session_cmd =
  let run scenarios architecture mapping policy json jobs excisions then_files =
    let p = or_die (load scenarios architecture mapping) in
    let jobs = resolve_jobs jobs in
    let config = Walkthrough.Engine.config ~policy () in
    let session = Core.Sosae.Session.create ~config p in
    let print_round label result (before : Core.Sosae.Session.stats)
        (after : Core.Sosae.Session.stats) =
      if json then
        print_endline
          (Jsonlight.to_string
             (Jsonlight.Obj
                [
                  ("round", Jsonlight.String label);
                  ( "re_evaluated",
                    Jsonlight.Int (after.evaluations - before.evaluations) );
                  ( "served_from_cache",
                    Jsonlight.Int
                      (after.cache_hits - before.cache_hits
                      + (after.replay_hits - before.replay_hits)) );
                  ("result", Walkthrough.Report.json_of_set_result result);
                ]))
      else begin
        Printf.printf "-- %s --\n" label;
        List.iter
          (fun r -> print_endline ("  " ^ Walkthrough.Report.summary_line r))
          result.Walkthrough.Engine.results;
        Printf.printf "  re-evaluated %d scenario(s), served %d from cache\n"
          (after.evaluations - before.evaluations)
          (after.cache_hits - before.cache_hits + (after.replay_hits - before.replay_hits))
      end
    in
    let round label =
      let before = Core.Sosae.Session.stats session in
      let result = Core.Sosae.Session.evaluate ~jobs session in
      print_round label result before (Core.Sosae.Session.stats session);
      result
    in
    let initial = round "initial architecture" in
    let after_excisions =
      List.fold_left
        (fun _ (a, b) ->
          let current = (Core.Sosae.Session.project session).Core.Sosae.architecture in
          let ops =
            try Adl.Diff.excise_ops current a b
            with Adl.Diff.Apply_error message ->
              prerr_endline ("sosae: " ^ message);
              exit 2
          in
          Core.Sosae.Session.apply_diff session ops;
          round (Printf.sprintf "after excising %s -- %s" a b))
        initial excisions
    in
    let final =
      List.fold_left
        (fun _ file ->
          let current = (Core.Sosae.Session.project session).Core.Sosae.architecture in
          let next =
            match
              Core.Sosae.load_project_result ~scenarios ~architecture:file ~mapping
            with
            | Ok p -> p.Core.Sosae.architecture
            | Error e ->
                prerr_endline ("sosae: " ^ Core.Sosae.load_error_to_string e);
                exit 2
          in
          Core.Sosae.Session.apply_diff session (Adl.Diff.diff current next);
          round (Printf.sprintf "after evolving to %s" file))
        after_excisions then_files
    in
    if not json then
      Format.printf "session: %a@." Core.Sosae.Session.pp_stats
        (Core.Sosae.Session.stats session);
    if final.Walkthrough.Engine.consistent then 0 else 1
  in
  let excise_arg =
    let brick_pair =
      Arg.conv
        ( (fun s ->
            match String.split_on_char ',' s with
            | [ a; b ] when a <> "" && b <> "" -> Ok (a, b)
            | _ -> Error (`Msg "expected two brick ids separated by a comma")),
          fun ppf (a, b) -> Format.fprintf ppf "%s,%s" a b )
    in
    Arg.(
      value & opt_all brick_pair []
      & info [ "excise" ] ~docv:"A,B"
          ~doc:
            "Excise every link between bricks $(docv) and re-evaluate incrementally \
             (repeatable, applied in order; the paper's Fig. 4 experiment).")
  in
  let then_arg =
    Arg.(
      value & opt_all file []
      & info [ "then" ] ~docv:"ARCH.xml"
          ~doc:
            "After the excisions, diff the current architecture against $(docv), apply \
             the edit script, and re-evaluate incrementally (repeatable).")
  in
  let term =
    Term.(
      const run $ scenarios_arg $ architecture_arg $ mapping_arg $ policy_arg $ json_arg
      $ jobs_arg $ excise_arg $ then_arg)
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Evaluate, apply architecture edits, and re-evaluate incrementally: unchanged \
          verdicts are served from the session cache.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ table ----------------------------- *)

let table_cmd =
  let run scenarios architecture mapping =
    let p = or_die (load scenarios architecture mapping) in
    print_string (Mapping.Pretty.table_to_string p.Core.Sosae.mapping);
    0
  in
  let term = Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg) in
  Cmd.v
    (Cmd.info "table" ~doc:"Print the event-type/component cross table (paper Table 1).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ stats ----------------------------- *)

let stats_cmd =
  let run scenarios architecture mapping =
    let p = or_die (load scenarios architecture mapping) in
    let stats = Scenarioml.Stats.of_set p.Core.Sosae.scenarios in
    Format.printf "%a@." Scenarioml.Stats.pp stats;
    let ontology = p.Core.Sosae.scenarios.Scenarioml.Scen.ontology in
    let counts =
      Mapping.Complexity.measure p.Core.Sosae.mapping ~usage:stats.Scenarioml.Stats.usage
    in
    Format.printf
      "mapping links with ontology: %d, without: %d (reduction factor %.2f)@."
      counts.Mapping.Complexity.with_ontology counts.Mapping.Complexity.without_ontology
      counts.Mapping.Complexity.reduction;
    Format.printf "%a@." Mapping.Coverage.pp_summary
      (Mapping.Coverage.summarize ontology p.Core.Sosae.architecture p.Core.Sosae.mapping);
    0
  in
  let term = Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Scenario statistics, event-type reuse, and mapping complexity numbers.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ export-owl ------------------------ *)

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write Turtle here (default stdout).")

let export_owl_cmd =
  let run scenarios architecture mapping output =
    let p = or_die (load scenarios architecture mapping) in
    let store = Core.Sosae.export_owl p in
    let turtle = Semweb.Turtle.to_string store in
    (match output with
    | Some path ->
        let oc = open_out_bin path in
        output_string oc turtle;
        close_out oc
    | None -> print_string turtle);
    0
  in
  let term =
    Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg $ output_arg)
  in
  Cmd.v
    (Cmd.info "export-owl"
       ~doc:"Export the ontology and mapping as OWL triples in Turtle (paper §8).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ report ----------------------------- *)

let report_cmd =
  let run scenarios architecture mapping output =
    let p = or_die (load scenarios architecture mapping) in
    let buf = Buffer.create 4096 in
    let line fmt = Format.kasprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
    let set = p.Core.Sosae.scenarios in
    line "# Architecture evaluation report";
    line "";
    line "- scenario set: **%s** (%d scenarios)" set.Scenarioml.Scen.set_name
      (List.length set.Scenarioml.Scen.scenarios);
    line "- architecture: **%s**%s" p.Core.Sosae.architecture.Adl.Structure.arch_name
      (match p.Core.Sosae.architecture.Adl.Structure.style with
      | Some style -> Printf.sprintf " (style: %s)" style
      | None -> "");
    line "- mapping: **%s** (%d entries, %d links)"
      p.Core.Sosae.mapping.Mapping.Types.mapping_id
      (List.length p.Core.Sosae.mapping.Mapping.Types.entries)
      (Mapping.Types.link_count p.Core.Sosae.mapping);
    line "";
    line "## Validation";
    line "";
    line "```";
    line "%s" (Format.asprintf "%a" Core.Sosae.pp_validation (Core.Sosae.validate p));
    line "```";
    line "";
    line "## Walkthrough verdicts";
    line "";
    let result = Core.Sosae.evaluate p in
    List.iter
      (fun sr ->
        line "- %s **%s** — %s%s"
          (if Walkthrough.Verdict.is_consistent sr then "✅" else "❌")
          sr.Walkthrough.Verdict.scenario_id sr.Walkthrough.Verdict.scenario_name
          (if sr.Walkthrough.Verdict.negative then " *(negative)*" else ""))
      result.Walkthrough.Engine.results;
    line "";
    if result.Walkthrough.Engine.style_violations <> [] then begin
      line "## Style and constraint violations";
      line "";
      List.iter
        (fun v -> line "- `%s`" (Format.asprintf "%a" Styles.Rule.pp_violation v))
        result.Walkthrough.Engine.style_violations;
      line ""
    end;
    List.iter
      (fun sr ->
        if not (Walkthrough.Verdict.is_consistent sr) then begin
          line "### Detail: %s" sr.Walkthrough.Verdict.scenario_id;
          line "";
          line "```";
          line "%s" (Walkthrough.Report.scenario_result_to_string sr);
          line "```";
          line ""
        end)
      result.Walkthrough.Engine.results;
    line "## Component coverage";
    line "";
    line "```";
    line "%s"
      (Walkthrough.Coverage_report.to_string
         (Walkthrough.Coverage_report.of_set_result p.Core.Sosae.architecture result));
    line "```";
    line "";
    line "## Scenario statistics";
    line "";
    line "```";
    let stats = Scenarioml.Stats.of_set set in
    line "%s" (Format.asprintf "%a" Scenarioml.Stats.pp stats);
    let counts =
      Mapping.Complexity.measure p.Core.Sosae.mapping ~usage:stats.Scenarioml.Stats.usage
    in
    line "mapping links with ontology: %d, without: %d (reduction %.2f)"
      counts.Mapping.Complexity.with_ontology counts.Mapping.Complexity.without_ontology
      counts.Mapping.Complexity.reduction;
    line "```";
    line "";
    line "Overall: %s"
      (if result.Walkthrough.Engine.consistent then "**CONSISTENT**"
       else "**INCONSISTENT**");
    (match output with
    | Some path ->
        let oc = open_out_bin path in
        Buffer.output_buffer oc buf;
        close_out oc;
        Printf.printf "wrote %s\n" path
    | None -> print_string (Buffer.contents buf));
    if result.Walkthrough.Engine.consistent then 0 else 1
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the Markdown report here.")
  in
  let term =
    Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg $ output)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Produce a full Markdown evaluation report (validation, verdicts, coverage).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ rank ------------------------------ *)

let rank_cmd =
  let run scenarios architecture mapping top =
    let p = or_die (load scenarios architecture mapping) in
    let ranking = Scenarioml.Rank.rank p.Core.Sosae.scenarios in
    List.iteri
      (fun i sc ->
        if i < top then Format.printf "%2d. %a@." (i + 1) Scenarioml.Rank.pp_score sc)
      ranking;
    0
  in
  let top =
    Arg.(
      value & opt int max_int
      & info [ "top" ] ~docv:"N" ~doc:"Only print the first $(docv) scenarios.")
  in
  let term = Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg $ top) in
  Cmd.v
    (Cmd.info "rank"
       ~doc:"Rank scenarios by marginal event-type coverage (evaluation priority).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ implied ---------------------------- *)

let implied_cmd =
  let run scenarios architecture mapping =
    let p = or_die (load scenarios architecture mapping) in
    let candidates =
      Walkthrough.Implied.implied ~set:p.Core.Sosae.scenarios
        ~architecture:p.Core.Sosae.architecture ~mapping:p.Core.Sosae.mapping ()
    in
    Printf.printf "%d implied event-type successions (executable but never written):\n"
      (List.length candidates);
    List.iter
      (fun c -> Format.printf "  %a@." Walkthrough.Implied.pp_candidate c)
      candidates;
    0
  in
  let term = Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg) in
  Cmd.v
    (Cmd.info "implied"
       ~doc:
         "List event-type successions the architecture can execute but no scenario \
          exercises (paper 8, after Uchitel et al.).")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ coverage --------------------------- *)

let coverage_cmd =
  let run scenarios architecture mapping =
    let p = or_die (load scenarios architecture mapping) in
    let result = Core.Sosae.evaluate p in
    Format.printf "%a@."
      Walkthrough.Coverage_report.pp
      (Walkthrough.Coverage_report.of_set_result p.Core.Sosae.architecture result);
    0
  in
  let term = Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg) in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Report which components the scenario walkthroughs exercise.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ dot -------------------------------- *)

let dot_cmd =
  let run architecture_file highlight =
    match Adl.Xml_io.of_string (
        let ic = open_in_bin architecture_file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s)
    with
    | arch ->
        print_string (Adl.Dot.to_dot ~highlight arch);
        0
    | exception Adl.Xml_io.Malformed m ->
        prerr_endline ("sosae: " ^ m);
        2
  in
  let arch_pos =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"ARCH.xml" ~doc:"xADL-style architecture XML file.")
  in
  let highlight =
    Arg.(
      value & opt_all string []
      & info [ "highlight" ] ~docv:"BRICK" ~doc:"Brick id to paint red (repeatable).")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Render an architecture as Graphviz DOT on stdout.")
    Term.(const Stdlib.exit $ (const run $ arch_pos $ highlight))

(* ------------------------------ relations -------------------------- *)

let relations_cmd =
  let run scenarios architecture mapping =
    let p = or_die (load scenarios architecture mapping) in
    let relations = Scenarioml.Relate.analyze p.Core.Sosae.scenarios in
    if relations = [] then print_endline "(no relationships found)"
    else
      List.iter
        (fun r -> Format.printf "%a@." Scenarioml.Relate.pp_relation r)
        relations;
    0
  in
  let term = Term.(const run $ scenarios_arg $ architecture_arg $ mapping_arg) in
  Cmd.v
    (Cmd.info "relations"
       ~doc:
         "Report relationships between scenarios: specializations, shared event types, \
          episode uses.")
    Term.(const Stdlib.exit $ term)

(* ------------------------------ prose ----------------------------- *)

let prose_cmd =
  let run file =
    let text =
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    in
    match Scenarioml.Text_io.of_prose text with
    | scenario ->
        print_string
          (Xmlight.Print.to_string
             (Xmlight.Doc.doc (Scenarioml.Xml_io.scenario_to_element scenario)));
        0
    | exception Scenarioml.Text_io.Prose_error msg ->
        prerr_endline ("sosae: " ^ msg);
        2
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Numbered prose scenario text file.")
  in
  Cmd.v
    (Cmd.info "prose"
       ~doc:"Convert a numbered prose scenario into ScenarioML XML (simple events).")
    Term.(const Stdlib.exit $ (const run $ file))

(* ------------------------------ demo ------------------------------ *)

let demo_cmd =
  let run which =
    (match which with
    | `Pims ->
        let set = Casestudies.Pims.scenario_set in
        let project =
          {
            Core.Sosae.scenarios = set;
            architecture = Casestudies.Pims.architecture;
            mapping = Casestudies.Pims.mapping;
          }
        in
        Format.printf "%a@." Core.Sosae.pp_validation (Core.Sosae.validate project);
        let r = Core.Sosae.evaluate project in
        List.iter
          (fun sr -> print_endline (Walkthrough.Report.summary_line sr))
          r.Walkthrough.Engine.results;
        print_endline "-- after excising the Loader / Data Access link (paper Fig. 4) --";
        let broken = { project with Core.Sosae.architecture = Casestudies.Pims.broken_architecture } in
        List.iter
          (fun id ->
            match Core.Sosae.evaluate_scenario broken id with
            | Some sr -> print_endline (Walkthrough.Report.summary_line sr)
            | None -> ())
          [ "create-portfolio"; "get-share-prices" ]
    | `Crash ->
        let project =
          {
            Core.Sosae.scenarios = Casestudies.Crash.entity_scenario_set;
            architecture = Casestudies.Crash.entity_architecture;
            mapping = Casestudies.Crash.entity_mapping;
          }
        in
        let r = Core.Sosae.evaluate project in
        List.iter
          (fun sr -> print_endline (Walkthrough.Report.summary_line sr))
          r.Walkthrough.Engine.results;
        print_endline "-- dynamic availability (with / without failure detector) --";
        let a1 = Casestudies.Crash_sim.run_availability ~detector:true in
        let a2 = Casestudies.Crash_sim.run_availability ~detector:false in
        Format.printf "detector on : %a@." Dsim.Checks.pp_availability
          a1.Casestudies.Crash_sim.verdict;
        Format.printf "detector off: %a@." Dsim.Checks.pp_availability
          a2.Casestudies.Crash_sim.verdict;
        print_endline "-- dynamic ordering (FIFO / non-FIFO channels) --";
        let o1 = Casestudies.Crash_sim.run_ordering ~fifo:true () in
        let o2 = Casestudies.Crash_sim.run_ordering ~fifo:false () in
        Format.printf "fifo    : %a@." Dsim.Checks.pp_ordering o1.Casestudies.Crash_sim.verdict;
        Format.printf "non-fifo: %a@." Dsim.Checks.pp_ordering o2.Casestudies.Crash_sim.verdict;
        print_endline "-- executing a message on the entity architecture --";
        let paths = Casestudies.Crash_behavior.run_message_paths () in
        Printf.printf "outgoing: %s -> network (%b)\n"
          (String.concat " -> " paths.Casestudies.Crash_behavior.outgoing_path)
          paths.Casestudies.Crash_behavior.outgoing_reached_network;
        print_endline "-- 7-peer crisis coordination --";
        let full = Casestudies.Crash_sim.run_coordination () in
        let degraded = Casestudies.Crash_sim.run_coordination ~down:[ "police-cc" ] () in
        Printf.printf "all up     : %d/%d acknowledged\n"
          full.Casestudies.Crash_sim.acknowledged full.Casestudies.Crash_sim.peers;
        Printf.printf "police down: %d/%d acknowledged\n"
          degraded.Casestudies.Crash_sim.acknowledged degraded.Casestudies.Crash_sim.peers);
    0
  in
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("pims", `Pims); ("crash", `Crash) ])) None
      & info [] ~docv:"CASE" ~doc:"$(b,pims) or $(b,crash).")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Run a built-in case study end to end.")
    Term.(const Stdlib.exit $ (const run $ which))

(* ------------------------------ simulate -------------------------- *)

let simulate_cmd =
  let run which trials seed loss jobs json =
    let jobs = resolve_jobs jobs in
    let name, campaign =
      match which with
      | `Crash -> ("crash", Casestudies.Campaigns.crash_availability ~loss ())
      | `Pims -> ("pims", Casestudies.Campaigns.pims_price_feed ~loss ())
    in
    or_die (Dsim.Campaign.validate campaign);
    let started = Unix.gettimeofday () in
    let report = Dsim.Campaign.report ~jobs ~seed ~trials campaign in
    let elapsed = Unix.gettimeofday () -. started in
    (* Timing goes to stderr so stdout is bit-for-bit reproducible for
       a given case, seed, and trial count — whatever the job count. *)
    Printf.eprintf "%d trials in %.3fs (%.0f trials/s on %d jobs)\n%!" trials elapsed
      (if elapsed > 0.0 then float_of_int trials /. elapsed else 0.0)
      jobs;
    if json then
      print_endline
        (Jsonlight.to_string
           (Jsonlight.Obj
              [
                ("case", Jsonlight.String name);
                ("trials", Jsonlight.Int trials);
                ("seed", Jsonlight.Int seed);
                ("report", Dsim.Stats.to_json report);
              ]))
    else begin
      Printf.printf "campaign %s: %d trials, seed %d\n" name trials seed;
      Format.printf "%a@." Dsim.Stats.pp report
    end;
    0
  in
  let which =
    Arg.(
      required
      & pos 0 (some (enum [ ("pims", `Pims); ("crash", `Crash) ])) None
      & info [] ~docv:"CASE" ~doc:"$(b,crash) or $(b,pims).")
  in
  let trials =
    Arg.(
      value & opt int 200
      & info [ "trials" ] ~docv:"N" ~doc:"Number of Monte-Carlo trials.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Campaign seed. Each trial derives a splittable per-trial seed from it, so \
             results are bit-identical across runs and job counts.")
  in
  let loss =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P" ~doc:"Uniform message-loss probability in [0, 1].")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the trials on $(docv) parallel domains. $(b,1) (the default) runs \
             them on the calling domain: started from an idle 2-core host, a \
             campaign ran slower on 2 domains than on 1. $(b,0) picks the machine's \
             recommended domain count. The report is identical for every $(docv).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         "Run a Monte-Carlo dependability campaign on a built-in case study: sampled \
          fault plans (crash windows, downtimes, message loss) swept over N trials, \
          aggregated into availability / reliability / latency statistics with a \
          Wilson 95% confidence interval.")
    Term.(const Stdlib.exit $ (const run $ which $ trials $ seed $ loss $ jobs $ json_arg))

(* ------------------------------ save-demo ------------------------- *)

let save_demo_cmd =
  let run dir =
    let project =
      {
        Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
        architecture = Casestudies.Pims.architecture;
        mapping = Casestudies.Pims.mapping;
      }
    in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Core.Sosae.save_project project
      ~scenarios:(Filename.concat dir "pims-scenarios.xml")
      ~architecture:(Filename.concat dir "pims-architecture.xml")
      ~mapping:(Filename.concat dir "pims-mapping.xml");
    let oc = open_out_bin (Filename.concat dir "pims-behavior.xml") in
    output_string oc
      (Statechart.Bundle.to_string
         (Statechart.Bundle.make ~id:"pims-behavior" Casestudies.Pims_behavior.charts));
    close_out oc;
    Printf.printf "wrote pims-{scenarios,architecture,mapping,behavior}.xml to %s\n" dir;
    0
  in
  let dir =
    Arg.(value & pos 0 string "." & info [] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (Cmd.info "save-demo"
       ~doc:"Write the PIMS case study as XML files (inputs for the other commands).")
    Term.(const Stdlib.exit $ (const run $ dir))

(* ------------------------------ simtest --------------------------- *)

let simtest_cmd =
  let run seed seeds ops replay =
    match replay with
    | Some tokens -> (
        match Simtest.Gen.ops_of_string tokens with
        | Error e ->
            Printf.eprintf "simtest: %s\n" e;
            2
        | Ok sequence -> (
            match Simtest.Sim.run_ops sequence with
            | Ok () ->
                Printf.printf "replay OK (%d ops)\n" (List.length sequence);
                0
            | Error f ->
                Format.printf "%a@." Simtest.Sim.report_failure (f, sequence);
                1))
    | None ->
        let failures = ref 0 in
        for s = seed to seed + seeds - 1 do
          match Simtest.Sim.run_seed ~seed:s ~ops with
          | Ok () -> Printf.printf "seed %d: OK (%d ops)\n%!" s ops
          | Error (f, sequence) ->
              incr failures;
              Format.printf "seed %d: %a@." s Simtest.Sim.report_failure
                (f, sequence)
        done;
        if !failures = 0 then 0 else 1
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"First seed.")
  in
  let seeds =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"K" ~doc:"Number of consecutive seeds to run.")
  in
  let ops =
    Arg.(
      value & opt int 200
      & info [ "ops" ] ~docv:"M" ~doc:"Operations per generated sequence.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"OPS"
          ~doc:
            "Replay an explicit op sequence (the token list a failing run \
             prints) instead of generating one.")
  in
  Cmd.v
    (Cmd.info "simtest"
       ~doc:
         "Deterministic simulation test: run the persistence/registry/\
          replication stack on a simulated disk through seeded operation \
          sequences with injected faults (torn writes, ENOSPC, failed fsyncs, \
          crashes), checking recovery and replication invariants after every \
          operation. Failing sequences are shrunk to a minimal replayable \
          repro.")
    Term.(const Stdlib.exit $ (const run $ seed $ seeds $ ops $ replay))

(* ------------------------------ serve ----------------------------- *)

let serve_cmd =
  let parse_replica_of = function
    | None -> Ok None
    | Some spec -> (
        match String.rindex_opt spec ':' with
        | None -> Error "--replica-of expects HOST:PORT"
        | Some i -> (
            let host = String.sub spec 0 i in
            let port = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt port with
            | Some p when p > 0 && host <> "" -> Ok (Some (host, p))
            | _ -> Error "--replica-of expects HOST:PORT"))
  in
  let run port host unix_path jobs workers queue timeout idle_timeout
      max_requests data_dir fsync group_window compact_threshold replica_of =
    match Store.Journal.fsync_policy_of_string fsync with
    | Error message ->
        Printf.eprintf "sosae serve: %s\n" message;
        1
    | Ok fsync -> (
        match parse_replica_of replica_of with
        | Error message ->
            Printf.eprintf "sosae serve: %s\n" message;
            1
        | Ok replica_of ->
        if group_window < 0.0 then begin
          Printf.eprintf "sosae serve: --group-commit-window must be >= 0\n";
          1
        end
        else if compact_threshold <= 0 then begin
          Printf.eprintf "sosae serve: --compact-threshold must be positive\n";
          1
        end
        else begin
          (* the daemon's lifecycle and failure events, one line each
             on stderr; the connection threads log too, hence the lock *)
          Logs_threaded.enable ();
          Logs.set_reporter (Logs.format_reporter ());
          Logs.set_level (Some Logs.Info);
          Server.Daemon.run
            ~config:
              {
                Server.Daemon.default_config with
                Server.Daemon.port;
                host;
                unix_path;
                jobs = (if jobs <= 0 then None else Some jobs);
                workers;
                queue_capacity = queue;
                read_timeout = timeout;
                write_timeout = timeout;
                idle_timeout;
                max_requests;
                data_dir;
                fsync;
                group_window = group_window /. 1000.0;
                compact_threshold;
                replica_of;
              }
            ();
          0
        end)
  in
  let port =
    Arg.(
      value & opt int 8080
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on; $(b,0) picks an ephemeral port.")
  in
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Address to bind.")
  in
  let unix_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH"
          ~doc:"Also listen on a Unix-domain socket at $(docv).")
  in
  let jobs =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains an evaluate may walk its stale scenarios on, once their \
             work (scenarios times bricks) reaches the fan-out threshold; \
             smaller evaluates, and every $(b,simulate) campaign, run on the \
             request's thread. $(b,0) (the default) picks the machine's \
             recommended domain count, $(b,1) never spawns a domain.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Requests in progress at once; an idle connection holds none.")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Connections admitted beyond $(b,--workers); the connection after \
             $(b,--workers) + $(docv) open ones is answered $(b,429).")
  in
  let timeout =
    Arg.(
      value & opt float 10.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Per-connection read and write timeout.")
  in
  let idle_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "How long a quiescent keep-alive connection may sit between \
             requests before the server closes it.")
  in
  let max_requests =
    Arg.(
      value & opt int 1000
      & info [ "max-requests" ] ~docv:"N"
          ~doc:
            "Requests served per connection before the server closes it \
             ($(b,Connection: close) on the last response); $(b,0) means \
             unlimited.")
  in
  let data_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "data-dir" ] ~docv:"DIR"
          ~doc:
            "Durability directory: every session mutation is journaled there \
             before it is acknowledged, and the state is recovered from it on \
             the next start (surviving crashes, including a torn journal \
             tail). Without this flag the registry is purely in-memory, as \
             before.")
  in
  let fsync =
    Arg.(
      value & opt string "always"
      & info [ "fsync" ] ~docv:"POLICY"
          ~doc:
            "When journal appends reach the disk (needs $(b,--data-dir)): \
             $(b,always) fsyncs every record (survives power loss), \
             $(b,interval:SECS) fsyncs at most once per $(i,SECS) seconds \
             (and an acknowledged write is synced within about $(i,SECS)), \
             $(b,never) leaves it to the kernel (still survives a process \
             crash).")
  in
  let group_window =
    Arg.(
      value & opt float 0.0
      & info
          [ "group-commit-window" ]
          ~docv:"MS"
          ~doc:
            "Group-commit accumulation window in milliseconds (needs \
             $(b,--data-dir), matters with $(b,--fsync always)): how long the \
             batch leader waits for more concurrent writers before the shared \
             fsync. $(b,0) (the default) still batches writers that arrive \
             while an fsync is in flight — it just never delays an \
             uncontended one.")
  in
  let compact_threshold =
    Arg.(
      value
      & opt int (8 * 1024 * 1024)
      & info
          [ "compact-threshold" ]
          ~docv:"BYTES"
          ~doc:
            "Journal size past which the maintenance thread snapshots the \
             state and rotates the journal, off the request path (needs \
             $(b,--data-dir)).")
  in
  let replica_of =
    Arg.(
      value
      & opt (some string) None
      & info [ "replica-of" ] ~docv:"HOST:PORT"
          ~doc:
            "Boot as a read replica of the upstream at $(docv): continuously \
             tail its journal over $(b,GET /replication/log) — bootstrapping \
             from $(b,GET /replication/snapshot) when starting fresh — and \
             serve reads ($(b,GET)s, evaluate, diff previews) from the \
             applied copy. Mutations are rejected with $(b,421) naming the \
             upstream. $(b,SIGUSR1) promotes the replica to a primary that \
             accepts mutations. Combine with $(b,--data-dir) for a durable \
             replica: shipped batches are journaled locally, restarts resume \
             from the local frontier, the node serves the replication \
             endpoints to chained replicas (the upstream may itself be a \
             replica), and promotion yields an immediately durable primary.")
  in
  let term =
    Term.(
      const run $ port $ host $ unix_path $ jobs $ workers $ queue $ timeout
      $ idle_timeout $ max_requests $ data_dir $ fsync $ group_window
      $ compact_threshold $ replica_of)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the evaluation server: named sessions with cached verdicts over \
          HTTP (create sessions, evaluate suites, apply architecture diffs, read \
          stats and metrics). Stops cleanly on SIGTERM/SIGINT; with \
          $(b,--data-dir) the sessions survive restarts and crashes via a \
          write-ahead journal, and $(b,--replica-of HOST:PORT) boots a read \
          replica fed from such a primary.")
    Term.(const Stdlib.exit $ term)

let () =
  let info =
    Cmd.info "sosae" ~version:Core.Sosae.version
      ~doc:"Scenario and Ontology-based Software Architecture Evaluation"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            validate_cmd;
            evaluate_cmd;
            session_cmd;
            table_cmd;
            stats_cmd;
            export_owl_cmd;
            report_cmd;
            rank_cmd;
            relations_cmd;
            implied_cmd;
            coverage_cmd;
            dot_cmd;
            prose_cmd;
            demo_cmd;
            simulate_cmd;
            simtest_cmd;
            save_demo_cmd;
            serve_cmd;
          ]))

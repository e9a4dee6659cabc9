let version = "1.1.0"

type project = {
  scenarios : Scenarioml.Scen.set;
  architecture : Adl.Structure.t;
  mapping : Mapping.Types.t;
}

type validation = {
  ontology_problems : Ontology.Wellformed.problem list;
  scenario_problems : Scenarioml.Validate.problem list;
  architecture_problems : Adl.Validate.problem list;
  coverage_problems : Mapping.Coverage.problem list;
  ok : bool;
}

let validate ?require_responsibilities p =
  let ontology = p.scenarios.Scenarioml.Scen.ontology in
  let ontology_problems = Ontology.Wellformed.check ontology in
  let scenario_problems = Scenarioml.Validate.check p.scenarios in
  let architecture_problems = Adl.Validate.check ?require_responsibilities p.architecture in
  let coverage_problems = Mapping.Coverage.check ontology p.architecture p.mapping in
  {
    ontology_problems;
    scenario_problems;
    architecture_problems;
    coverage_problems;
    ok =
      ontology_problems = [] && scenario_problems = [] && architecture_problems = []
      && coverage_problems = [];
  }

(* ------------------------------------------------------------------ *)
(* Walking a batch of scenarios: inline, or fanned out on a pool      *)
(* ------------------------------------------------------------------ *)

let default_jobs () = Domain.recommended_domain_count ()

let fan_out_work = 6144

(* The one place that decides whether a batch fans out. Scenario
   walkthroughs are independent: a verdict is a pure function of
   (scenario, set, architecture, mapping, config), and the oracle only
   memoizes, it never changes answers. But spawning and joining a
   pool's domains costs more than a small batch's walks (0.1–1.7 ms of
   wall time, and ~0.7 ms of a server's CPU, on a 2-vCPU guest). Each
   hop's BFS tree spans the architecture, so the batch's work is its
   scenarios times the bricks; below [fan_out_work], or at
   [jobs <= 1], the batch walks inline with [reach ()]. Above it the
   pool hands out scenario indices, each worker walks with a private
   oracle (Reach memoizes into unsynchronized hashtables, so oracles
   are never shared across domains), and results land in a slot array
   indexed by batch position. Either way slot [i] holds the verdict
   the inline walk produces, in the same order. *)
let walk_batch ~jobs ~architecture ~reach walk scenarios =
  let n = Array.length scenarios in
  let bricks =
    List.length architecture.Adl.Structure.components
    + List.length architecture.Adl.Structure.connectors
  in
  if jobs <= 1 || n * bricks < fan_out_work then Array.map (walk (reach ())) scenarios
  else begin
    let results = Array.make n None in
    Dsim.Pool.with_pool ~jobs:(min jobs n) (fun pool ->
        Dsim.Pool.run pool ~tasks:n (fun () ->
            let reach = Adl.Reach.of_structure architecture in
            fun i -> results.(i) <- Some (walk reach scenarios.(i))));
    Array.map (function Some r -> r | None -> assert false) results
  end

let suite_results ~config ~jobs ~set ~architecture ~mapping scenarios =
  Array.to_list
    (walk_batch ~jobs ~architecture
       ~reach:(fun () -> Adl.Reach.of_structure architecture)
       (fun reach s ->
         Walkthrough.Engine.evaluate_scenario ~config ~reach ~set ~architecture ~mapping s)
       (Array.of_list scenarios))

let evaluate_suite ?(config = Walkthrough.Engine.default_config) ?jobs p scenarios =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  suite_results ~config ~jobs ~set:p.scenarios ~architecture:p.architecture
    ~mapping:p.mapping scenarios

let evaluate ?(config = Walkthrough.Engine.default_config) ?jobs p =
  let results = evaluate_suite ~config ?jobs p p.scenarios.Scenarioml.Scen.scenarios in
  let style_violations = Walkthrough.Engine.check_architecture config p.architecture in
  let coverage_problems =
    Mapping.Coverage.check p.scenarios.Scenarioml.Scen.ontology p.architecture p.mapping
  in
  {
    Walkthrough.Engine.results;
    style_violations;
    coverage_problems;
    consistent =
      List.for_all Walkthrough.Verdict.is_consistent results && style_violations = [];
  }

let evaluate_scenario ?config p id =
  Option.map
    (Walkthrough.Engine.evaluate_scenario ?config ~set:p.scenarios
       ~architecture:p.architecture ~mapping:p.mapping)
    (Scenarioml.Scen.find p.scenarios id)

let evaluate_behavioral ?config p bundle =
  List.map
    (Walkthrough.Dynamic.evaluate_scenario ?config ~set:p.scenarios ~mapping:p.mapping
       ~charts:bundle.Statechart.Bundle.charts)
    p.scenarios.Scenarioml.Scen.scenarios

let export_owl p =
  Semweb.Export.full_export p.scenarios.Scenarioml.Scen.ontology p.mapping

(* ------------------------------------------------------------------ *)
(* Evaluation sessions: cached + incremental re-evaluation            *)
(* ------------------------------------------------------------------ *)

module Session = struct
  type entry = {
    e_revision : int;
    e_result : Walkthrough.Verdict.scenario_result;
    e_queries : Adl.Reach.query list;
  }

  type stats = {
    evaluations : int;
    cache_hits : int;
    replays : int;
    replay_hits : int;
  }

  let zero_stats = { evaluations = 0; cache_hits = 0; replays = 0; replay_hits = 0 }

  (* The architecture revision is a session-local counter bumped on
     every [set_architecture]; equal revisions mean the entry was
     computed against the session's current architecture. A content
     digest would also validate entries across a no-op replacement, but
     hashing the whole structure on every edit (and comparing digests
     per scenario) dominated the incremental path on small projects —
     a replaced-then-identical architecture is rare enough to leave to
     the replay check. *)
  type t = {
    config : Walkthrough.Engine.config;
    mutable project : project;
    mutable reach : Adl.Reach.t;
    mutable revision : int;
    cache : (string, entry) Hashtbl.t;
    mutable checks :
      (int * (Styles.Rule.violation list * Mapping.Coverage.problem list)) option;
        (** style violations + coverage problems, keyed by the
            architecture revision they were computed against *)
    mutable stats : stats;
    lock : Mutex.t;
        (** taken only through {!exclusively}: session operations stay
            unsynchronized on the single-owner fast path, and shared
            sessions (the server registry) serialize explicitly *)
  }

  let create ?(config = Walkthrough.Engine.default_config) project =
    {
      config;
      project;
      reach = Adl.Reach.of_structure project.architecture;
      revision = 0;
      cache = Hashtbl.create 16;
      checks = None;
      stats = zero_stats;
      lock = Mutex.create ();
    }

  let exclusively t f = Mutex.protect t.lock f

  let project t = t.project

  let config t = t.config

  let stats t = t.stats

  let reach t = t.reach

  let revision t = t.revision

  let invalidate ?scenario t =
    match scenario with
    | Some id -> Hashtbl.remove t.cache id
    | None ->
        Hashtbl.reset t.cache;
        t.checks <- None

  (* [reach] is the oracle the walk queries — the session's own inline,
     a worker-private one on a pool. The query log (and thus the
     verdict) is the same either way. *)
  let walk_fresh t reach s =
    let record = Adl.Reach.recorder () in
    let result =
      Walkthrough.Engine.evaluate_scenario ~config:t.config ~reach ~record
        ~set:t.project.scenarios ~architecture:t.project.architecture
        ~mapping:t.project.mapping s
    in
    (result, Adl.Reach.recorded record)

  let store_fresh t s (result, queries) =
    Hashtbl.replace t.cache s.Scenarioml.Scen.scenario_id
      { e_revision = t.revision; e_result = result; e_queries = queries };
    t.stats <- { t.stats with evaluations = t.stats.evaluations + 1 };
    result

  let evaluate_fresh t s = store_fresh t s (walk_fresh t t.reach s)

  (* The verdict of a scenario is a deterministic function of the
     scenario, mapping, configuration, and the answers to the
     reachability queries the walk performs — and the query set itself
     does not depend on the architecture. So when replaying a cached
     entry's query log against the current oracle returns the recorded
     answers, the cached verdict is exactly what a fresh evaluation
     would rebuild, and is served as-is. *)
  (* First phase of [evaluate_one]: serve the verdict from cache when
     the entry is current or its query log replays unchanged; report
     [`Stale] (without evaluating) otherwise. *)
  let cached_verdict t s =
    let id = s.Scenarioml.Scen.scenario_id in
    match Hashtbl.find_opt t.cache id with
    | Some e when e.e_revision = t.revision ->
        t.stats <- { t.stats with cache_hits = t.stats.cache_hits + 1 };
        `Hit e.e_result
    | Some e ->
        t.stats <- { t.stats with replays = t.stats.replays + 1 };
        if Adl.Reach.replay t.reach e.e_queries then begin
          t.stats <- { t.stats with replay_hits = t.stats.replay_hits + 1 };
          Hashtbl.replace t.cache id { e with e_revision = t.revision };
          `Hit e.e_result
        end
        else `Stale
    | None -> `Stale

  let evaluate_one t s =
    match cached_verdict t s with `Hit r -> r | `Stale -> evaluate_fresh t s

  let evaluate_scenario t id =
    Option.map (evaluate_one t) (Scenarioml.Scen.find t.project.scenarios id)

  let architecture_checks t =
    match t.checks with
    | Some (rev, checks) when rev = t.revision -> checks
    | Some _ | None ->
        let checks =
          ( Walkthrough.Engine.check_architecture t.config t.project.architecture,
            Mapping.Coverage.check t.project.scenarios.Scenarioml.Scen.ontology
              t.project.architecture t.project.mapping )
        in
        t.checks <- Some (t.revision, checks);
        checks

  (* Cache lookups and replays run first, on the calling domain (they
     touch the session's mutable state); only the scenarios found stale
     go to [walk_batch], and their logs land back in the cache
     afterwards, in suite order. *)
  let evaluate_many t jobs scenarios =
    let classified = List.map (fun s -> (s, cached_verdict t s)) scenarios in
    let stale =
      Array.of_list
        (List.filter_map (function s, `Stale -> Some s | _, `Hit _ -> None) classified)
    in
    let fresh =
      walk_batch ~jobs ~architecture:t.project.architecture
        ~reach:(fun () -> t.reach)
        (walk_fresh t) stale
    in
    let cursor = ref 0 in
    List.map
      (fun (s, verdict) ->
        match verdict with
        | `Hit r -> r
        | `Stale ->
            let walked = fresh.(!cursor) in
            incr cursor;
            store_fresh t s walked)
      classified

  let evaluate ?jobs t =
    let jobs = match jobs with Some j -> j | None -> default_jobs () in
    let results = evaluate_many t jobs t.project.scenarios.Scenarioml.Scen.scenarios in
    let style_violations, coverage_problems = architecture_checks t in
    {
      Walkthrough.Engine.results;
      style_violations;
      coverage_problems;
      consistent =
        List.for_all Walkthrough.Verdict.is_consistent results
        && style_violations = [];
    }

  let set_architecture t architecture =
    t.project <- { t.project with architecture };
    t.reach <- Adl.Reach.of_structure architecture;
    t.revision <- t.revision + 1

  (* Pure link removal admits a shortcut stronger than replay. Removing
     links cannot create communication, so a recorded "no path" answer
     stays "no path"; and a recorded path none of whose hops crosses a
     removed anchor pair is reproduced unchanged by BFS on the pruned
     graph (pruning edges outside the path does not disturb the
     discovery of its bricks). An entry whose logged answers avoid
     every removed pair is therefore revalidated in O(log) — without
     consulting, or even building, the new oracle's trees. *)
  let removed_pairs architecture ops =
    let links = architecture.Adl.Structure.links in
    let rec collect acc = function
      | [] -> Some acc
      | Adl.Diff.Remove_link id :: rest -> (
          match
            List.find_opt (fun l -> String.equal l.Adl.Structure.link_id id) links
          with
          | Some l ->
              collect
                (( l.Adl.Structure.link_from.Adl.Structure.anchor,
                   l.Adl.Structure.link_to.Adl.Structure.anchor )
                :: acc)
                rest
          | None -> None)
      | _ :: _ -> None
    in
    collect [] ops

  let crosses_removed pairs via =
    let removed x y =
      List.exists
        (fun (a, b) ->
          (String.equal x a && String.equal y b)
          || (String.equal x b && String.equal y a))
        pairs
    in
    let rec scan = function
      | x :: (y :: _ as rest) -> removed x y || scan rest
      | _ -> false
    in
    scan via

  let entry_untouched pairs e =
    List.for_all
      (fun q ->
        match q.Adl.Reach.q_answer with
        | None -> true
        | Some via -> not (crosses_removed pairs via))
      e.e_queries

  let apply_diff t ops =
    let old_revision = t.revision in
    let pairs = removed_pairs t.project.architecture ops in
    set_architecture t (Adl.Diff.apply_all t.project.architecture ops);
    match pairs with
    | None -> ()
    | Some pairs ->
        let revalidated =
          Hashtbl.fold
            (fun id e acc ->
              if e.e_revision = old_revision && entry_untouched pairs e then
                (id, { e with e_revision = t.revision }) :: acc
              else acc)
            t.cache []
        in
        List.iter (fun (id, e) -> Hashtbl.replace t.cache id e) revalidated

  let pp_stats ppf s =
    Format.fprintf ppf
      "evaluations: %d, cache hits: %d, replays: %d (%d reused, %d re-evaluated)"
      s.evaluations s.cache_hits s.replays s.replay_hits (s.replays - s.replay_hits)
end

(* ------------------------------------------------------------------ *)
(* Loading and saving projects                                        *)
(* ------------------------------------------------------------------ *)

type artifact = Scenarios | Architecture | Mapping

type load_error =
  | Io_error of { artifact : artifact; file : string; message : string }
  | Xml_error of { artifact : artifact; file : string; message : string }
  | Schema_error of { artifact : artifact; file : string; message : string }

let artifact_name = function
  | Scenarios -> "scenario set"
  | Architecture -> "architecture"
  | Mapping -> "mapping"

let pp_load_error ppf = function
  | Io_error { artifact; file; message } ->
      Format.fprintf ppf "cannot read %s file %s: %s" (artifact_name artifact) file
        message
  | Xml_error { artifact; file; message } ->
      Format.fprintf ppf "malformed XML in %s file %s: %s" (artifact_name artifact) file
        message
  | Schema_error { artifact; file; message } ->
      Format.fprintf ppf "invalid %s in %s: %s" (artifact_name artifact) file message

let load_error_to_string e = Format.asprintf "%a" pp_load_error e

let read_file artifact file =
  match
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | s -> Ok s
  | exception Sys_error message -> Error (Io_error { artifact; file; message })

(* Parse the document twice on the failure path only: one cheap
   well-formedness pass distinguishes XML errors from schema errors. *)
let parse_artifact artifact file text of_string malformed =
  match of_string text with
  | v -> Ok v
  | exception exn -> (
      match malformed exn with
      | None -> raise exn
      | Some message -> (
          match Xmlight.Parse.parse text with
          | Error err ->
              Error
                (Xml_error
                   { artifact; file; message = Xmlight.Parse.error_to_string err })
          | Ok _ -> Error (Schema_error { artifact; file; message })))

let load_artifact artifact file of_string malformed =
  match read_file artifact file with
  | Error _ as e -> e
  | Ok text -> parse_artifact artifact file text of_string malformed

let ( let* ) = Result.bind

let scenarios_of_string = (Scenarioml.Xml_io.set_of_string, function
  | Scenarioml.Xml_io.Malformed m -> Some m
  | _ -> None)

let architecture_of_string = (Adl.Xml_io.of_string, function
  | Adl.Xml_io.Malformed m -> Some m
  | _ -> None)

let mapping_of_string = (Mapping.Xml_io.of_string, function
  | Mapping.Xml_io.Malformed m -> Some m
  | _ -> None)

let load_project_result ~scenarios ~architecture ~mapping =
  let load artifact file (of_string, malformed) =
    load_artifact artifact file of_string malformed
  in
  let* scenarios = load Scenarios scenarios scenarios_of_string in
  let* architecture = load Architecture architecture architecture_of_string in
  let* mapping = load Mapping mapping mapping_of_string in
  Ok { scenarios; architecture; mapping }

let project_of_strings ~scenarios ~architecture ~mapping =
  let parse artifact slot text (of_string, malformed) =
    parse_artifact artifact slot text of_string malformed
  in
  let* scenarios = parse Scenarios "<scenarios>" scenarios scenarios_of_string in
  let* architecture =
    parse Architecture "<architecture>" architecture architecture_of_string
  in
  let* mapping = parse Mapping "<mapping>" mapping mapping_of_string in
  Ok { scenarios; architecture; mapping }

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let save_project p ~scenarios ~architecture ~mapping =
  write_file scenarios (Scenarioml.Xml_io.set_to_string p.scenarios);
  write_file architecture (Adl.Xml_io.to_string p.architecture);
  write_file mapping (Mapping.Xml_io.to_string p.mapping)

let pp_validation ppf v =
  let section name pp problems =
    if problems <> [] then begin
      Format.fprintf ppf "%s:@," name;
      List.iter (fun p -> Format.fprintf ppf "  %a@," pp p) problems
    end
  in
  Format.fprintf ppf "@[<v>";
  section "Ontology" Ontology.Wellformed.pp_problem v.ontology_problems;
  section "Scenarios" Scenarioml.Validate.pp_problem v.scenario_problems;
  section "Architecture" Adl.Validate.pp_problem v.architecture_problems;
  section "Mapping coverage" Mapping.Coverage.pp_problem v.coverage_problems;
  Format.fprintf ppf "%s@]" (if v.ok then "all artifacts valid" else "validation problems found")

let json_of_validation v =
  let problems pp l = Jsonlight.strings (List.map (Format.asprintf "%a" pp) l) in
  Jsonlight.Obj
    [
      ("ok", Jsonlight.Bool v.ok);
      ("ontology_problems", problems Ontology.Wellformed.pp_problem v.ontology_problems);
      ("scenario_problems", problems Scenarioml.Validate.pp_problem v.scenario_problems);
      ( "architecture_problems",
        problems Adl.Validate.pp_problem v.architecture_problems );
      ("coverage_problems", problems Mapping.Coverage.pp_problem v.coverage_problems);
    ]

let validation_to_json v = Jsonlight.to_string (json_of_validation v)

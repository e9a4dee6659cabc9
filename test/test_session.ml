(* Evaluation sessions (Sosae.Session): cache hits, replay- and
   fast-path revalidation after architecture edits, and equivalence
   with evaluating from scratch. *)

module Session = Core.Sosae.Session

let pims_project () =
  {
    Core.Sosae.scenarios = Casestudies.Pims.scenario_set;
    architecture = Casestudies.Pims.architecture;
    mapping = Casestudies.Pims.mapping;
  }

let scenario_count = List.length Casestudies.Pims.scenario_set.Scenarioml.Scen.scenarios

let find_result (r : Walkthrough.Engine.set_result) id =
  List.find
    (fun s -> String.equal s.Walkthrough.Verdict.scenario_id id)
    r.Walkthrough.Engine.results

(* the Fig. 4 excision, as explicit ops against the session's current
   architecture *)
let loader_da_ops architecture =
  architecture.Adl.Structure.links
  |> List.filter (fun l ->
         let f = l.Adl.Structure.link_from.Adl.Structure.anchor
         and t = l.Adl.Structure.link_to.Adl.Structure.anchor in
         (f = "loader" && t = "data-access") || (f = "data-access" && t = "loader"))
  |> List.map (fun l -> Adl.Diff.Remove_link l.Adl.Structure.link_id)

let test_cache_hits () =
  let s = Session.create (pims_project ()) in
  let r1 = Session.evaluate s in
  Alcotest.(check bool) "initially consistent" true r1.Walkthrough.Engine.consistent;
  Alcotest.(check int) "all scenarios walked" scenario_count
    (Session.stats s).Session.evaluations;
  let r2 = Session.evaluate s in
  let st = Session.stats s in
  Alcotest.(check int) "no extra walks" scenario_count st.Session.evaluations;
  Alcotest.(check int) "all served from cache" scenario_count st.Session.cache_hits;
  Alcotest.(check bool) "second result identical" true (r1 = r2)

let test_excision_invalidates_selectively () =
  let s = Session.create (pims_project ()) in
  ignore (Session.evaluate s);
  let ops = loader_da_ops (Session.project s).Core.Sosae.architecture in
  Alcotest.(check bool) "links to excise found" true (ops <> []);
  Session.apply_diff s ops;
  let r = Session.evaluate s in
  let st = Session.stats s in
  (* a pure link removal takes the eager fast path: untouched entries
     are revalidated without replaying their query logs; only the
     scenarios whose walk crossed the excised links are replay-checked
     (and fail, since the links are gone) before re-walking *)
  let dirty = st.Session.evaluations - scenario_count in
  Alcotest.(check int) "untouched entries skip replay" 0 st.Session.replay_hits;
  Alcotest.(check int) "only touched entries replay-checked" dirty st.Session.replays;
  Alcotest.(check bool) "only the touched scenarios re-walked" true
    (dirty >= 1 && dirty < scenario_count);
  Alcotest.(check bool) "prices scenario now fails" false
    (Walkthrough.Verdict.is_consistent (find_result r "get-share-prices"));
  Alcotest.(check bool) "portfolio scenario served and consistent" true
    (Walkthrough.Verdict.is_consistent (find_result r "create-portfolio"));
  let fresh = Core.Sosae.evaluate (Session.project s) in
  Alcotest.(check bool) "equals a from-scratch evaluation" true (r = fresh)

let test_replay_revalidation () =
  let s = Session.create (pims_project ()) in
  ignore (Session.evaluate s);
  (* wholesale replacement cannot use the removal fast path: cached
     entries are revalidated by query-log replay instead *)
  Session.set_architecture s Casestudies.Pims.broken_architecture;
  let r = Session.evaluate s in
  let st = Session.stats s in
  Alcotest.(check bool) "replays ran" true (st.Session.replays > 0);
  Alcotest.(check bool) "unchanged verdicts reused via replay" true
    (st.Session.replay_hits >= 1);
  Alcotest.(check bool) "prices scenario now fails" false
    (Walkthrough.Verdict.is_consistent (find_result r "get-share-prices"));
  let fresh =
    Core.Sosae.evaluate
      { (pims_project ()) with
        Core.Sosae.architecture = Casestudies.Pims.broken_architecture
      }
  in
  Alcotest.(check bool) "equals a from-scratch evaluation" true (r = fresh)

let test_invalidate () =
  let s = Session.create (pims_project ()) in
  ignore (Session.evaluate s);
  Session.invalidate ~scenario:"create-portfolio" s;
  ignore (Session.evaluate s);
  Alcotest.(check int) "one scenario re-walked" (scenario_count + 1)
    (Session.stats s).Session.evaluations;
  Session.invalidate s;
  ignore (Session.evaluate s);
  Alcotest.(check int) "everything re-walked"
    (2 * scenario_count + 1)
    (Session.stats s).Session.evaluations

let test_evaluate_scenario () =
  let s = Session.create (pims_project ()) in
  (match Session.evaluate_scenario s "get-share-prices" with
  | Some r ->
      Alcotest.(check bool) "consistent" true (Walkthrough.Verdict.is_consistent r)
  | None -> Alcotest.fail "get-share-prices not found");
  Alcotest.(check bool) "unknown id" true (Session.evaluate_scenario s "nope" = None)

(* ---------------- equivalence under random edit sequences ---------- *)

let gen_arch_spec =
  QCheck2.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 0 2 in
    let* wiring =
      list_size (int_range 0 10) (pair (int_range 0 (n + m - 1)) (int_range 0 (n + m - 1)))
    in
    return (n, m, wiring))

let build_arch (n, m, wiring) =
  let brick i = if i < n then Printf.sprintf "c%d" i else Printf.sprintf "k%d" (i - n) in
  let base =
    List.fold_left
      (fun t i -> Adl.Build.add_component ~id:(Printf.sprintf "c%d" i) ~name:"C" t)
      (Adl.Build.create ~id:"rand" ~name:"Random" ())
      (List.init n Fun.id)
  in
  let base =
    List.fold_left
      (fun t i -> Adl.Build.add_connector ~id:(Printf.sprintf "k%d" i) ~name:"K" t)
      base (List.init m Fun.id)
  in
  List.fold_left
    (fun t (a, b) ->
      if a = b then t
      else
        match Adl.Build.biconnect t (brick a) (brick b) with
        | t -> t
        | exception Adl.Build.Duplicate _ -> t)
    base wiring

type edit = Retarget of (int * int * (int * int) list) | Drop_link of int

let gen_edit =
  QCheck2.Gen.(
    oneof
      [
        map (fun s -> Retarget s) gen_arch_spec;
        map (fun i -> Drop_link i) (int_range 0 30);
      ])

let event_types = 5

let et i = Printf.sprintf "e%d" i

(* the project: a random chain-free architecture, a tiny ontology, a
   mapping of each event type onto one base component, and 1-3 random
   scenarios over those event types *)
let build_project spec scenario_specs =
  let architecture = build_arch spec in
  let n, _, _ = spec in
  let ontology =
    List.fold_left
      (fun o i ->
        Ontology.Build.add_event_type ~id:(et i) ~name:(et i) ~template:"something happens"
          o)
      (Ontology.Build.create ~id:"rand-o" ~name:"Random")
      (List.init event_types Fun.id)
  in
  let mapping =
    List.fold_left
      (fun m i ->
        Mapping.Build.map ~event_type:(et i) ~to_:[ Printf.sprintf "c%d" (i mod n) ] m)
      (Mapping.Build.create ~id:"rand-m" ~ontology ~architecture)
      (List.init event_types Fun.id)
  in
  let scenarios =
    List.mapi
      (fun j events ->
        Scenarioml.Scen.scenario
          ~id:(Printf.sprintf "sc%d" j)
          ~name:(Printf.sprintf "Scenario %d" j)
          (List.mapi
             (fun i e ->
               Scenarioml.Event.typed
                 ~id:(Printf.sprintf "ev%d-%d" j i)
                 ~event_type:(et e) [])
             events))
      scenario_specs
  in
  let set = Scenarioml.Scen.make_set ~id:"rand-s" ~name:"Random" ontology scenarios in
  { Core.Sosae.scenarios = set; architecture; mapping }

let apply_edit session edit =
  let current = (Session.project session).Core.Sosae.architecture in
  match edit with
  | Retarget spec' -> Session.apply_diff session (Adl.Diff.diff current (build_arch spec'))
  | Drop_link i -> (
      match current.Adl.Structure.links with
      | [] -> ()
      | links ->
          let l = List.nth links (i mod List.length links) in
          Session.apply_diff session [ Adl.Diff.Remove_link l.Adl.Structure.link_id ])

(* After arbitrary interleavings of whole-architecture retargets
   (applied as Adl.Diff edit scripts, exercising replay) and single
   link removals (exercising the eager fast path), the session's
   evaluation must equal evaluating its current project from scratch. *)
let prop_session_equals_fresh =
  QCheck2.Test.make ~name:"session: evaluate after random edits = fresh evaluate"
    ~count:75
    QCheck2.Gen.(
      tup3 gen_arch_spec
        (list_size (int_range 1 3) (list_size (int_range 1 5) (int_range 0 (event_types - 1))))
        (list_size (int_range 1 4) gen_edit))
    (fun (spec, scenario_specs, edits) ->
      let project = build_project spec scenario_specs in
      let session = Session.create project in
      let agrees () =
        let p = Session.project session in
        Session.evaluate session = Core.Sosae.evaluate p
      in
      agrees ()
      && List.for_all
           (fun edit ->
             apply_edit session edit;
             agrees ())
           edits)

(* A random suite walks far below [Core.Sosae.fan_out_work], so at any
   jobs it stays inline. Repeating its scenario specs until scenarios
   times bricks reaches the threshold sends it to the domain pool. *)
let widen (n, m, _) scenario_specs =
  let per_copy = (n + m) * List.length scenario_specs in
  let copies = (Core.Sosae.fan_out_work + per_copy - 1) / per_copy in
  List.concat (List.init copies (fun _ -> scenario_specs))

(* The domain-pool evaluation paths must be observationally equal to the
   sequential ones: same results in the same order, and — for sessions —
   the same cache statistics, since only stale walks fan out. *)
let prop_parallel_equals_sequential =
  QCheck2.Test.make ~name:"evaluate on a domain pool = sequential evaluate" ~count:50
    QCheck2.Gen.(
      tup4 gen_arch_spec
        (list_size (int_range 1 4) (list_size (int_range 1 5) (int_range 0 (event_types - 1))))
        (int_range 2 5) bool)
    (fun (spec, scenario_specs, jobs, wide) ->
      let scenario_specs = if wide then widen spec scenario_specs else scenario_specs in
      let project = build_project spec scenario_specs in
      Core.Sosae.evaluate ~jobs project = Core.Sosae.evaluate ~jobs:1 project
      && Core.Sosae.evaluate_suite ~jobs project
           project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios
         = Core.Sosae.evaluate_suite ~jobs:1 project
             project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios)

let prop_session_parallel_equals_sequential =
  QCheck2.Test.make ~name:"session: parallel evaluate = sequential, stats included"
    ~count:40
    QCheck2.Gen.(
      tup5 gen_arch_spec
        (list_size (int_range 1 4) (list_size (int_range 1 5) (int_range 0 (event_types - 1))))
        gen_arch_spec (int_range 2 5) bool)
    (fun (spec, scenario_specs, spec', jobs, wide) ->
      let scenario_specs = if wide then widen spec scenario_specs else scenario_specs in
      let run jobs =
        let project = build_project spec scenario_specs in
        let session = Session.create project in
        let first = Session.evaluate ~jobs session in
        (* an edit leaves a mix of cached, replayable and stale entries *)
        Session.set_architecture session (build_arch spec');
        let second = Session.evaluate ~jobs session in
        (first, second, Session.stats session)
      in
      run jobs = run 1)

(* ---------------- rendered verdicts -------------------------------- *)

(* What POST /sessions builds when the body names no policy. *)
let routed = Walkthrough.Engine.config ~policy:Adl.Graph.Routed ()

(* A full suite as the server renders it: each verdict's bytes come
   from the session. *)
let session_bytes session result =
  let buf = Buffer.create 4096 in
  Walkthrough.Report.set_result_to_buffer
    ~scenario:(fun buf r -> Buffer.add_string buf (Session.verdict_json session r))
    buf result;
  Buffer.contents buf

(* The writer's bytes, and the session's, against the JSON tree's. *)
let renders_as_reference session (result : Walkthrough.Engine.set_result) =
  let tree = Jsonlight.to_string (Walkthrough.Report.json_of_set_result result) in
  Walkthrough.Report.set_result_to_json result = tree
  && session_bytes session result = tree
  && List.for_all
       (fun r ->
         Walkthrough.Report.scenario_result_to_json r
         = Jsonlight.to_string (Walkthrough.Report.json_of_scenario_result r))
       result.Walkthrough.Engine.results

(* Every kind of inconsistency, style violation and coverage problem,
   with strings that need escaping, empty and one-element lists, and
   negative and multi-digit indexes: the projects above produce only
   some of them. *)
let test_writer_covers_every_variant () =
  let module V = Walkthrough.Verdict in
  let violation = { Styles.Rule.rule = "c2.\"up\""; subject = "a\nb"; detail = "\001\t\\" } in
  let hop = { V.hop_from = "x"; hop_to = "y\u{e9}"; via = [ "x"; "k\""; "y" ] } in
  let step index event_type hop step_problems =
    { V.index; text = "do \"it\"\r\n"; event_type; components = []; hop; step_problems }
  in
  let problems =
    [
      V.Unmapped_event_type { step = 12; event_type = "e\\1" };
      V.Unmapped_simple_event { step = -3; event = "" };
      V.Missing_link { step = 7; from_components = [ "a" ]; to_components = [] };
      V.Constraint_violation violation;
      V.Negative_scenario_executes { scenario = "n/eg"; trace_index = 40 };
    ]
  in
  let scenario negative verdict traces inconsistencies =
    {
      V.scenario_id = "s\"1";
      scenario_name = "\xff\x00";
      negative;
      traces;
      truncated = negative;
      verdict;
      inconsistencies;
    }
  in
  let result =
    {
      Walkthrough.Engine.results =
        [
          scenario false V.Inconsistent
            [
              { V.trace_index = 0; walked = false;
                steps = [ step 1 (Some "t") None []; step 10 None (Some hop) problems ] };
              { V.trace_index = 123; walked = true; steps = [] };
            ]
            problems;
          scenario true V.Consistent [] [];
        ];
      style_violations = [ violation; { violation with rule = "" } ];
      coverage_problems =
        [
          Mapping.Coverage.Unmapped_event_type "u\"";
          Mapping.Coverage.Unknown_component { event_type = "e"; component = "c\n" };
        ];
      consistent = false;
    }
  in
  let tree = Jsonlight.to_string (Walkthrough.Report.json_of_set_result result) in
  Alcotest.(check string) "set" tree (Walkthrough.Report.set_result_to_json result);
  List.iter
    (fun r ->
      Alcotest.(check string) "scenario"
        (Jsonlight.to_string (Walkthrough.Report.json_of_scenario_result r))
        (Walkthrough.Report.scenario_result_to_json r))
    result.Walkthrough.Engine.results

(* Fig. 4's excision, as the server's sessions walk it: the first render
   after it renders the scenarios the excision re-walked and answers
   every other verdict with the bytes rendered before the edit. *)
let test_excision_renders_only_rewalked () =
  let s = Session.create ~config:routed (pims_project ()) in
  let render () =
    let result = Session.evaluate s in
    (result, List.map (Session.verdict_json s) result.Walkthrough.Engine.results)
  in
  let _, before = render () in
  Session.apply_diff s (loader_da_ops (Session.project s).Core.Sosae.architecture);
  let walked = (Session.stats s).Session.evaluations in
  let result, after = render () in
  let rewalked = (Session.stats s).Session.evaluations - walked in
  Alcotest.(check int) "re-walked" 3 rewalked;
  let fresh =
    List.filter_map
      (fun ((r : Walkthrough.Verdict.scenario_result), (b, a)) ->
        if a == b then None else Some r.Walkthrough.Verdict.scenario_id)
      (List.combine result.Walkthrough.Engine.results (List.combine before after))
  in
  Alcotest.(check int) "rendered afresh" 3 (List.length fresh);
  Alcotest.(check bool) "get-share-prices among them" true
    (List.mem "get-share-prices" fresh);
  Alcotest.(check bool) "the bytes equal the tree's" true (renders_as_reference s result);
  Alcotest.(check bool) "and are rendered once" true
    (List.for_all2 ( == ) after (snd (render ())))

(* The writer against the JSON tree, on the serve benchmark's three
   projects and on random ones, after every random edit and again warm,
   when every verdict's bytes come from the session. *)
let prop_renders_as_reference =
  QCheck2.Test.make ~name:"session: rendered verdicts = the JSON tree after random edits"
    ~count:60
    QCheck2.Gen.(
      tup4 (int_bound 3) gen_arch_spec
        (list_size (int_range 1 3) (list_size (int_range 1 5) (int_range 0 (event_types - 1))))
        (list_size (int_range 1 4) gen_edit))
    (fun (which, spec, scenario_specs, edits) ->
      let served p = (Lazy.force p).Servebench.Fixtures.project in
      let session =
        match which with
        | 0 -> Session.create ~config:routed (served Servebench.Fixtures.pims)
        | 1 -> Session.create ~config:routed (served Servebench.Fixtures.crash)
        | 2 -> Session.create ~config:routed (served Servebench.Fixtures.chain)
        | _ -> Session.create (build_project spec scenario_specs)
      in
      let renders () = renders_as_reference session (Session.evaluate session) in
      renders ()
      && List.for_all
           (fun edit ->
             apply_edit session edit;
             renders () && renders ())
           edits)

let suite =
  [
    Alcotest.test_case "pims: cache hits on repeat evaluation" `Quick test_cache_hits;
    Alcotest.test_case "pims: excision re-evaluates only touched scenarios" `Quick
      test_excision_invalidates_selectively;
    Alcotest.test_case "pims: wholesale replacement revalidates by replay" `Quick
      test_replay_revalidation;
    Alcotest.test_case "invalidate forces re-evaluation" `Quick test_invalidate;
    Alcotest.test_case "evaluate_scenario through the cache" `Quick test_evaluate_scenario;
    Alcotest.test_case "pims: excision renders only the re-walked verdicts" `Quick
      test_excision_renders_only_rewalked;
    Alcotest.test_case "the verdict writer covers every variant" `Quick
      test_writer_covers_every_variant;
    QCheck_alcotest.to_alcotest prop_session_equals_fresh;
    QCheck_alcotest.to_alcotest prop_parallel_equals_sequential;
    QCheck_alcotest.to_alcotest prop_session_parallel_equals_sequential;
    QCheck_alcotest.to_alcotest prop_renders_as_reference;
  ]

(* Tests for scenario ranking, scenario relationships, and prose I/O. *)

open Scenarioml

let ontology =
  let open Ontology.Build in
  create ~id:"o" ~name:"O"
  |> add_event_type ~id:"a" ~name:"a" ~template:"event a"
  |> add_event_type ~id:"b" ~name:"b" ~template:"event b"
  |> add_event_type ~id:"c" ~name:"c" ~template:"event c"
  |> add_event_type ~id:"a-special" ~name:"a special" ~super:"a" ~template:"special a"

let typed id event_type = Event.typed ~id ~event_type []

let scenario ?kind id events = Scen.scenario ?kind ~id ~name:id events

let set_of scenarios = Scen.make_set ~id:"s" ~name:"S" ontology scenarios

(* ------------------------------ rank ------------------------------ *)

let test_rank_greedy_coverage () =
  let wide = scenario "wide" [ typed "w1" "a"; typed "w2" "b"; typed "w3" "c" ] in
  let narrow = scenario "narrow" [ typed "n1" "a" ] in
  let other = scenario "other" [ typed "o1" "b" ] in
  let ranking = Rank.rank (set_of [ narrow; other; wide ]) in
  (match ranking with
  | first :: _ ->
      Alcotest.(check string) "widest first" "wide" first.Rank.scenario;
      Alcotest.(check int) "marginal 3" 3 first.Rank.marginal_event_types
  | [] -> Alcotest.fail "empty ranking");
  (* later scenarios add nothing new *)
  let last = List.nth ranking 2 in
  Alcotest.(check int) "no marginal coverage left" 0 last.Rank.marginal_event_types

let test_rank_negative_bonus () =
  let pos = scenario "pos" [ typed "p1" "a" ] in
  let neg = scenario ~kind:Scen.Negative "neg" [ typed "n1" "a" ] in
  match Rank.rank (set_of [ pos; neg ]) with
  | first :: _ -> Alcotest.(check string) "negative breaks the tie" "neg" first.Rank.scenario
  | [] -> Alcotest.fail "empty ranking"

let test_cover () =
  let set = set_of [ scenario "x" [ typed "x1" "a" ]; scenario "y" [ typed "y1" "b" ] ] in
  Alcotest.(check int) "cover size" 1 (List.length (Rank.cover set 1));
  Alcotest.(check int) "cover all" 2 (List.length (Rank.cover set 10))

let test_rank_pims () =
  let ranking = Rank.rank Casestudies.Pims.scenario_set in
  Alcotest.(check int) "all 22 ranked" 22 (List.length ranking);
  (* scores are non-increasing in marginal coverage order *)
  let rec nonincreasing = function
    | a :: (b :: _ as rest) ->
        a.Rank.marginal_event_types >= b.Rank.marginal_event_types && nonincreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "greedy marginal order" true (nonincreasing ranking)

(* rank invariants on random scenario sets *)

let gen_random_set =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    flatten_l
      (List.init n (fun i ->
           let* events = list_size (int_range 0 4) (oneofl [ "a"; "b"; "c" ]) in
           let* negative = bool in
           return (i, events, negative))))

let build_random_set specs =
  set_of
    (List.map
       (fun (i, events, negative) ->
         Scen.scenario
           ~kind:(if negative then Scen.Negative else Scen.Positive)
           ~id:(Printf.sprintf "s%d" i)
           ~name:(Printf.sprintf "s%d" i)
           (List.mapi
              (fun j et -> typed (Printf.sprintf "s%d-e%d" i j) et)
              events))
       specs)

let prop_rank_is_permutation =
  QCheck2.Test.make ~name:"ranking is a permutation of the scenario ids" ~count:100
    gen_random_set (fun specs ->
      let set = build_random_set specs in
      let ranked =
        List.sort String.compare (List.map (fun r -> r.Rank.scenario) (Rank.rank set))
      in
      let ids =
        List.sort String.compare
          (List.map (fun s -> s.Scen.scenario_id) set.Scen.scenarios)
      in
      ranked = ids)

let prop_specializes_reflexive =
  QCheck2.Test.make ~name:"specialization is reflexive on traceful scenarios" ~count:50
    gen_random_set (fun specs ->
      let set = build_random_set specs in
      List.for_all
        (fun s -> Relate.specializes set ~sub:s ~super:s)
        set.Scen.scenarios)

(* ------------------------------ relate ---------------------------- *)

let test_specializes () =
  let general = scenario "general" [ typed "g1" "a"; typed "g2" "b" ] in
  let special = scenario "special" [ typed "s1" "a-special"; typed "s2" "b" ] in
  let unrelated = scenario "unrelated" [ typed "u1" "c" ] in
  let set = set_of [ general; special; unrelated ] in
  Alcotest.(check bool) "specializes" true
    (Relate.specializes set ~sub:special ~super:general);
  Alcotest.(check bool) "not the other way" false
    (Relate.specializes set ~sub:general ~super:special);
  Alcotest.(check bool) "unrelated" false
    (Relate.specializes set ~sub:unrelated ~super:general)

let test_specializes_with_alternation () =
  (* every branch of the sub must match some trace of the super *)
  let general =
    scenario "general"
      [
        Event.Alternation
          { id = "ga"; branches = [ [ typed "g1" "a" ]; [ typed "g2" "b" ] ] };
      ]
  in
  let special = scenario "special" [ typed "s1" "a-special" ] in
  let set = set_of [ general; special ] in
  Alcotest.(check bool) "matches one branch" true
    (Relate.specializes set ~sub:special ~super:general)

let test_shared_and_episodes () =
  let base = scenario "base" [ typed "b1" "a" ] in
  let user =
    scenario "user" [ typed "u1" "b"; Event.Episode { id = "ep"; scenario = "base" } ]
  in
  Alcotest.(check (list string)) "shared" [ "a" ]
    (Relate.shared_event_types base (scenario "z" [ typed "z1" "a"; typed "z2" "c" ]));
  let relations = Relate.analyze (set_of [ base; user ]) in
  Alcotest.(check bool) "episode relation" true
    (List.exists
       (function
         | Relate.Uses_episode { scenario = "user"; episode = "base" } -> true
         | _ -> false)
       relations)

let test_analyze_reports_each_pair_once () =
  let x = scenario "x" [ typed "x1" "a" ] in
  let y = scenario "y" [ typed "y1" "a" ] in
  let shares =
    List.filter
      (function Relate.Shares _ -> true | _ -> false)
      (Relate.analyze (set_of [ x; y ]))
  in
  Alcotest.(check int) "one sharing entry" 1 (List.length shares)

(* ------------------------------ prose ----------------------------- *)

let paper_prose =
  {|Scenario: Create portfolio
(1) User initiates the "create portfolio" functionality.
(2) System asks the user for the portfolio name.
(3) User enters the portfolio name.
(4) An empty portfolio is created.|}

let test_of_prose () =
  let s = Text_io.of_prose paper_prose in
  Alcotest.(check string) "name" "Create portfolio" s.Scen.scenario_name;
  Alcotest.(check string) "slug id" "create-portfolio" s.Scen.scenario_id;
  Alcotest.(check int) "four events" 4 (List.length s.Scen.events);
  match s.Scen.events with
  | Event.Simple { text; _ } :: _ ->
      Alcotest.(check string) "first event text"
        "User initiates the \"create portfolio\" functionality." text
  | _ -> Alcotest.fail "expected simple events"

let test_of_prose_formats () =
  let s =
    Text_io.of_prose
      "Negative scenario: Bad access\n1. An outsider connects.\n2) The outsider reads\n   confidential data.\n(2.a.1) The outsider is logged."
  in
  Alcotest.(check bool) "negative" true (Scen.is_negative s);
  Alcotest.(check int) "three events (continuation merged)" 3 (List.length s.Scen.events);
  (match List.nth s.Scen.events 1 with
  | Event.Simple { text; _ } ->
      Alcotest.(check string) "continuation merged"
        "The outsider reads confidential data." text
  | _ -> Alcotest.fail "expected simple");
  Alcotest.(check bool) "no events is an error" true
    (match Text_io.of_prose "just some text\nwithout numbering" with
    | exception Text_io.Prose_error _ -> true
    | _ -> false)

let test_to_prose_roundtrip_text () =
  let set = Casestudies.Pims.scenario_set in
  let prose =
    Text_io.to_prose Casestudies.Pims.ontology set Casestudies.Pims.create_portfolio
  in
  Testutil.check_contains "header" prose "Scenario: Create portfolio";
  Testutil.check_contains "numbered" prose "(1) The user initiates";
  (* prose parses back with the same number of events *)
  let back = Text_io.of_prose prose in
  Alcotest.(check int) "same event count as the first trace" 4
    (List.length back.Scen.events)

let suite =
  [
    Alcotest.test_case "rank: greedy coverage" `Quick test_rank_greedy_coverage;
    Alcotest.test_case "rank: negative bonus" `Quick test_rank_negative_bonus;
    Alcotest.test_case "rank: cover" `Quick test_cover;
    Alcotest.test_case "rank: PIMS" `Quick test_rank_pims;
    Alcotest.test_case "relate: specialization" `Quick test_specializes;
    Alcotest.test_case "relate: specialization with alternation" `Quick
      test_specializes_with_alternation;
    Alcotest.test_case "relate: sharing and episodes" `Quick test_shared_and_episodes;
    Alcotest.test_case "relate: pairs reported once" `Quick
      test_analyze_reports_each_pair_once;
    Alcotest.test_case "prose: parse the paper's format" `Quick test_of_prose;
    Alcotest.test_case "prose: formats, negatives, continuations" `Quick
      test_of_prose_formats;
    Alcotest.test_case "prose: render and reparse" `Quick test_to_prose_roundtrip_text;
    QCheck_alcotest.to_alcotest prop_rank_is_permutation;
    QCheck_alcotest.to_alcotest prop_specializes_reflexive;
  ]

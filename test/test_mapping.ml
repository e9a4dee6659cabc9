(* Tests for the event-type-to-component mapping: construction,
   coverage, the complexity model, and XML. *)

let ontology =
  let open Ontology.Build in
  create ~id:"o" ~name:"O"
  |> add_class ~id:"thing" ~name:"Thing"
  |> add_event_type ~id:"base" ~name:"base" ~template:"base"
  |> add_event_type ~id:"sub" ~name:"sub" ~super:"base" ~template:"sub"
  |> add_event_type ~id:"other" ~name:"other" ~template:"other"

let architecture =
  let open Adl.Build in
  create ~id:"a" ~name:"A" ()
  |> add_component ~id:"c1" ~name:"C1" ~responsibilities:[ "r" ]
  |> add_component ~id:"c2" ~name:"C2" ~responsibilities:[ "r" ]
  |> add_component ~id:"c3" ~name:"C3" ~responsibilities:[ "r" ]
  |> fun t ->
  biconnect t "c1" "c2" |> fun t -> biconnect t "c2" "c3"

let mapping =
  let open Mapping.Build in
  create ~id:"m" ~ontology ~architecture
  |> map ~event_type:"base" ~to_:[ "c1"; "c2" ] ~rationale:"why"
  |> map ~event_type:"other" ~to_:[ "c3" ]

let test_accessors () =
  Alcotest.(check (list string)) "components" [ "c1"; "c2" ]
    (Mapping.Types.components_of mapping "base");
  Alcotest.(check (list string)) "unmapped" [] (Mapping.Types.components_of mapping "sub");
  Alcotest.(check (list string)) "mapped components" [ "c1"; "c2"; "c3" ]
    (Mapping.Types.mapped_components mapping);
  Alcotest.(check int) "links" 3 (Mapping.Types.link_count mapping)

let test_build () =
  Alcotest.check_raises "duplicate entry" (Mapping.Build.Duplicate "base") (fun () ->
      ignore (Mapping.Build.map ~event_type:"base" ~to_:[ "c3" ] mapping));
  let extended = Mapping.Build.extend ~event_type:"base" ~to_:[ "c3"; "c1" ] mapping in
  Alcotest.(check (list string)) "extended, deduplicated" [ "c1"; "c2"; "c3" ]
    (Mapping.Types.components_of extended "base");
  let fresh = Mapping.Build.extend ~event_type:"sub" ~to_:[ "c1" ] mapping in
  Alcotest.(check (list string)) "extend creates" [ "c1" ]
    (Mapping.Types.components_of fresh "sub")

let test_coverage_clean () =
  (* sub inherits base's mapping (paper 5), so coverage is total *)
  Alcotest.(check (list string)) "no problems" []
    (List.map Mapping.Coverage.problem_to_string
       (Mapping.Coverage.check ontology architecture mapping))

let test_coverage_problems () =
  let has m predicate = List.exists predicate (Mapping.Coverage.check ontology architecture m) in
  let empty = Mapping.Build.create ~id:"e" ~ontology ~architecture in
  Alcotest.(check bool) "unmapped event type" true
    (has empty (function Mapping.Coverage.Unmapped_event_type _ -> true | _ -> false));
  Alcotest.(check bool) "unmapped component" true
    (has empty (function Mapping.Coverage.Unmapped_component _ -> true | _ -> false));
  let ghost_et = Mapping.Build.map ~event_type:"ghost" ~to_:[ "c1" ] mapping in
  Alcotest.(check bool) "unknown event type" true
    (has ghost_et (function Mapping.Coverage.Unknown_event_type _ -> true | _ -> false));
  let ghost_c = Mapping.Build.map ~event_type:"sub" ~to_:[ "nowhere" ] mapping in
  Alcotest.(check bool) "unknown component" true
    (has ghost_c (function Mapping.Coverage.Unknown_component _ -> true | _ -> false));
  let hollow = Mapping.Build.map ~event_type:"sub" ~to_:[] mapping in
  Alcotest.(check bool) "entry without components" true
    (has hollow (function
      | Mapping.Coverage.Entry_without_components _ -> true
      | _ -> false))

let test_coverage_summary () =
  let s = Mapping.Coverage.summarize ontology architecture mapping in
  Alcotest.(check int) "event types mapped" 2 s.Mapping.Coverage.event_types_mapped;
  Alcotest.(check int) "event types total" 3 s.Mapping.Coverage.event_types_total;
  Alcotest.(check int) "components mapped" 3 s.Mapping.Coverage.components_mapped;
  Alcotest.(check int) "links" 3 s.Mapping.Coverage.links;
  Alcotest.(check (float 0.001)) "avg per event type" 1.5
    s.Mapping.Coverage.avg_components_per_event_type

let test_complexity_measure () =
  (* base occurs 4 times (2 components), other occurs 2 times (1). *)
  let usage = [ ("base", 4); ("other", 2) ] in
  let counts = Mapping.Complexity.measure mapping ~usage in
  Alcotest.(check int) "occurrences" 6 counts.Mapping.Complexity.occurrences;
  Alcotest.(check int) "definition links" 3 counts.Mapping.Complexity.definition_links;
  Alcotest.(check int) "with ontology" 9 counts.Mapping.Complexity.with_ontology;
  Alcotest.(check int) "without ontology" 10 counts.Mapping.Complexity.without_ontology;
  Alcotest.(check (float 0.001)) "reduction" (10.0 /. 9.0) counts.Mapping.Complexity.reduction

let test_complexity_sweep () =
  let sweep =
    Mapping.Complexity.sweep ~event_types:10 ~fanout:3 ~components:5 ~reuse:[ 1; 5; 20 ]
  in
  Alcotest.(check int) "three points" 3 (List.length sweep);
  (* the reduction factor grows monotonically with reuse *)
  let reductions = List.map (fun (_, c) -> c.Mapping.Complexity.reduction) sweep in
  (match reductions with
  | [ r1; r5; r20 ] ->
      Alcotest.(check bool) "monotone" true (r1 < r5 && r5 < r20);
      Alcotest.(check bool) "approaches fanout" true (r20 > 2.0 && r20 < 3.0)
  | _ -> Alcotest.fail "unexpected sweep shape");
  (* at reuse=1 with fanout f > 1 the ontology already wins or ties *)
  let _, c1 = List.hd sweep in
  Alcotest.(check bool) "reuse 1" true
    (c1.Mapping.Complexity.without_ontology >= c1.Mapping.Complexity.definition_links)

(* An architecture edit leaves the mapping as it stands; coverage is what
   traces the edit back to the entries it strands (paper §7). *)
let problems_after op =
  List.map Mapping.Coverage.problem_to_string
    (Mapping.Coverage.check ontology (Adl.Diff.apply architecture op) mapping)

let test_stale_after_removal () =
  Alcotest.(check (list string)) "entry left pointing at the removed component"
    [ {|event type "other" maps to unknown component "c3"|} ]
    (problems_after (Adl.Diff.Remove_component "c3"))

let test_stale_after_rename () =
  Alcotest.(check (list string)) "old id dangles, new id unmapped"
    [
      {|component "store" is mapped to by no event type|};
      {|event type "other" maps to unknown component "c3"|};
    ]
    (problems_after (Adl.Diff.Rename_element { old_id = "c3"; new_id = "store" }))

let test_xml_roundtrip () =
  let xml = Mapping.Xml_io.to_string mapping in
  Alcotest.(check bool) "identical" true (Mapping.Xml_io.of_string xml = mapping);
  Alcotest.(check bool) "wrong root rejected" true
    (match Mapping.Xml_io.of_string "<x id=\"a\" ontology=\"o\" architecture=\"a\"/>" with
    | exception Mapping.Xml_io.Malformed _ -> true
    | _ -> false)

let test_pretty_table () =
  let table =
    Mapping.Pretty.table_to_string
      ~event_type_label:(fun id -> "ET:" ^ id)
      ~component_label:(fun id -> "C:" ^ id)
      mapping
  in
  Testutil.check_contains "row label" table "ET:base";
  Testutil.check_contains "column label" table "C:c2";
  Testutil.check_contains "marks" table "X";
  Testutil.check_contains "plain pp" (Mapping.Pretty.to_string mapping) "base -> c1, c2"

(* --- property: measured reduction never falls below 1 when every
   occurrence count >= 1 and fanout >= 1 --- *)

let prop_reduction_bounds =
  QCheck2.Test.make ~name:"with-ontology links never exceed per-occurrence links + slack"
    ~count:100
    QCheck2.Gen.(tup3 (int_range 1 30) (int_range 1 5) (int_range 1 20))
    (fun (event_types, fanout, reuse) ->
      let m =
        Mapping.Complexity.synthetic_mapping ~event_types ~fanout
          ~components:(max fanout 3)
      in
      let usage = Mapping.Complexity.synthetic_usage ~event_types ~occurrences_per_type:reuse in
      let c = Mapping.Complexity.measure m ~usage in
      (* with-ontology cost: n occurrences + ET*fanout definitions;
         without: n*fanout. The identity must hold exactly. *)
      c.Mapping.Complexity.with_ontology
      = c.Mapping.Complexity.occurrences + (event_types * fanout)
      && c.Mapping.Complexity.without_ontology = event_types * reuse * fanout)

let suite =
  [
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "build operations" `Quick test_build;
    Alcotest.test_case "coverage: clean with inheritance" `Quick test_coverage_clean;
    Alcotest.test_case "coverage: each problem detected" `Quick test_coverage_problems;
    Alcotest.test_case "coverage summary" `Quick test_coverage_summary;
    Alcotest.test_case "complexity: measured counts" `Quick test_complexity_measure;
    Alcotest.test_case "complexity: reuse sweep monotone" `Quick test_complexity_sweep;
    Alcotest.test_case "coverage: component removal strands its entry" `Quick
      test_stale_after_removal;
    Alcotest.test_case "coverage: component rename strands its entry" `Quick
      test_stale_after_rename;
    Alcotest.test_case "XML round trip" `Quick test_xml_roundtrip;
    Alcotest.test_case "cross table (Table 1 shape)" `Quick test_pretty_table;
    QCheck_alcotest.to_alcotest prop_reduction_bounds;
  ]

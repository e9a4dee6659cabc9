(* The projects the benchmark serves, their wire encodings, and the
   in-process oracle every response is checked against. *)

let json_string s = Jsonlight.to_string (Jsonlight.String s)

(* What [POST /sessions] builds when the body names no policy. *)
let routed = Walkthrough.Engine.config ~policy:Adl.Graph.Routed ()

type project = {
  scenarios_xml : string;
  architecture_xml : string;
  mapping_xml : string;
  project : Core.Sosae.project;
      (** parsed back from the XML, exactly as the server sees it *)
  pairs : (string * string) array;
      (** element pairs with links between them, for [excise] *)
  price_feed : bool;  (** the PIMS price-feed campaign applies *)
}

(* A chain of [components], walked by [scenarios] scenarios that each
   touch a contiguous segment of [span] components. *)
let chain_artifacts ~components ~scenarios ~span =
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
          Adl.Build.add_component ~id:(name i) ~name:(name i)
            ~responsibilities:[ "r" ] t)
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
    let start =
      if scenarios = 1 then 0 else k * (components - span) / (scenarios - 1)
    in
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

let link_pairs (a : Adl.Structure.t) =
  List.fold_left
    (fun acc (l : Adl.Structure.link) ->
      let p = (l.Adl.Structure.link_from.Adl.Structure.anchor, l.link_to.anchor) in
      let q = (snd p, fst p) in
      if List.mem p acc || List.mem q acc then acc else acc @ [ p ])
    [] a.Adl.Structure.links

(* Three pairs spread over the link list; [first] goes in front. *)
let spread_pairs ?first architecture =
  let all = Array.of_list (link_pairs architecture) in
  let n = Array.length all in
  let picked = List.map (fun k -> all.(k * n / 4)) [ 1; 2; 3 ] in
  let picked = List.sort_uniq compare picked in
  Array.of_list
    (match first with
    | Some p -> p :: List.filter (fun q -> q <> p && q <> (snd p, fst p)) picked
    | None -> picked)

let make ~key ?first ~price_feed (set, architecture, mapping) =
  let scenarios_xml = Scenarioml.Xml_io.set_to_string set
  and architecture_xml = Adl.Xml_io.to_string architecture
  and mapping_xml = Mapping.Xml_io.to_string mapping in
  match
    Core.Sosae.project_of_strings ~scenarios:scenarios_xml
      ~architecture:architecture_xml ~mapping:mapping_xml
  with
  | Error e -> failwith (key ^ ": " ^ Core.Sosae.load_error_to_string e)
  | Ok project ->
      {
        scenarios_xml;
        architecture_xml;
        mapping_xml;
        project;
        pairs = spread_pairs ?first project.Core.Sosae.architecture;
        price_feed;
      }

(* Fig. 4's excision: the links between the Loader and Data Access. *)
let fig4_pair = ("loader", "data-access")

let pims =
  lazy
    (make ~key:"pims" ~first:fig4_pair ~price_feed:true
       ( Casestudies.Pims.scenario_set,
         Casestudies.Pims.architecture,
         Casestudies.Pims.mapping ))

let crash =
  lazy
    (make ~key:"crash" ~price_feed:false
       ( Casestudies.Crash.entity_scenario_set,
         Casestudies.Crash.entity_architecture,
         Casestudies.Crash.entity_mapping ))

let chain =
  lazy
    (make ~key:"chain" ~price_feed:false
       (chain_artifacts ~components:48 ~scenarios:16 ~span:8))

let scenario_count p =
  List.length p.project.Core.Sosae.scenarios.Scenarioml.Scen.scenarios

(* ------------------------------------------------------------------ *)
(* Request bodies                                                     *)
(* ------------------------------------------------------------------ *)

(* [POST /sessions] with the artifacts inline; the id goes in front so
   the rest of the ~40 KB body is built once per project. *)
let create_tail p =
  Printf.sprintf {|","scenarios":%s,"architecture":%s,"mapping":%s}|}
    (json_string p.scenarios_xml)
    (json_string p.architecture_xml)
    (json_string p.mapping_xml)

let create_body ~tail id = {|{"id":"|} ^ id ^ tail

let excise_body (a, b) =
  Printf.sprintf {|{"ops":[{"op":"excise","from":%s,"to":%s}]}|} (json_string a)
    (json_string b)

let behavior_xml =
  lazy
    (Statechart.Bundle.to_string
       (Statechart.Bundle.make ~id:"price-feed"
          Casestudies.Campaigns.price_feed_charts))

(* The PIMS price-feed preset (Casestudies.Campaigns.pims_price_feed)
   spelled out as a [simulate] body. *)
let simulate_body ~trials ~seed =
  Printf.sprintf
    {|{"behavior":%s,"stimuli":[{"component":"master-controller","trigger":"user-initiates"}],"goal":{"component":"remote-price-db","payload":"fetch-prices"},"faults":[{"kind":"crash","node":"remote-price-db","at":{"lo":0,"hi":3},"downtime":{"lo":1,"hi":5}}],"trials":%d,"seed":%d,"horizon":10,"jitter":0.25}|}
    (json_string (Lazy.force behavior_xml))
    trials seed

(* ------------------------------------------------------------------ *)
(* Oracle                                                             *)
(* ------------------------------------------------------------------ *)

(* The Remove_link ops [excise] expands to, in link-list order — what
   the API computes from the session's current architecture. *)
let excise_ops (a : Adl.Structure.t) (x, y) =
  List.filter_map
    (fun (l : Adl.Structure.link) ->
      let f = l.Adl.Structure.link_from.Adl.Structure.anchor
      and t = l.link_to.anchor in
      if (f = x && t = y) || (f = y && t = x) then
        Some (Adl.Diff.Remove_link l.Adl.Structure.link_id)
      else None)
    a.Adl.Structure.links

let excised p pair =
  let a = p.project.Core.Sosae.architecture in
  { p.project with Core.Sosae.architecture = Adl.Diff.apply_all a (excise_ops a pair) }

(* The bytes of ["result"] in an evaluate response: a fresh
   sequential evaluation, rendered the way the API renders it. *)
let evaluate_bytes project =
  Jsonlight.to_string
    (Walkthrough.Report.json_of_set_result
       (Core.Sosae.evaluate ~config:routed ~jobs:1 project))

(* The campaign a [simulate_body] request builds, as the API builds it
   from the body's fields. *)
let price_feed_campaign ~architecture ~charts =
  let config =
    {
      Dsim.Network.default_config with
      Dsim.Network.default_latency = 1.0;
      jitter = 0.25;
      drop_probability = 0.0;
    }
  in
  Dsim.Campaign.make ~config ~horizon:10.0
    ~faults:
      [
        Dsim.Campaign.Crash_window
          {
            node = "remote-price-db";
            at = { Dsim.Campaign.lo = 0.0; hi = 3.0 };
            downtime = { Dsim.Campaign.lo = 1.0; hi = 5.0 };
          };
      ]
    ~architecture ~charts
    ~stimuli:[ { Dsim.Campaign.at = 0.0; component = "master-controller"; trigger = "user-initiates" } ]
    ~goal:(Dsim.Campaign.Delivered { component = "remote-price-db"; payload = "fetch-prices" })
    ()

(* The bytes of ["report"] in a simulate response. *)
let simulate_bytes ~architecture ~trials ~seed =
  let charts =
    (Statechart.Bundle.of_string (Lazy.force behavior_xml)).Statechart.Bundle.charts
  in
  Jsonlight.to_string
    (Dsim.Stats.to_json
       (Dsim.Campaign.report ~jobs:1 ~seed ~trials (price_feed_campaign ~architecture ~charts)))

(* Fig. 4: after excising Loader–Data Access, these three scenarios
   turn inconsistent while Create Portfolio stays consistent. *)
let fig4_expectation =
  [
    ("get-share-prices", "inconsistent");
    ("save-session", "inconsistent");
    ("backup-repository", "inconsistent");
    ("create-portfolio", "consistent");
  ]

let verdicts result_bytes =
  match Jsonlight.of_string result_bytes with
  | Error e -> failwith ("oracle result is not JSON: " ^ e)
  | Ok json ->
      let scenarios =
        Option.value ~default:[]
          (Option.bind (Jsonlight.member "scenarios" json) Jsonlight.list_opt)
      in
      List.filter_map
        (fun s ->
          match
            ( Option.bind (Jsonlight.member "scenario_id" s) Jsonlight.string_opt,
              Option.bind (Jsonlight.member "verdict" s) Jsonlight.string_opt )
          with
          | Some id, Some v -> Some (id, v)
          | _ -> None)
        scenarios

let fig4_holds excised_bytes =
  let v = verdicts excised_bytes in
  List.for_all (fun (id, want) -> List.assoc_opt id v = Some want) fig4_expectation

(* [s] holds [sub] at [off]; no allocation. *)
let matches_at s off sub =
  let n = String.length sub in
  off >= 0
  && off + n <= String.length s
  &&
  let rec go i = i = n || (String.unsafe_get s (off + i) = String.unsafe_get sub i && go (i + 1)) in
  go 0

(* An evaluate body is [{"result":R,"re_evaluated":..}]: compare R. *)
let result_is body expected =
  matches_at body 0 {|{"result":|}
  && matches_at body 10 expected
  && matches_at body (10 + String.length expected) {|,"re_evaluated":|}

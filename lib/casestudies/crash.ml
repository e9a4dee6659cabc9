let organizations =
  [
    ("police", "Police Department");
    ("fire", "Fire Department");
    ("search-rescue", "Search and Rescue");
    ("red-cross", "Red Cross");
    ("hospital", "St. Elsewhere Hospital");
    ("charity", "Charitable Organization");
    ("public-works", "Department of Public Works");
  ]

(* ------------------------------------------------------------------ *)
(* Ontology                                                           *)
(* ------------------------------------------------------------------ *)

let ontology =
  let open Ontology.Build in
  let base =
    create ~id:"crash-ontology" ~name:"CRASH domain ontology"
    |> add_class ~id:"actor" ~name:"Actor"
    |> add_class ~id:"user" ~name:"User" ~super:"actor"
    |> add_class ~id:"system" ~name:"System" ~super:"actor"
    |> add_class ~id:"entity" ~name:"Entity" ~super:"actor"
         ~description:"A decision-making organization's system"
    |> add_class ~id:"network" ~name:"Network" ~super:"actor"
         ~description:"The (ad hoc) network interconnecting the entities"
    |> add_class ~id:"organization" ~name:"Organization" ~super:"entity"
    |> add_class ~id:"message" ~name:"Message"
    |> add_class ~id:"request" ~name:"Request" ~super:"message"
    |> add_class ~id:"notification" ~name:"Notification" ~super:"message"
    |> add_class ~id:"situation" ~name:"Situation"
         ~description:"An emerging crisis situation"
    |> add_class ~id:"resource" ~name:"Resource"
         ~description:"Deployable personnel or equipment"
    |> add_class ~id:"information" ~name:"Information"
  in
  let with_orgs =
    List.fold_left
      (fun o (id, name) -> add_individual ~id ~name ~cls:"organization" o)
      base organizations
  in
  with_orgs
  |> add_individual ~id:"the-network" ~name:"the Network" ~cls:"network"
  |> add_individual ~id:"intruder" ~name:"a malicious entity" ~cls:"entity"
  (* event types *)
  |> add_event_type ~id:"communicates" ~name:"communicates" ~actor:"entity"
       ~params:[ ("sender", "organization"); ("receiver", "organization") ]
       ~template:"{sender} communicates with {receiver}"
  |> add_event_type ~id:"send-message" ~name:"sendMessage" ~super:"communicates"
       ~params:[ ("message", "message") ]
       ~template:"{sender}'s Command and Control sends a {message} message to {receiver}'s Command and Control"
  |> add_event_type ~id:"send-request" ~name:"sendRequest" ~super:"send-message"
       ~template:"{sender}'s Command and Control sends a request message ({message}) to {receiver}'s Command and Control"
  |> add_event_type ~id:"send-notification" ~name:"sendNotification" ~super:"send-message"
       ~template:"{sender}'s Command and Control sends a notification ({message}) to {receiver}'s Command and Control"
  |> add_event_type ~id:"receive-message" ~name:"receiveMessage" ~actor:"entity"
       ~params:[ ("receiver", "organization"); ("message", "message") ]
       ~template:"{receiver}'s Command and Control receives the {message} message"
  |> add_event_type ~id:"shuts-down" ~name:"shutsDown" ~actor:"entity"
       ~params:[ ("entity", "organization") ]
       ~template:"{entity} shuts down its Command and Control entity"
  |> add_event_type ~id:"send-failure-message" ~name:"sendFailureMessage" ~actor:"network"
       ~params:[ ("to", "organization") ]
       ~template:"The Network sends a failure message to {to}"
  |> add_event_type ~id:"receive-failure-message" ~name:"receiveFailureMessage"
       ~actor:"entity"
       ~params:[ ("entity", "organization") ]
       ~template:"{entity} receives the failure message"
  |> add_event_type ~id:"report-situation" ~name:"reportSituation" ~actor:"user"
       ~params:[ ("entity", "organization"); ("situation", "situation") ]
       ~template:"An information source of {entity} relays a public report of {situation}"
  |> add_event_type ~id:"aggregate-data" ~name:"aggregateData" ~actor:"entity"
       ~params:[ ("entity", "organization") ]
       ~template:"{entity}'s Command and Control aggregates the received data"
  |> add_event_type ~id:"display-info" ~name:"displayInfo" ~actor:"entity"
       ~params:[ ("entity", "organization"); ("info", "information") ]
       ~template:"{entity}'s Display visualizes {info}"
  |> add_event_type ~id:"make-decision" ~name:"makeDecision" ~actor:"entity"
       ~params:[ ("entity", "organization"); ("decision", "information") ]
       ~template:"{entity}'s Command and Control decides: {decision}"
  |> add_event_type ~id:"deploy-resources" ~name:"deployResources" ~actor:"entity"
       ~params:[ ("entity", "organization"); ("resource", "resource") ]
       ~template:"{entity} conveys instructions to deploy {resource}"
  |> add_event_type ~id:"rogue-send" ~name:"rogueSend" ~actor:"entity"
       ~params:[ ("receiver", "organization") ]
       ~template:"A malicious entity without authentication sends a message to {receiver}"
  |> add_term ~id:"c2-style" ~name:"C2 style"
       ~definition:
         "Layered event-based style: requests travel up the architecture, notifications move down"
  |> add_term ~id:"dependability" ~name:"dependability"
       ~definition:"Availability, reliability and security of the CRASH system"

(* ------------------------------------------------------------------ *)
(* Entity architecture (Fig. 7): C2 style                             *)
(* ------------------------------------------------------------------ *)

(* C2 wiring: the upper element's "bottom" interface joins the lower
   element's "top" interface; both are In_out (requests up,
   notifications down). *)
let c2_join t upper lower =
  let open Adl.Build in
  let iface side other =
    interface
      ~tags:[ ("side", side) ]
      ~direction:Adl.Structure.In_out
      (Printf.sprintf "%s_%s" (if side = "bottom" then "bot" else "top") other)
  in
  let ensure t elt i =
    let has =
      List.exists
        (fun x -> String.equal x.Adl.Structure.iface_id i.Adl.Structure.iface_id)
        (Adl.Structure.element_interfaces t elt)
    in
    if has then t
    else
      match Adl.Structure.find_component t elt with
      | Some c ->
          let c =
            { c with Adl.Structure.comp_interfaces = c.Adl.Structure.comp_interfaces @ [ i ] }
          in
          {
            t with
            Adl.Structure.components =
              List.map
                (fun x -> if String.equal x.Adl.Structure.comp_id elt then c else x)
                t.Adl.Structure.components;
          }
      | None -> (
          match Adl.Structure.find_connector t elt with
          | Some c ->
              let c =
                { c with Adl.Structure.conn_interfaces = c.Adl.Structure.conn_interfaces @ [ i ] }
              in
              {
                t with
                Adl.Structure.connectors =
                  List.map
                    (fun x -> if String.equal x.Adl.Structure.conn_id elt then c else x)
                    t.Adl.Structure.connectors;
              }
          | None -> raise (Adl.Build.Unknown elt))
  in
  let t = ensure t upper (iface "bottom" lower) in
  let t = ensure t lower (iface "top" upper) in
  add_link ~from_:(upper, "bot_" ^ lower) ~to_:(lower, "top_" ^ upper) t

let entity_architecture =
  let open Adl.Build in
  create ~style:"c2" ~id:"crash-entity-arch" ~name:"CRASH entity Command and Control (C2)" ()
  |> add_component ~id:"user-interface" ~name:"User Interface"
       ~responsibilities:
         [ "present situation and deployment information to the operator"; "accept commands" ]
       ~tags:[ ("layer", "3") ]
  |> add_component ~id:"situation-assessment" ~name:"Situation Assessment"
       ~responsibilities:[ "assess reported situations" ]
       ~tags:[ ("layer", "2") ]
  |> add_component ~id:"resource-manager" ~name:"Resource Manager"
       ~responsibilities:[ "track and deploy the organization's resources" ]
       ~tags:[ ("layer", "2") ]
  |> add_component ~id:"sharing-info-manager" ~name:"Sharing Info Manager"
       ~responsibilities:[ "manage information shared with other organizations" ]
       ~tags:[ ("layer", "2") ]
  |> add_component ~id:"decision-support" ~name:"Decision Support"
       ~responsibilities:[ "aggregate data from information sources and other organizations"; "support decision making" ]
       ~tags:[ ("layer", "1") ]
  |> add_component ~id:"communication-manager" ~name:"Communication Manager"
       ~responsibilities:
         [ "exchange messages with other entities over the network"; "relay failure notices" ]
       ~tags:[ ("layer", "1") ]
  |> add_component ~id:"network" ~name:"Network"
       ~description:"The ad hoc network, as seen from this entity"
       ~responsibilities:[ "transport messages between entities"; "detect unreachable entities" ]
       ~tags:[ ("external", "true") ]
  |> add_connector ~id:"bus-top" ~name:"C2 bus (top)"
  |> add_connector ~id:"bus-bottom" ~name:"C2 bus (bottom)"
  |> add_connector ~id:"network-link" ~name:"Network link"
  |> fun t ->
  c2_join t "user-interface" "bus-top" |> fun t ->
  c2_join t "bus-top" "situation-assessment" |> fun t ->
  c2_join t "bus-top" "resource-manager" |> fun t ->
  c2_join t "bus-top" "sharing-info-manager" |> fun t ->
  c2_join t "situation-assessment" "bus-bottom" |> fun t ->
  c2_join t "resource-manager" "bus-bottom" |> fun t ->
  c2_join t "sharing-info-manager" "bus-bottom" |> fun t ->
  c2_join t "bus-bottom" "decision-support" |> fun t ->
  c2_join t "bus-bottom" "communication-manager" |> fun t ->
  c2_join t "communication-manager" "network-link" |> fun t ->
  c2_join t "network-link" "network"

(* ------------------------------------------------------------------ *)
(* High-level architecture (Fig. 5)                                   *)
(* ------------------------------------------------------------------ *)

let high_level_architecture ?(orgs = List.length organizations) () =
  let open Adl.Build in
  let orgs = max 2 (min orgs (List.length organizations)) in
  let chosen = List.filteri (fun i _ -> i < orgs) organizations in
  let base =
    create ~id:"crash-arch" ~name:"CRASH high-level architecture" ()
    |> add_connector ~id:"emergency-network" ~name:"Emergency ad hoc network"
         ~description:"Interconnects the Command and Control centers of all organizations"
  in
  List.fold_left
    (fun t (org, name) ->
      let cc = org ^ "-cc" in
      let display = org ^ "-display" in
      let infosrc = org ^ "-infosrc" in
      let adhoc = org ^ "-adhoc" in
      t
      |> add_component ~id:cc ~name:(name ^ " Command and Control")
           ~responsibilities:
             [
               "aggregate data from information sources and other organizations";
               "make decisions on behalf of the entity";
               "convey information and instructions to affiliated resources";
             ]
           ~substructure:entity_architecture
      |> add_component ~id:display ~name:(name ^ " Display")
           ~responsibilities:[ "visualize the information currently known to the organization" ]
      |> add_component ~id:infosrc ~name:(name ^ " Information Gathering Sources")
           ~responsibilities:[ "provide feedback and information to Command and Control" ]
      |> add_connector ~id:adhoc ~name:(name ^ " internal ad hoc network")
      |> fun t ->
      biconnect t display adhoc |> fun t ->
      biconnect t infosrc adhoc |> fun t ->
      biconnect t cc adhoc |> fun t -> biconnect t cc "emergency-network")
    base chosen

let vulnerable_architecture =
  let open Adl.Build in
  high_level_architecture ~orgs:2 ()
  |> add_component ~id:"intruder-entity" ~name:"Intruder"
       ~description:"An unauthenticated entity that managed to join the network"
       ~responsibilities:[ "inject malicious messages" ]
  |> fun t -> biconnect t "intruder-entity" "emergency-network"

(* ------------------------------------------------------------------ *)
(* Mappings                                                           *)
(* ------------------------------------------------------------------ *)

let entity_mapping =
  let open Mapping.Build in
  create ~id:"crash-entity-mapping" ~ontology ~architecture:entity_architecture
  |> map ~event_type:"send-message"
       ~to_:[ "user-interface"; "sharing-info-manager"; "communication-manager" ]
       ~rationale:
         "an outgoing message is composed at the UI, recorded by the Sharing Info Manager, \
          and emitted by the Communication Manager (paper Fig. 8)"
  |> map ~event_type:"receive-message"
       ~to_:[ "communication-manager"; "sharing-info-manager"; "user-interface" ]
       ~rationale:"incoming messages flow up the C2 architecture as notifications"
  |> map ~event_type:"shuts-down" ~to_:[ "user-interface" ]
       ~rationale:"the operator shuts the entity down at the user interface"
  |> map ~event_type:"send-failure-message" ~to_:[ "network" ]
  |> map ~event_type:"receive-failure-message"
       ~to_:[ "communication-manager"; "sharing-info-manager"; "user-interface" ]
       ~rationale:"a failure notice is relayed up to alert the operator"
  |> map ~event_type:"report-situation" ~to_:[ "communication-manager"; "situation-assessment" ]
       ~rationale:"public reports arrive over the network and are assessed"
  |> map ~event_type:"aggregate-data" ~to_:[ "decision-support" ]
  |> map ~event_type:"display-info" ~to_:[ "user-interface" ]
  |> map ~event_type:"make-decision" ~to_:[ "decision-support"; "sharing-info-manager" ]
       ~rationale:"decisions are taken and shared with other organizations"
  |> map ~event_type:"deploy-resources" ~to_:[ "resource-manager"; "communication-manager" ]
       ~rationale:"deployment instructions go to affiliated resources via the network"
  |> map ~event_type:"communicates" ~to_:[ "communication-manager" ]

let network_mapping =
  let open Mapping.Build in
  create ~id:"crash-network-mapping" ~ontology ~architecture:(high_level_architecture ~orgs:2 ())
  |> map ~event_type:"send-request" ~to_:[ "fire-cc" ]
       ~rationale:"the paper's scenarios have the Fire Department initiate"
  |> map ~event_type:"send-notification" ~to_:[ "police-cc" ]
  |> map ~event_type:"receive-message" ~to_:[ "police-cc" ]
  |> map ~event_type:"shuts-down" ~to_:[ "police-cc" ]
  |> map ~event_type:"send-failure-message" ~to_:[ "fire-cc" ]
       ~rationale:"the failure notice surfaces at the requesting entity"
  |> map ~event_type:"receive-failure-message" ~to_:[ "fire-cc" ]
  |> map ~event_type:"report-situation" ~to_:[ "fire-infosrc"; "fire-cc" ]
  |> map ~event_type:"aggregate-data" ~to_:[ "fire-cc" ]
  |> map ~event_type:"display-info" ~to_:[ "fire-display" ]
  |> map ~event_type:"make-decision" ~to_:[ "fire-cc" ]
  |> map ~event_type:"deploy-resources" ~to_:[ "fire-cc" ]
  |> map ~event_type:"rogue-send" ~to_:[ "intruder-entity"; "police-cc" ]
       ~rationale:
         "only realizable when an unauthenticated entity is attached to the network"

(* ------------------------------------------------------------------ *)
(* Scenario sets                                                      *)
(* ------------------------------------------------------------------ *)

let entity_scenario_set =
  Scenarioml.Scen.make_set ~id:"crash-entity-scenarios"
    ~name:"CRASH dependability scenarios (entity view)" ontology Crash_scenarios.entity_level

let network_scenario_set =
  Scenarioml.Scen.make_set ~id:"crash-network-scenarios"
    ~name:"CRASH cooperation scenarios (network view)" ontology Crash_scenarios.network_level

let entity_availability =
  Scenarioml.Scen.find_exn entity_scenario_set "entity-availability"

let message_sequence = Scenarioml.Scen.find_exn entity_scenario_set "message-sequence"

let unauthenticated_access =
  Scenarioml.Scen.find_exn network_scenario_set "unauthenticated-access"

(* ------------------------------------------------------------------ *)
(* Behavior (statecharts for the dynamic experiments)                 *)
(* ------------------------------------------------------------------ *)

let fire_chart =
  let open Statechart.Types in
  chart ~id:"fire-cc-behavior" ~component:"fire-cc" ~initial:"idle"
    [ state "idle"; state "awaiting"; state "alerted"; state "satisfied" ]
    [
      transition ~source:"idle" ~target:"awaiting" ~trigger:"initiate"
        ~outputs:[ "request" ] ();
      transition ~source:"awaiting" ~target:"awaiting" ~trigger:"initiate"
        ~outputs:[ "request" ] ();
      transition ~source:"awaiting" ~target:"alerted" ~trigger:"networkFailure" ();
      transition ~source:"awaiting" ~target:"satisfied" ~trigger:"notification" ();
    ]

let police_chart =
  let open Statechart.Types in
  chart ~id:"police-cc-behavior" ~component:"police-cc" ~initial:"ready"
    [ state "ready"; state "handling" ]
    [
      transition ~source:"ready" ~target:"handling" ~trigger:"request"
        ~outputs:[ "notification" ] ();
      transition ~source:"handling" ~target:"handling" ~trigger:"request"
        ~outputs:[ "notification" ] ();
    ]

let event_type_label id =
  match Ontology.Types.find_event_type ontology id with
  | Some e -> e.Ontology.Types.event_name
  | None -> id

let component_label id =
  match Adl.Structure.find_component entity_architecture id with
  | Some c -> c.Adl.Structure.comp_name
  | None -> (
      match Adl.Structure.find_component (high_level_architecture ~orgs:2 ()) id with
      | Some c -> c.Adl.Structure.comp_name
      | None -> id)

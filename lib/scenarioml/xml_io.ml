exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

module X = Xmlight.Parse

let required d e name =
  match X.attr d e name with
  | Some v -> v
  | None -> malformed "<%s> is missing required attribute %S" (X.tag d e) name

let arg_to_element a =
  let value_attrs =
    match a.Event.arg_value with
    | Event.Individual id -> [ ("ref", id) ]
    | Event.Literal s -> [ ("value", s) ]
    | Event.Fresh { label; cls } -> [ ("new", label); ("type", cls) ]
  in
  Xmlight.Doc.elt ~attrs:(("param", a.Event.arg_param) :: value_attrs) "arg" []

let rec event_to_element e =
  match e with
  | Event.Simple { id; text } ->
      Xmlight.Doc.element ~attrs:[ ("id", id) ] "event" [ Xmlight.Doc.text text ]
  | Event.Typed { id; event_type; args } ->
      Xmlight.Doc.element
        ~attrs:[ ("id", id); ("type", event_type) ]
        "typedEvent" (List.map arg_to_element args)
  | Event.Compound { id; pattern; body } ->
      let order = match pattern with Event.Sequence -> "sequence" | Event.Any_order -> "any" in
      Xmlight.Doc.element
        ~attrs:[ ("id", id); ("order", order) ]
        "compound"
        (List.map (fun e -> Xmlight.Doc.Element (event_to_element e)) body)
  | Event.Alternation { id; branches } ->
      let branch body =
        Xmlight.Doc.elt "branch" (List.map (fun e -> Xmlight.Doc.Element (event_to_element e)) body)
      in
      Xmlight.Doc.element ~attrs:[ ("id", id) ] "alternation" (List.map branch branches)
  | Event.Iteration { id; bound; body } ->
      let bound_attr =
        match bound with
        | Event.Zero_or_more -> "zeroOrMore"
        | Event.One_or_more -> "oneOrMore"
        | Event.Exactly n -> string_of_int n
      in
      Xmlight.Doc.element
        ~attrs:[ ("id", id); ("bound", bound_attr) ]
        "iteration"
        (List.map (fun e -> Xmlight.Doc.Element (event_to_element e)) body)
  | Event.Optional { id; body } ->
      Xmlight.Doc.element ~attrs:[ ("id", id) ] "optional"
        (List.map (fun e -> Xmlight.Doc.Element (event_to_element e)) body)
  | Event.Episode { id; scenario } ->
      Xmlight.Doc.element ~attrs:[ ("id", id); ("scenario", scenario) ] "episode" []

let arg_of_element d e =
  let param = required d e "param" in
  match (X.attr d e "ref", X.attr d e "value", X.attr d e "new") with
  | Some id, None, None -> Event.individual ~param id
  | None, Some v, None -> Event.literal ~param v
  | None, None, Some label -> Event.fresh ~param ~label ~cls:(required d e "type")
  | None, None, None -> malformed "<arg param=%S> has neither ref, value nor new" param
  | _, _, _ -> malformed "<arg param=%S> mixes ref/value/new" param

let event_tags =
  [ "event"; "typedEvent"; "compound"; "alternation"; "iteration"; "optional"; "episode" ]

let rec event_of_element d e =
  let id = required d e "id" in
  if X.tag_is d e "event" then Event.Simple { id; text = X.child_text d e }
  else if X.tag_is d e "typedEvent" then
    Event.Typed
      {
        id;
        event_type = required d e "type";
        args = X.map_children d e [ "arg" ] (arg_of_element d);
      }
  else if X.tag_is d e "compound" then
    let pattern =
      if X.attr_is d e "order" "any" then Event.Any_order
      else if X.attr_is d e "order" "sequence" || Option.is_none (X.attr d e "order") then
        Event.Sequence
      else malformed "<compound id=%S>: unknown order %S" id (required d e "order")
    in
    Event.Compound { id; pattern; body = events_of d e }
  else if X.tag_is d e "alternation" then
    let branches = X.map_children d e [ "branch" ] (events_of d) in
    Event.Alternation { id; branches }
  else if X.tag_is d e "iteration" then
    let bound =
      if X.attr_is d e "bound" "zeroOrMore" then Event.Zero_or_more
      else if X.attr_is d e "bound" "oneOrMore" then Event.One_or_more
      else
        let n = required d e "bound" in
        match int_of_string_opt n with
        | Some k -> Event.Exactly k
        | None -> malformed "<iteration id=%S>: bad bound %S" id n
    in
    Event.Iteration { id; bound; body = events_of d e }
  else if X.tag_is d e "optional" then Event.Optional { id; body = events_of d e }
  else if X.tag_is d e "episode" then Event.Episode { id; scenario = required d e "scenario" }
  else malformed "unknown event element <%s>" (X.tag d e)

and events_of d e = X.map_children d e event_tags (event_of_element d)

let scenario_to_element s =
  let kind = match s.Scen.kind with Scen.Positive -> "positive" | Scen.Negative -> "negative" in
  let description =
    if s.Scen.description = "" then []
    else [ Xmlight.Doc.elt "description" [ Xmlight.Doc.text s.Scen.description ] ]
  in
  let actors =
    List.map (fun a -> Xmlight.Doc.elt ~attrs:[ ("ref", a) ] "actor" []) s.Scen.actors
  in
  let events =
    Xmlight.Doc.elt "events"
      (List.map (fun e -> Xmlight.Doc.Element (event_to_element e)) s.Scen.events)
  in
  Xmlight.Doc.element
    ~attrs:[ ("id", s.Scen.scenario_id); ("name", s.Scen.scenario_name); ("kind", kind) ]
    "scenario"
    (description @ actors @ [ events ])

let scenario_of_element d e =
  if not (X.tag_is d e "scenario") then malformed "expected <scenario>, found <%s>" (X.tag d e);
  let kind =
    if X.attr_is d e "kind" "negative" then Scen.Negative
    else if X.attr_is d e "kind" "positive" || Option.is_none (X.attr d e "kind") then
      Scen.Positive
    else malformed "unknown scenario kind %S" (required d e "kind")
  in
  let description =
    match X.find_child d e "description" with
    | Some c -> X.child_text d c
    | None -> ""
  in
  let actors = X.map_children d e [ "actor" ] (fun a -> required d a "ref") in
  let events =
    match X.find_child d e "events" with
    | Some evs -> events_of d evs
    | None -> malformed "<scenario id=%S> is missing <events>" (required d e "id")
  in
  Scen.scenario ~description ~kind ~actors ~id:(required d e "id") ~name:(required d e "name")
    events

let set_to_element set =
  Xmlight.Doc.element
    ~attrs:[ ("id", set.Scen.set_id); ("name", set.Scen.set_name) ]
    "scenarioSet"
    (Xmlight.Doc.Element (Ontology.Xml_io.to_element set.Scen.ontology)
    :: List.map (fun s -> Xmlight.Doc.Element (scenario_to_element s)) set.Scen.scenarios)

let set_of_element d e =
  if not (X.tag_is d e "scenarioSet") then
    malformed "expected <scenarioSet>, found <%s>" (X.tag d e);
  let ontology =
    match X.find_child d e "ontology" with
    | Some o -> (
        match Ontology.Xml_io.of_element d o with
        | o -> o
        | exception Ontology.Xml_io.Malformed m -> malformed "in <ontology>: %s" m)
    | None -> malformed "<scenarioSet> is missing <ontology>"
  in
  Scen.make_set ~id:(required d e "id") ~name:(required d e "name") ontology
    (X.map_children d e [ "scenario" ] (scenario_of_element d))

let set_to_string set = Xmlight.Print.to_string (Xmlight.Doc.doc (set_to_element set))

let set_of_string s =
  match X.read s set_of_element with
  | Ok set -> set
  | Error e -> malformed "XML error: %s" (X.error_to_string e)

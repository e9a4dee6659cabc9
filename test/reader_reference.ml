(* The model readers as they were before they read the lexer's spans in
   place: the read halves of the ScenarioML (with its ontology), xADL,
   mapping and statechart Xml_io modules and of Statechart.Bundle, kept
   verbatim over a DOM built by Xml_reference, as a reference oracle.
   Test_readers checks that Core.Sosae.project_of_strings and
   Statechart.Bundle.of_string give the same model, or the same error,
   on the case studies and on edited copies of them. Keep this in sync
   with nothing; it is intentionally frozen. *)

(* The readers name Xmlight.Doc's accessors and Xmlight.Parse; here they
   find the accessors as Doc had them and the frozen parser. *)
module Xmlight = struct
  module Doc = struct
    include Xmlight.Doc

    let attr e name =
      let rec find = function
        | [] -> None
        | a :: rest -> if String.equal a.attr_name name then Some a.attr_value else find rest
      in
      find e.attrs

    let attr_default e name d = match attr e name with Some v -> v | None -> d

    let children_elements e =
      List.filter_map
        (function Element c -> Some c | Text _ | Comment _ | Pi _ -> None)
        e.children

    let child_text e =
      let buf = Buffer.create 16 in
      List.iter
        (function
          | Text s -> Buffer.add_string buf s
          | Element _ | Comment _ | Pi _ -> ())
        e.children;
      String.trim (Buffer.contents buf)

    let find_child e tag =
      let rec find = function
        | [] -> None
        | c :: rest -> if String.equal c.tag tag then Some c else find rest
      in
      find (children_elements e)

    let find_children e tag =
      List.filter (fun c -> String.equal c.tag tag) (children_elements e)
  end

  module Parse = struct
    let parse = Xml_reference.parse

    let error_to_string = Xml_reference.error_to_string
  end
end

module Ontology_reader = struct
  open Ontology

  exception Malformed of string

  let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

  let required e name =
    match Xmlight.Doc.attr e name with
    | Some v -> v
    | None -> malformed "<%s> is missing required attribute %S" e.Xmlight.Doc.tag name

  let description_of e =
    match Xmlight.Doc.find_child e "description" with
    | Some d -> Xmlight.Doc.child_text d
    | None -> ""

  let class_of_element e =
    {
      Types.class_id = required e "id";
      class_name = required e "name";
      class_description = description_of e;
      class_super = Xmlight.Doc.attr e "super";
    }

  let individual_of_element e =
    {
      Types.ind_id = required e "id";
      ind_name = required e "name";
      ind_class = required e "type";
      ind_description = description_of e;
    }

  let event_of_element e =
    let params =
      List.map
        (fun p -> { Types.param_name = required p "name"; param_class = required p "type" })
        (Xmlight.Doc.find_children e "parameter")
    in
    let template =
      match Xmlight.Doc.find_child e "template" with
      | Some t -> Xmlight.Doc.child_text t
      | None -> malformed "<eventType id=%S> is missing <template>" (required e "id")
    in
    {
      Types.event_id = required e "id";
      event_name = required e "name";
      template;
      event_super = Xmlight.Doc.attr e "super";
      params;
      actor = Xmlight.Doc.attr e "actor";
    }

  let term_of_element e =
    {
      Types.term_id = required e "id";
      term_name = required e "name";
      term_definition = Xmlight.Doc.child_text e;
    }

  let of_element e =
    if not (String.equal e.Xmlight.Doc.tag "ontology") then
      malformed "expected <ontology>, found <%s>" e.Xmlight.Doc.tag;
    {
      Types.ontology_id = required e "id";
      ontology_name = required e "name";
      classes = List.map class_of_element (Xmlight.Doc.find_children e "instanceType");
      individuals = List.map individual_of_element (Xmlight.Doc.find_children e "instance");
      event_types = List.map event_of_element (Xmlight.Doc.find_children e "eventType");
      terms = List.map term_of_element (Xmlight.Doc.find_children e "term");
    }

  let of_string s =
    match Xmlight.Parse.parse s with
    | Ok doc -> of_element doc.Xmlight.Doc.root
    | Error e -> malformed "XML error: %s" (Xmlight.Parse.error_to_string e)
end

module Scenarioml_reader = struct
  open Scenarioml

  module Ontology = struct
    module Xml_io = Ontology_reader
  end

  exception Malformed of string

  let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

  let required e name =
    match Xmlight.Doc.attr e name with
    | Some v -> v
    | None -> malformed "<%s> is missing required attribute %S" e.Xmlight.Doc.tag name

  let arg_of_element e =
    let param = required e "param" in
    match
      (Xmlight.Doc.attr e "ref", Xmlight.Doc.attr e "value", Xmlight.Doc.attr e "new")
    with
    | Some id, None, None -> Event.individual ~param id
    | None, Some v, None -> Event.literal ~param v
    | None, None, Some label -> Event.fresh ~param ~label ~cls:(required e "type")
    | None, None, None -> malformed "<arg param=%S> has neither ref, value nor new" param
    | _, _, _ -> malformed "<arg param=%S> mixes ref/value/new" param

  let rec event_of_element e =
    let id = required e "id" in
    match e.Xmlight.Doc.tag with
    | "event" -> Event.Simple { id; text = Xmlight.Doc.child_text e }
    | "typedEvent" ->
        Event.Typed
          {
            id;
            event_type = required e "type";
            args = List.map arg_of_element (Xmlight.Doc.find_children e "arg");
          }
    | "compound" ->
        let pattern =
          match Xmlight.Doc.attr_default e "order" "sequence" with
          | "sequence" -> Event.Sequence
          | "any" -> Event.Any_order
          | other -> malformed "<compound id=%S>: unknown order %S" id other
        in
        Event.Compound { id; pattern; body = events_of e }
    | "alternation" ->
        let branches =
          List.map (fun b -> events_of b) (Xmlight.Doc.find_children e "branch")
        in
        Event.Alternation { id; branches }
    | "iteration" ->
        let bound =
          match required e "bound" with
          | "zeroOrMore" -> Event.Zero_or_more
          | "oneOrMore" -> Event.One_or_more
          | n -> (
              match int_of_string_opt n with
              | Some k -> Event.Exactly k
              | None -> malformed "<iteration id=%S>: bad bound %S" id n)
        in
        Event.Iteration { id; bound; body = events_of e }
    | "optional" -> Event.Optional { id; body = events_of e }
    | "episode" -> Event.Episode { id; scenario = required e "scenario" }
    | tag -> malformed "unknown event element <%s>" tag

  and events_of e =
    List.filter_map
      (fun c ->
        match c.Xmlight.Doc.tag with
        | "event" | "typedEvent" | "compound" | "alternation" | "iteration" | "optional"
        | "episode" ->
            Some (event_of_element c)
        | _ -> None)
      (Xmlight.Doc.children_elements e)

  let scenario_of_element e =
    if not (String.equal e.Xmlight.Doc.tag "scenario") then
      malformed "expected <scenario>, found <%s>" e.Xmlight.Doc.tag;
    let kind =
      match Xmlight.Doc.attr_default e "kind" "positive" with
      | "positive" -> Scen.Positive
      | "negative" -> Scen.Negative
      | other -> malformed "unknown scenario kind %S" other
    in
    let description =
      match Xmlight.Doc.find_child e "description" with
      | Some d -> Xmlight.Doc.child_text d
      | None -> ""
    in
    let actors =
      List.map (fun a -> required a "ref") (Xmlight.Doc.find_children e "actor")
    in
    let events =
      match Xmlight.Doc.find_child e "events" with
      | Some evs -> events_of evs
      | None -> malformed "<scenario id=%S> is missing <events>" (required e "id")
    in
    Scen.scenario ~description ~kind ~actors ~id:(required e "id") ~name:(required e "name")
      events

  let set_of_element e =
    if not (String.equal e.Xmlight.Doc.tag "scenarioSet") then
      malformed "expected <scenarioSet>, found <%s>" e.Xmlight.Doc.tag;
    let ontology =
      match Xmlight.Doc.find_child e "ontology" with
      | Some o -> (
          match Ontology.Xml_io.of_element o with
          | o -> o
          | exception Ontology.Xml_io.Malformed m -> malformed "in <ontology>: %s" m)
      | None -> malformed "<scenarioSet> is missing <ontology>"
    in
    Scen.make_set ~id:(required e "id") ~name:(required e "name") ontology
      (List.map scenario_of_element (Xmlight.Doc.find_children e "scenario"))

  let set_of_string s =
    match Xmlight.Parse.parse s with
    | Ok doc -> set_of_element doc.Xmlight.Doc.root
    | Error e -> malformed "XML error: %s" (Xmlight.Parse.error_to_string e)
end

module Adl_reader = struct
  open Adl

  exception Malformed of string

  let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

  let required e name =
    match Xmlight.Doc.attr e name with
    | Some v -> v
    | None -> malformed "<%s> is missing required attribute %S" e.Xmlight.Doc.tag name

  let direction_of_string = function
    | "provided" -> Structure.Provided
    | "required" -> Structure.Required
    | "inout" -> Structure.In_out
    | other -> malformed "unknown interface direction %S" other

  let tags_of_element e =
    List.map (fun t -> (required t "name", required t "value")) (Xmlight.Doc.find_children e "tag")

  let interface_of_element e =
    {
      Structure.iface_id = required e "id";
      iface_name = required e "name";
      direction = direction_of_string (required e "direction");
      iface_tags = tags_of_element e;
    }

  let description_of_element e =
    match Xmlight.Doc.find_child e "description" with
    | Some d -> Xmlight.Doc.child_text d
    | None -> ""

  let rec component_of_element e =
    let substructure =
      match Xmlight.Doc.find_child e "subArchitecture" with
      | Some sub -> (
          match Xmlight.Doc.find_child sub "archStructure" with
          | Some arch -> Some (of_element arch)
          | None -> malformed "<subArchitecture> without <archStructure>")
      | None -> None
    in
    {
      Structure.comp_id = required e "id";
      comp_name = required e "name";
      comp_description = description_of_element e;
      responsibilities =
        List.map Xmlight.Doc.child_text (Xmlight.Doc.find_children e "responsibility");
      comp_interfaces = List.map interface_of_element (Xmlight.Doc.find_children e "interface");
      substructure;
      comp_tags = tags_of_element e;
    }

  and connector_of_element e =
    {
      Structure.conn_id = required e "id";
      conn_name = required e "name";
      conn_description = description_of_element e;
      conn_interfaces = List.map interface_of_element (Xmlight.Doc.find_children e "interface");
      conn_tags = tags_of_element e;
    }

  and link_of_element e =
    let point tag =
      match Xmlight.Doc.find_child e tag with
      | Some p -> { Structure.anchor = required p "anchor"; interface = required p "interface" }
      | None -> malformed "<link id=%S> is missing <%s>" (required e "id") tag
    in
    { Structure.link_id = required e "id"; link_from = point "from"; link_to = point "to" }

  and of_element e =
    if not (String.equal e.Xmlight.Doc.tag "archStructure") then
      malformed "expected <archStructure>, found <%s>" e.Xmlight.Doc.tag;
    {
      Structure.arch_id = required e "id";
      arch_name = required e "name";
      style = Xmlight.Doc.attr e "style";
      components = List.map component_of_element (Xmlight.Doc.find_children e "component");
      connectors = List.map connector_of_element (Xmlight.Doc.find_children e "connector");
      links = List.map link_of_element (Xmlight.Doc.find_children e "link");
    }

  let of_string s =
    match Xmlight.Parse.parse s with
    | Ok doc -> of_element doc.Xmlight.Doc.root
    | Error e -> malformed "XML error: %s" (Xmlight.Parse.error_to_string e)
end

module Mapping_reader = struct
  open Mapping

  exception Malformed of string

  let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

  let required e name =
    match Xmlight.Doc.attr e name with
    | Some v -> v
    | None -> malformed "<%s> is missing required attribute %S" e.Xmlight.Doc.tag name

  let entry_of_element e =
    {
      Types.event_type = required e "eventType";
      components = List.map (fun c -> required c "component") (Xmlight.Doc.find_children e "to");
      rationale =
        (match Xmlight.Doc.find_child e "rationale" with
        | Some r -> Xmlight.Doc.child_text r
        | None -> "");
    }

  let of_element e =
    if not (String.equal e.Xmlight.Doc.tag "mapping") then
      malformed "expected <mapping>, found <%s>" e.Xmlight.Doc.tag;
    {
      Types.mapping_id = required e "id";
      ontology_id = required e "ontology";
      architecture_id = required e "architecture";
      entries = List.map entry_of_element (Xmlight.Doc.find_children e "map");
    }

  let of_string s =
    match Xmlight.Parse.parse s with
    | Ok doc -> of_element doc.Xmlight.Doc.root
    | Error e -> malformed "XML error: %s" (Xmlight.Parse.error_to_string e)
end

module Statechart_reader = struct
  open Statechart

  exception Malformed of string

  let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

  let required e name =
    match Xmlight.Doc.attr e name with
    | Some v -> v
    | None -> malformed "<%s> is missing required attribute %S" e.Xmlight.Doc.tag name

  let rec state_of_element e =
    {
      Types.state_id = required e "id";
      state_name = Xmlight.Doc.attr_default e "name" (required e "id");
      substates = List.map state_of_element (Xmlight.Doc.find_children e "state");
      initial = Xmlight.Doc.attr e "initial";
      entry_outputs = List.map Xmlight.Doc.child_text (Xmlight.Doc.find_children e "onEntry");
      history = Xmlight.Doc.attr_default e "history" "false" = "true";
    }

  let transition_of_element e =
    {
      Types.tr_id = required e "id";
      source = required e "from";
      target = required e "to";
      trigger = required e "trigger";
      guard = Xmlight.Doc.attr e "guard";
      outputs = List.map Xmlight.Doc.child_text (Xmlight.Doc.find_children e "output");
    }

  let of_element e =
    if not (String.equal e.Xmlight.Doc.tag "statechart") then
      malformed "expected <statechart>, found <%s>" e.Xmlight.Doc.tag;
    {
      Types.chart_id = required e "id";
      component = required e "component";
      states = List.map state_of_element (Xmlight.Doc.find_children e "state");
      chart_initial = required e "initial";
      transitions = List.map transition_of_element (Xmlight.Doc.find_children e "transition");
    }

  let of_string s =
    match Xmlight.Parse.parse s with
    | Ok doc -> of_element doc.Xmlight.Doc.root
    | Error e -> malformed "XML error: %s" (Xmlight.Parse.error_to_string e)
end

module Bundle_reader = struct
  type t = Statechart.Bundle.t = { bundle_id : string; charts : Statechart.Types.t list }

  module Xml_io = Statechart_reader

  exception Malformed of string

  let of_element e =
    if not (String.equal e.Xmlight.Doc.tag "archBehavior") then
      raise (Malformed (Printf.sprintf "expected <archBehavior>, found <%s>" e.Xmlight.Doc.tag));
    let bundle_id =
      match Xmlight.Doc.attr e "id" with
      | Some id -> id
      | None -> raise (Malformed "<archBehavior> is missing id")
    in
    let charts =
      List.map
        (fun c ->
          match Xml_io.of_element c with
          | chart -> chart
          | exception Xml_io.Malformed m -> raise (Malformed m))
        (Xmlight.Doc.find_children e "statechart")
    in
    { bundle_id; charts }

  let of_string s =
    match Xmlight.Parse.parse s with
    | Ok doc -> of_element doc.Xmlight.Doc.root
    | Error e -> raise (Malformed (Xmlight.Parse.error_to_string e))
end

(* Core.Sosae.project_of_strings over the frozen readers: the first
   failing artifact, an XML error when the frozen parser rejects it,
   else the reader's schema error. *)
let parse_artifact artifact file text of_string malformed =
  match of_string text with
  | v -> Ok v
  | exception exn -> (
      match malformed exn with
      | None -> raise exn
      | Some message -> (
          match Xml_reference.parse text with
          | Error err ->
              Error
                (Core.Sosae.Xml_error
                   { artifact; file; message = Xml_reference.error_to_string err })
          | Ok _ -> Error (Core.Sosae.Schema_error { artifact; file; message })))

let project_of_strings ~scenarios ~architecture ~mapping =
  let ( let* ) = Result.bind in
  let* scenarios =
    parse_artifact Core.Sosae.Scenarios "<scenarios>" scenarios Scenarioml_reader.set_of_string
      (function Scenarioml_reader.Malformed m -> Some m | _ -> None)
  in
  let* architecture =
    parse_artifact Core.Sosae.Architecture "<architecture>" architecture Adl_reader.of_string
      (function Adl_reader.Malformed m -> Some m | _ -> None)
  in
  let* mapping =
    parse_artifact Core.Sosae.Mapping "<mapping>" mapping Mapping_reader.of_string
      (function Mapping_reader.Malformed m -> Some m | _ -> None)
  in
  Ok { Core.Sosae.scenarios; architecture; mapping }

let bundle_of_string = Bundle_reader.of_string

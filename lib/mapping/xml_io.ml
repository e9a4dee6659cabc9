exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

module X = Xmlight.Parse

let required d e name =
  match X.attr d e name with
  | Some v -> v
  | None -> malformed "<%s> is missing required attribute %S" (X.tag d e) name

let entry_to_element e =
  let targets =
    List.map
      (fun c -> Xmlight.Doc.elt ~attrs:[ ("component", c) ] "to" [])
      e.Types.components
  in
  let rationale =
    if e.Types.rationale = "" then []
    else [ Xmlight.Doc.elt "rationale" [ Xmlight.Doc.text e.Types.rationale ] ]
  in
  Xmlight.Doc.element ~attrs:[ ("eventType", e.Types.event_type) ] "map" (targets @ rationale)

let to_element t =
  Xmlight.Doc.element
    ~attrs:
      [
        ("id", t.Types.mapping_id);
        ("ontology", t.Types.ontology_id);
        ("architecture", t.Types.architecture_id);
      ]
    "mapping"
    (List.map (fun e -> Xmlight.Doc.Element (entry_to_element e)) t.Types.entries)

let to_string t = Xmlight.Print.to_string (Xmlight.Doc.doc (to_element t))

let entry_of_element d e =
  {
    Types.event_type = required d e "eventType";
    components = X.map_children d e [ "to" ] (fun c -> required d c "component");
    rationale =
      (match X.find_child d e "rationale" with
      | Some r -> X.child_text d r
      | None -> "");
  }

let of_element d e =
  if not (X.tag_is d e "mapping") then malformed "expected <mapping>, found <%s>" (X.tag d e);
  {
    Types.mapping_id = required d e "id";
    ontology_id = required d e "ontology";
    architecture_id = required d e "architecture";
    entries = X.map_children d e [ "map" ] (entry_of_element d);
  }

let of_string s =
  match X.read s of_element with
  | Ok t -> t
  | Error e -> malformed "XML error: %s" (X.error_to_string e)

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

module X = Xmlight.Parse

let required d e name =
  match X.attr d e name with
  | Some v -> v
  | None -> malformed "<%s> is missing required attribute %S" (X.tag d e) name

let direction_to_string = function
  | Structure.Provided -> "provided"
  | Structure.Required -> "required"
  | Structure.In_out -> "inout"

let direction_of_element d e =
  if X.attr_is d e "direction" "provided" then Structure.Provided
  else if X.attr_is d e "direction" "required" then Structure.Required
  else if X.attr_is d e "direction" "inout" then Structure.In_out
  else malformed "unknown interface direction %S" (required d e "direction")

let tags_to_elements tags =
  List.map
    (fun (name, value) -> Xmlight.Doc.elt ~attrs:[ ("name", name); ("value", value) ] "tag" [])
    tags

let tags_of_element d e =
  X.map_children d e [ "tag" ] (fun t -> (required d t "name", required d t "value"))

let interface_to_element i =
  Xmlight.Doc.elt
    ~attrs:
      [
        ("id", i.Structure.iface_id);
        ("name", i.Structure.iface_name);
        ("direction", direction_to_string i.Structure.direction);
      ]
    "interface"
    (tags_to_elements i.Structure.iface_tags)

let interface_of_element d e =
  {
    Structure.iface_id = required d e "id";
    iface_name = required d e "name";
    direction = direction_of_element d e;
    iface_tags = tags_of_element d e;
  }

let description_to_elements d =
  if d = "" then [] else [ Xmlight.Doc.elt "description" [ Xmlight.Doc.text d ] ]

let description_of_element d e =
  match X.find_child d e "description" with
  | Some c -> X.child_text d c
  | None -> ""

let rec component_to_element c =
  let responsibilities =
    List.map
      (fun r -> Xmlight.Doc.elt "responsibility" [ Xmlight.Doc.text r ])
      c.Structure.responsibilities
  in
  let interfaces =
    List.map interface_to_element c.Structure.comp_interfaces
  in
  let sub =
    match c.Structure.substructure with
    | Some s -> [ Xmlight.Doc.elt "subArchitecture" [ Xmlight.Doc.Element (to_element s) ] ]
    | None -> []
  in
  Xmlight.Doc.element
    ~attrs:[ ("id", c.Structure.comp_id); ("name", c.Structure.comp_name) ]
    "component"
    (description_to_elements c.Structure.comp_description
    @ responsibilities @ interfaces
    @ tags_to_elements c.Structure.comp_tags
    @ sub)

and connector_to_element c =
  Xmlight.Doc.element
    ~attrs:[ ("id", c.Structure.conn_id); ("name", c.Structure.conn_name) ]
    "connector"
    (description_to_elements c.Structure.conn_description
    @ List.map interface_to_element c.Structure.conn_interfaces
    @ tags_to_elements c.Structure.conn_tags)

and link_to_element l =
  let point tag p =
    Xmlight.Doc.elt
      ~attrs:[ ("anchor", p.Structure.anchor); ("interface", p.Structure.interface) ]
      tag []
  in
  Xmlight.Doc.element
    ~attrs:[ ("id", l.Structure.link_id) ]
    "link"
    [ point "from" l.Structure.link_from; point "to" l.Structure.link_to ]

and to_element t =
  let attrs =
    [ ("id", t.Structure.arch_id); ("name", t.Structure.arch_name) ]
    @ match t.Structure.style with Some s -> [ ("style", s) ] | None -> []
  in
  Xmlight.Doc.element ~attrs "archStructure"
    (List.map (fun c -> Xmlight.Doc.Element (component_to_element c)) t.Structure.components
    @ List.map (fun c -> Xmlight.Doc.Element (connector_to_element c)) t.Structure.connectors
    @ List.map (fun l -> Xmlight.Doc.Element (link_to_element l)) t.Structure.links)

let to_string t = Xmlight.Print.to_string (Xmlight.Doc.doc (to_element t))

let rec component_of_element d e =
  let substructure =
    match X.find_child d e "subArchitecture" with
    | Some sub -> (
        match X.find_child d sub "archStructure" with
        | Some arch -> Some (of_element d arch)
        | None -> malformed "<subArchitecture> without <archStructure>")
    | None -> None
  in
  {
    Structure.comp_id = required d e "id";
    comp_name = required d e "name";
    comp_description = description_of_element d e;
    responsibilities = X.map_children d e [ "responsibility" ] (X.child_text d);
    comp_interfaces = X.map_children d e [ "interface" ] (interface_of_element d);
    substructure;
    comp_tags = tags_of_element d e;
  }

and connector_of_element d e =
  {
    Structure.conn_id = required d e "id";
    conn_name = required d e "name";
    conn_description = description_of_element d e;
    conn_interfaces = X.map_children d e [ "interface" ] (interface_of_element d);
    conn_tags = tags_of_element d e;
  }

and link_of_element d e =
  let point tag =
    match X.find_child d e tag with
    | Some p -> { Structure.anchor = required d p "anchor"; interface = required d p "interface" }
    | None -> malformed "<link id=%S> is missing <%s>" (required d e "id") tag
  in
  { Structure.link_id = required d e "id"; link_from = point "from"; link_to = point "to" }

and of_element d e =
  if not (X.tag_is d e "archStructure") then
    malformed "expected <archStructure>, found <%s>" (X.tag d e);
  {
    Structure.arch_id = required d e "id";
    arch_name = required d e "name";
    style = X.attr d e "style";
    components = X.map_children d e [ "component" ] (component_of_element d);
    connectors = X.map_children d e [ "connector" ] (connector_of_element d);
    links = X.map_children d e [ "link" ] (link_of_element d);
  }

let of_string s =
  match X.read s of_element with
  | Ok t -> t
  | Error e -> malformed "XML error: %s" (X.error_to_string e)

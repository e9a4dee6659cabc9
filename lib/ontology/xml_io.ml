exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let opt_attr name value attrs =
  match value with Some v -> attrs @ [ (name, v) ] | None -> attrs

let class_to_element (c : Types.domain_class) =
  let attrs =
    opt_attr "super" c.Types.class_super
      [ ("id", c.Types.class_id); ("name", c.Types.class_name) ]
  in
  let children =
    if c.Types.class_description = "" then []
    else [ Xmlight.Doc.elt "description" [ Xmlight.Doc.text c.Types.class_description ] ]
  in
  Xmlight.Doc.elt ~attrs "instanceType" children

let individual_to_element (i : Types.individual) =
  let attrs =
    [ ("id", i.Types.ind_id); ("name", i.Types.ind_name); ("type", i.Types.ind_class) ]
  in
  let children =
    if i.Types.ind_description = "" then []
    else [ Xmlight.Doc.elt "description" [ Xmlight.Doc.text i.Types.ind_description ] ]
  in
  Xmlight.Doc.elt ~attrs "instance" children

let event_to_element (e : Types.event_type) =
  let attrs =
    opt_attr "actor" e.Types.actor
      (opt_attr "super" e.Types.event_super
         [ ("id", e.Types.event_id); ("name", e.Types.event_name) ])
  in
  let params =
    List.map
      (fun p ->
        Xmlight.Doc.elt
          ~attrs:[ ("name", p.Types.param_name); ("type", p.Types.param_class) ]
          "parameter" [])
      e.Types.params
  in
  let template = Xmlight.Doc.elt "template" [ Xmlight.Doc.text e.Types.template ] in
  Xmlight.Doc.elt ~attrs "eventType" (params @ [ template ])

let term_to_element (tm : Types.term) =
  Xmlight.Doc.elt
    ~attrs:[ ("id", tm.Types.term_id); ("name", tm.Types.term_name) ]
    "term"
    [ Xmlight.Doc.text tm.Types.term_definition ]

let to_element t =
  Xmlight.Doc.element
    ~attrs:[ ("id", t.Types.ontology_id); ("name", t.Types.ontology_name) ]
    "ontology"
    (List.map class_to_element t.Types.classes
    @ List.map individual_to_element t.Types.individuals
    @ List.map event_to_element t.Types.event_types
    @ List.map term_to_element t.Types.terms)

let to_string t = Xmlight.Print.to_string (Xmlight.Doc.doc (to_element t))

module X = Xmlight.Parse

let required d e name =
  match X.attr d e name with
  | Some v -> v
  | None -> malformed "<%s> is missing required attribute %S" (X.tag d e) name

let description_of d e =
  match X.find_child d e "description" with
  | Some c -> X.child_text d c
  | None -> ""

let class_of_element d e =
  {
    Types.class_id = required d e "id";
    class_name = required d e "name";
    class_description = description_of d e;
    class_super = X.attr d e "super";
  }

let individual_of_element d e =
  {
    Types.ind_id = required d e "id";
    ind_name = required d e "name";
    ind_class = required d e "type";
    ind_description = description_of d e;
  }

let event_of_element d e =
  let params =
    X.map_children d e [ "parameter" ] (fun p ->
        { Types.param_name = required d p "name"; param_class = required d p "type" })
  in
  let template =
    match X.find_child d e "template" with
    | Some t -> X.child_text d t
    | None -> malformed "<eventType id=%S> is missing <template>" (required d e "id")
  in
  {
    Types.event_id = required d e "id";
    event_name = required d e "name";
    template;
    event_super = X.attr d e "super";
    params;
    actor = X.attr d e "actor";
  }

let term_of_element d e =
  {
    Types.term_id = required d e "id";
    term_name = required d e "name";
    term_definition = X.child_text d e;
  }

let of_element d e =
  if not (X.tag_is d e "ontology") then malformed "expected <ontology>, found <%s>" (X.tag d e);
  {
    Types.ontology_id = required d e "id";
    ontology_name = required d e "name";
    classes = X.map_children d e [ "instanceType" ] (class_of_element d);
    individuals = X.map_children d e [ "instance" ] (individual_of_element d);
    event_types = X.map_children d e [ "eventType" ] (event_of_element d);
    terms = X.map_children d e [ "term" ] (term_of_element d);
  }

let of_string s =
  match X.read s of_element with
  | Ok t -> t
  | Error e -> malformed "XML error: %s" (X.error_to_string e)

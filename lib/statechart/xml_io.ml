exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

module X = Xmlight.Parse

let required d e name =
  match X.attr d e name with
  | Some v -> v
  | None -> malformed "<%s> is missing required attribute %S" (X.tag d e) name

let rec state_to_element s =
  let attrs =
    [ ("id", s.Types.state_id); ("name", s.Types.state_name) ]
    @ (match s.Types.initial with Some i -> [ ("initial", i) ] | None -> [])
    @ if s.Types.history then [ ("history", "true") ] else []
  in
  Xmlight.Doc.element ~attrs "state"
    (List.map
       (fun o -> Xmlight.Doc.elt "onEntry" [ Xmlight.Doc.text o ])
       s.Types.entry_outputs
    @ List.map (fun c -> Xmlight.Doc.Element (state_to_element c)) s.Types.substates)

let transition_to_element tr =
  let attrs =
    [
      ("id", tr.Types.tr_id);
      ("from", tr.Types.source);
      ("to", tr.Types.target);
      ("trigger", tr.Types.trigger);
    ]
    @ match tr.Types.guard with Some g -> [ ("guard", g) ] | None -> []
  in
  Xmlight.Doc.element ~attrs "transition"
    (List.map (fun o -> Xmlight.Doc.elt "output" [ Xmlight.Doc.text o ]) tr.Types.outputs)

let to_element t =
  Xmlight.Doc.element
    ~attrs:
      [
        ("id", t.Types.chart_id);
        ("component", t.Types.component);
        ("initial", t.Types.chart_initial);
      ]
    "statechart"
    (List.map (fun s -> Xmlight.Doc.Element (state_to_element s)) t.Types.states
    @ List.map (fun tr -> Xmlight.Doc.Element (transition_to_element tr)) t.Types.transitions)

let to_string t = Xmlight.Print.to_string (Xmlight.Doc.doc (to_element t))

let rec state_of_element d e =
  {
    Types.state_id = required d e "id";
    state_name = X.attr_default d e "name" (required d e "id");
    substates = X.map_children d e [ "state" ] (state_of_element d);
    initial = X.attr d e "initial";
    entry_outputs = X.map_children d e [ "onEntry" ] (X.child_text d);
    history = X.attr_is d e "history" "true";
  }

let transition_of_element d e =
  {
    Types.tr_id = required d e "id";
    source = required d e "from";
    target = required d e "to";
    trigger = required d e "trigger";
    guard = X.attr d e "guard";
    outputs = X.map_children d e [ "output" ] (X.child_text d);
  }

let of_element d e =
  if not (X.tag_is d e "statechart") then malformed "expected <statechart>, found <%s>" (X.tag d e);
  {
    Types.chart_id = required d e "id";
    component = required d e "component";
    states = X.map_children d e [ "state" ] (state_of_element d);
    chart_initial = required d e "initial";
    transitions = X.map_children d e [ "transition" ] (transition_of_element d);
  }

let of_string s =
  match X.read s of_element with
  | Ok t -> t
  | Error e -> malformed "XML error: %s" (X.error_to_string e)

type entry = { event_type : string; components : string list; rationale : string }

type t = {
  mapping_id : string;
  ontology_id : string;
  architecture_id : string;
  entries : entry list;
}

let empty ~id ~ontology_id ~architecture_id =
  { mapping_id = id; ontology_id; architecture_id; entries = [] }

let find t event_type =
  List.find_opt (fun e -> String.equal e.event_type event_type) t.entries

let components_of t event_type =
  match find t event_type with Some e -> e.components | None -> []

let mapped_event_types t = List.map (fun e -> e.event_type) t.entries

let mapped_components t =
  List.fold_left
    (fun acc e ->
      List.fold_left
        (fun acc c -> if List.exists (String.equal c) acc then acc else acc @ [ c ])
        acc e.components)
    [] t.entries

let link_count t = List.fold_left (fun acc e -> acc + List.length e.components) 0 t.entries

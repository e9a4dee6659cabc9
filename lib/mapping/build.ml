exception Duplicate of string

let create ~id ~ontology ~architecture =
  Types.empty ~id ~ontology_id:ontology.Ontology.Types.ontology_id
    ~architecture_id:architecture.Adl.Structure.arch_id

let map ?(rationale = "") ~event_type ~to_ t =
  if Types.find t event_type <> None then raise (Duplicate event_type);
  { t with Types.entries = t.Types.entries @ [ { Types.event_type; components = to_; rationale } ] }

let extend ~event_type ~to_ t =
  match Types.find t event_type with
  | None -> map ~event_type ~to_ t
  | Some e ->
      let components =
        List.fold_left
          (fun acc c -> if List.exists (String.equal c) acc then acc else acc @ [ c ])
          e.Types.components to_
      in
      {
        t with
        Types.entries =
          List.map
            (fun x ->
              if String.equal x.Types.event_type event_type then { x with Types.components }
              else x)
            t.Types.entries;
      }

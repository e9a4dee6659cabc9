type op =
  | Add_component of Structure.component
  | Remove_component of string
  | Add_connector of Structure.connector
  | Remove_connector of string
  | Add_link of Structure.link
  | Remove_link of string
  | Rename_element of { old_id : string; new_id : string }

exception Apply_error of string

let apply_error fmt = Format.kasprintf (fun s -> raise (Apply_error s)) fmt

let links_not_anchored_at t id =
  List.filter
    (fun l ->
      (not (String.equal l.Structure.link_from.Structure.anchor id))
      && not (String.equal l.Structure.link_to.Structure.anchor id))
    t.Structure.links

let apply t op =
  match op with
  | Add_component c ->
      if List.exists (String.equal c.Structure.comp_id) (Structure.brick_ids t) then
        apply_error "add component: id %S already exists" c.Structure.comp_id;
      { t with Structure.components = t.Structure.components @ [ c ] }
  | Remove_component id ->
      if Structure.find_component t id = None then
        apply_error "remove component: unknown id %S" id;
      {
        t with
        Structure.components =
          List.filter (fun c -> not (String.equal c.Structure.comp_id id)) t.Structure.components;
        links = links_not_anchored_at t id;
      }
  | Add_connector c ->
      if List.exists (String.equal c.Structure.conn_id) (Structure.brick_ids t) then
        apply_error "add connector: id %S already exists" c.Structure.conn_id;
      { t with Structure.connectors = t.Structure.connectors @ [ c ] }
  | Remove_connector id ->
      if Structure.find_connector t id = None then
        apply_error "remove connector: unknown id %S" id;
      {
        t with
        Structure.connectors =
          List.filter (fun c -> not (String.equal c.Structure.conn_id id)) t.Structure.connectors;
        links = links_not_anchored_at t id;
      }
  | Add_link l ->
      if List.exists (fun x -> String.equal x.Structure.link_id l.Structure.link_id) t.Structure.links
      then apply_error "add link: id %S already exists" l.Structure.link_id;
      if Structure.find_interface t l.Structure.link_from = None then
        apply_error "add link %S: endpoint %s.%s does not resolve" l.Structure.link_id
          l.Structure.link_from.Structure.anchor l.Structure.link_from.Structure.interface;
      if Structure.find_interface t l.Structure.link_to = None then
        apply_error "add link %S: endpoint %s.%s does not resolve" l.Structure.link_id
          l.Structure.link_to.Structure.anchor l.Structure.link_to.Structure.interface;
      { t with Structure.links = t.Structure.links @ [ l ] }
  | Remove_link id ->
      if not (List.exists (fun l -> String.equal l.Structure.link_id id) t.Structure.links) then
        apply_error "remove link: unknown id %S" id;
      {
        t with
        Structure.links =
          List.filter (fun l -> not (String.equal l.Structure.link_id id)) t.Structure.links;
      }
  | Rename_element { old_id; new_id } ->
      if Structure.find_component t old_id = None && Structure.find_connector t old_id = None
      then apply_error "rename: unknown id %S" old_id;
      if List.exists (String.equal new_id) (Structure.brick_ids t) then
        apply_error "rename: id %S already exists" new_id;
      let rename_point p =
        if String.equal p.Structure.anchor old_id then { p with Structure.anchor = new_id }
        else p
      in
      {
        t with
        Structure.components =
          List.map
            (fun c ->
              if String.equal c.Structure.comp_id old_id then
                { c with Structure.comp_id = new_id }
              else c)
            t.Structure.components;
        connectors =
          List.map
            (fun c ->
              if String.equal c.Structure.conn_id old_id then
                { c with Structure.conn_id = new_id }
              else c)
            t.Structure.connectors;
        links =
          List.map
            (fun l ->
              {
                l with
                Structure.link_from = rename_point l.Structure.link_from;
                link_to = rename_point l.Structure.link_to;
              })
            t.Structure.links;
      }

let apply_all t ops = List.fold_left apply t ops

let excise_ops t a b =
  let between l =
    let fa = l.Structure.link_from.Structure.anchor in
    let ta = l.Structure.link_to.Structure.anchor in
    (String.equal fa a && String.equal ta b) || (String.equal fa b && String.equal ta a)
  in
  match List.filter between t.Structure.links with
  | [] -> apply_error "no link between %S and %S" a b
  | doomed -> List.map (fun l -> Remove_link l.Structure.link_id) doomed

let excise_link_between t a b = apply_all t (excise_ops t a b)

let diff a b =
  let link_ids t = List.map (fun l -> l.Structure.link_id) t.Structure.links in
  let removed_links =
    List.filter_map
      (fun id ->
        if List.exists (String.equal id) (link_ids b) then None else Some (Remove_link id))
      (link_ids a)
  in
  (* Elements present on both sides but structurally changed are
     replaced: removed (which prunes their links) and re-added, with the
     pruned-but-surviving links re-added afterwards. *)
  let replaced_components =
    List.filter
      (fun c ->
        match Structure.find_component a c.Structure.comp_id with
        | Some old -> old <> c
        | None -> false)
      b.Structure.components
  in
  let replaced_connectors =
    List.filter
      (fun c ->
        match Structure.find_connector a c.Structure.conn_id with
        | Some old -> old <> c
        | None -> false)
      b.Structure.connectors
  in
  let replaced_ids =
    List.map (fun c -> c.Structure.comp_id) replaced_components
    @ List.map (fun c -> c.Structure.conn_id) replaced_connectors
  in
  let readded_links =
    List.filter_map
      (fun l ->
        let anchored_at_replaced =
          List.exists (String.equal l.Structure.link_from.Structure.anchor) replaced_ids
          || List.exists (String.equal l.Structure.link_to.Structure.anchor) replaced_ids
        in
        if anchored_at_replaced && List.exists (String.equal l.Structure.link_id) (link_ids a)
        then Some (Add_link l)
        else None)
      b.Structure.links
  in
  let replace_ops =
    List.concat_map
      (fun c -> [ Remove_component c.Structure.comp_id; Add_component c ])
      replaced_components
    @ List.concat_map
        (fun c -> [ Remove_connector c.Structure.conn_id; Add_connector c ])
        replaced_connectors
  in
  let removed_components =
    List.filter_map
      (fun c ->
        if Structure.find_component b c.Structure.comp_id = None then
          Some (Remove_component c.Structure.comp_id)
        else None)
      a.Structure.components
  in
  let removed_connectors =
    List.filter_map
      (fun c ->
        if Structure.find_connector b c.Structure.conn_id = None then
          Some (Remove_connector c.Structure.conn_id)
        else None)
      a.Structure.connectors
  in
  let added_components =
    List.filter_map
      (fun c ->
        if Structure.find_component a c.Structure.comp_id = None then Some (Add_component c)
        else None)
      b.Structure.components
  in
  let added_connectors =
    List.filter_map
      (fun c ->
        if Structure.find_connector a c.Structure.conn_id = None then Some (Add_connector c)
        else None)
      b.Structure.connectors
  in
  let added_links =
    List.filter_map
      (fun l ->
        if List.exists (String.equal l.Structure.link_id) (link_ids a) then None
        else Some (Add_link l))
      b.Structure.links
  in
  removed_links @ removed_components @ removed_connectors @ replace_ops
  @ added_components @ added_connectors @ added_links @ readded_links

(* Walk a supertype chain with a fuel bound so malformed (cyclic)
   ontologies terminate. *)
let chain size super_of start =
  let rec loop acc fuel id =
    if fuel <= 0 then List.rev acc
    else
      match super_of id with
      | Some parent -> loop (parent :: acc) (fuel - 1) parent
      | None -> List.rev acc
  in
  loop [] size start

let class_super t id =
  match Types.find_class t id with
  | Some c -> c.Types.class_super
  | None -> None

let event_super t id =
  match Types.find_event_type t id with
  | Some e -> e.Types.event_super
  | None -> None

let class_ancestors t id = chain (Types.size t + 1) (class_super t) id

let event_ancestors t id = chain (Types.size t + 1) (event_super t) id

let class_subsumes t ~super ~sub =
  String.equal super sub || List.exists (String.equal super) (class_ancestors t sub)

let event_subsumes t ~super ~sub =
  String.equal super sub || List.exists (String.equal super) (event_ancestors t sub)

let class_descendants t id =
  List.filter_map
    (fun c ->
      let cid = c.Types.class_id in
      if (not (String.equal cid id)) && class_subsumes t ~super:id ~sub:cid then Some cid
      else None)
    t.Types.classes

let event_roots t =
  List.filter (fun e -> e.Types.event_super = None) t.Types.event_types

let inherited_params t et =
  let ancestors = List.rev (event_ancestors t et.Types.event_id) in
  let of_id id =
    match Types.find_event_type t id with Some e -> e.Types.params | None -> []
  in
  let all = List.concat_map of_id ancestors @ et.Types.params in
  (* Later (more specific) declarations shadow earlier ones by name. *)
  let keep p rest =
    not (List.exists (fun q -> String.equal q.Types.param_name p.Types.param_name) rest)
  in
  let rec dedup = function
    | [] -> []
    | p :: rest -> if keep p rest then p :: dedup rest else dedup rest
  in
  dedup all

let individuals_of_class t id =
  List.filter (fun i -> class_subsumes t ~super:id ~sub:i.Types.ind_class) t.Types.individuals

let common_event_ancestor t a b =
  let self_and_ancestors id = id :: event_ancestors t id in
  let bs = self_and_ancestors b in
  List.find_opt (fun x -> List.exists (String.equal x) bs) (self_and_ancestors a)

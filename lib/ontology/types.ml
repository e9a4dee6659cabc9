type param = { param_name : string; param_class : string }

type domain_class = {
  class_id : string;
  class_name : string;
  class_description : string;
  class_super : string option;
}

type individual = {
  ind_id : string;
  ind_name : string;
  ind_class : string;
  ind_description : string;
}

type event_type = {
  event_id : string;
  event_name : string;
  template : string;
  event_super : string option;
  params : param list;
  actor : string option;
}

type term = { term_id : string; term_name : string; term_definition : string }

type t = {
  ontology_id : string;
  ontology_name : string;
  classes : domain_class list;
  individuals : individual list;
  event_types : event_type list;
  terms : term list;
}

let empty ~id ~name =
  { ontology_id = id; ontology_name = name; classes = []; individuals = []; event_types = []; terms = [] }

let find_class t id = List.find_opt (fun c -> String.equal c.class_id id) t.classes

let find_individual t id = List.find_opt (fun i -> String.equal i.ind_id id) t.individuals

let find_event_type t id = List.find_opt (fun e -> String.equal e.event_id id) t.event_types

let find_term t id = List.find_opt (fun tm -> String.equal tm.term_id id) t.terms

let event_type_exn t id =
  match find_event_type t id with Some e -> e | None -> raise Not_found

let size t =
  List.length t.classes + List.length t.individuals + List.length t.event_types
  + List.length t.terms

(* Substitute "{name}" placeholders; single pass, left to right. *)
let expand_template et args =
  let s = et.template in
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i >= n then ()
    else if s.[i] = '{' then begin
      match String.index_from_opt s i '}' with
      | Some j ->
          let key = String.sub s (i + 1) (j - i - 1) in
          (match List.assoc_opt key args with
          | Some v -> Buffer.add_string buf v
          | None ->
              Buffer.add_char buf '{';
              Buffer.add_string buf key;
              Buffer.add_char buf '}');
          loop (j + 1)
      | None ->
          Buffer.add_char buf '{';
          loop (i + 1)
    end
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0;
  Buffer.contents buf

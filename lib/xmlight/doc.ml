type attribute = { attr_name : string; attr_value : string }

type node =
  | Element of element
  | Text of string
  | Comment of string
  | Pi of string * string

and element = {
  tag : string;
  attrs : attribute list;
  children : node list;
}

type t = { decl : attribute list; root : element }

let element ?(attrs = []) tag children =
  let attrs =
    List.map (fun (attr_name, attr_value) -> { attr_name; attr_value }) attrs
  in
  { tag; attrs; children }

let elt ?attrs tag children = Element (element ?attrs tag children)

let text s = Text s

let doc root =
  {
    decl =
      [
        { attr_name = "version"; attr_value = "1.0" };
        { attr_name = "encoding"; attr_value = "UTF-8" };
      ];
    root;
  }

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

let is_blank s =
  let blank = ref true in
  String.iter (fun c -> if not (c = ' ' || c = '\t' || c = '\n' || c = '\r') then blank := false) s;
  !blank

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

let descendants e tag =
  let rec walk acc c =
    let acc = if String.equal c.tag tag then c :: acc else acc in
    List.fold_left walk acc (children_elements c)
  in
  List.rev (List.fold_left walk [] (children_elements e))

let significant_children e =
  List.filter
    (function
      | Element _ -> true
      | Text s -> not (is_blank s)
      | Comment _ | Pi _ -> false)
    e.children

let equal_attribute a b =
  String.equal a.attr_name b.attr_name && String.equal a.attr_value b.attr_value

let rec equal_element a b =
  String.equal a.tag b.tag
  && List.length a.attrs = List.length b.attrs
  && List.for_all2 equal_attribute a.attrs b.attrs
  && equal_nodes (significant_children a) (significant_children b)

and equal_nodes xs ys =
  match (xs, ys) with
  | [], [] -> true
  | Element a :: xs, Element b :: ys -> equal_element a b && equal_nodes xs ys
  | Text a :: xs, Text b :: ys ->
      String.equal (String.trim a) (String.trim b) && equal_nodes xs ys
  | _, _ -> false

let rec node_count e =
  List.fold_left
    (fun acc n -> match n with Element c -> acc + node_count c | Text _ | Comment _ | Pi _ -> acc)
    1 e.children

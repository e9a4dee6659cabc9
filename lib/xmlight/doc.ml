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

let is_blank s =
  let blank = ref true in
  String.iter (fun c -> if not (c = ' ' || c = '\t' || c = '\n' || c = '\r') then blank := false) s;
  !blank

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

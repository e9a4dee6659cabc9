let escape gen s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when not gen -> Buffer.add_string buf "&quot;"
      | '\'' when not gen -> Buffer.add_string buf "&apos;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_text = escape true

let escape_attr = escape false

let add_attrs buf attrs =
  List.iter
    (fun a ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf a.Doc.attr_name;
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_attr a.Doc.attr_value);
      Buffer.add_char buf '"')
    attrs

(* An element is "inline" when all its children are text: we print it on
   one line to avoid injecting whitespace into its character data. *)
let inline e =
  List.for_all
    (function Doc.Text _ -> true | Doc.Element _ | Doc.Comment _ | Doc.Pi _ -> false)
    e.Doc.children

let rec add_element buf indent level e =
  let pad = String.make (indent * level) ' ' in
  Buffer.add_string buf pad;
  Buffer.add_char buf '<';
  Buffer.add_string buf e.Doc.tag;
  add_attrs buf e.Doc.attrs;
  match e.Doc.children with
  | [] -> Buffer.add_string buf "/>"
  | children when inline e ->
      Buffer.add_char buf '>';
      List.iter
        (function
          | Doc.Text s -> Buffer.add_string buf (escape_text s)
          | Doc.Element _ | Doc.Comment _ | Doc.Pi _ -> ())
        children;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.Doc.tag;
      Buffer.add_char buf '>'
  | children ->
      Buffer.add_char buf '>';
      List.iter
        (fun n ->
          Buffer.add_char buf '\n';
          add_node buf indent (level + 1) n)
        children;
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_string buf "</";
      Buffer.add_string buf e.Doc.tag;
      Buffer.add_char buf '>'

and add_node buf indent level = function
  | Doc.Element e -> add_element buf indent level e
  | Doc.Text s ->
      Buffer.add_string buf (String.make (indent * level) ' ');
      Buffer.add_string buf (escape_text (String.trim s))
  | Doc.Comment s ->
      Buffer.add_string buf (String.make (indent * level) ' ');
      Buffer.add_string buf "<!--";
      Buffer.add_string buf s;
      Buffer.add_string buf "-->"
  | Doc.Pi (target, content) ->
      Buffer.add_string buf (String.make (indent * level) ' ');
      Buffer.add_string buf "<?";
      Buffer.add_string buf target;
      Buffer.add_char buf ' ';
      Buffer.add_string buf content;
      Buffer.add_string buf "?>"

let element_to_string ?(indent = 2) e =
  let buf = Buffer.create 256 in
  add_element buf indent 0 e;
  Buffer.contents buf

let to_string ?(indent = 2) d =
  let buf = Buffer.create 256 in
  if d.Doc.decl <> [] then begin
    Buffer.add_string buf "<?xml";
    add_attrs buf d.Doc.decl;
    Buffer.add_string buf "?>\n"
  end;
  add_element buf indent 0 d.Doc.root;
  Buffer.add_char buf '\n';
  Buffer.contents buf

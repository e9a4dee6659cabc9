(* Unit and property tests for the XML substrate. *)

let parse_ok s =
  match Xmlight.Parse.parse s with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse error: %s" (Xmlight.Parse.error_to_string e)

let parse_err s =
  match Xmlight.Parse.parse s with
  | Ok _ -> Alcotest.failf "expected a parse error on %S" s
  | Error e -> e

(* [f] applied in place to the lexed document's root *)
let read_ok s f =
  match Xmlight.Parse.read s f with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse error: %s" (Xmlight.Parse.error_to_string e)

let root_text s = read_ok s Xmlight.Parse.child_text

let test_minimal () =
  let doc = parse_ok "<root/>" in
  Alcotest.(check string) "tag" "root" doc.Xmlight.Doc.root.Xmlight.Doc.tag;
  Alcotest.(check int) "no children" 0 (List.length doc.Xmlight.Doc.root.Xmlight.Doc.children)

let test_declaration () =
  let doc = parse_ok "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>" in
  Alcotest.(check int) "decl attrs" 2 (List.length doc.Xmlight.Doc.decl)

let test_attributes () =
  let input = "<a x=\"1\" y='two' z=\"a&amp;b\" xy=\"3\"/>" in
  Alcotest.(check (list (pair string string)))
    "tree"
    [ ("x", "1"); ("y", "two"); ("z", "a&b"); ("xy", "3") ]
    (List.map
       (fun a -> (a.Xmlight.Doc.attr_name, a.Xmlight.Doc.attr_value))
       (parse_ok input).Xmlight.Doc.root.Xmlight.Doc.attrs);
  read_ok input (fun d root ->
      let module P = Xmlight.Parse in
      Alcotest.(check (option string)) "x" (Some "1") (P.attr d root "x");
      Alcotest.(check (option string)) "y" (Some "two") (P.attr d root "y");
      Alcotest.(check (option string)) "z" (Some "a&b") (P.attr d root "z");
      Alcotest.(check (option string)) "xy" (Some "3") (P.attr d root "xy");
      Alcotest.(check (option string)) "missing" None (P.attr d root "w");
      Alcotest.(check (option string)) "a prefix of a name" None (P.attr d root "x-");
      Alcotest.(check string) "default" "d" (P.attr_default d root "w" "d");
      Alcotest.(check bool) "decoded value" true (P.attr_is d root "z" "a&b");
      Alcotest.(check bool) "other value" false (P.attr_is d root "x" "2");
      Alcotest.(check bool) "absent" false (P.attr_is d root "w" ""))

let test_text_and_entities () =
  Alcotest.(check string) "text" "x <> & \"' y"
    (root_text "<a>x &lt;&gt; &amp; &quot;&apos; y</a>");
  Alcotest.(check string) "trimmed after decoding" "a" (root_text "<a>&#32;a&#9;</a>");
  Alcotest.(check string) "pieces concatenated" "x  y & z"
    (root_text "<a> x <!-- c --> y &amp; <![CDATA[z]]><b>not</b> </a>")

let test_numeric_entities () =
  Alcotest.(check string) "decoded" "AB" (root_text "<a>&#65;&#x42;</a>")

let rec elements e =
  List.fold_left
    (fun acc n ->
      match n with
      | Xmlight.Doc.Element c -> acc + elements c
      | Xmlight.Doc.Text _ | Xmlight.Doc.Comment _ | Xmlight.Doc.Pi _ -> acc)
    1 e.Xmlight.Doc.children

let test_nested_structure () =
  let input = "<a><b><c/></b><b/><d>t</d></a>" in
  Alcotest.(check int) "node count" 5 (elements (parse_ok input).Xmlight.Doc.root);
  read_ok input (fun d root ->
      let module P = Xmlight.Parse in
      Alcotest.(check int) "bs" 2 (List.length (P.map_children d root [ "b" ] Fun.id));
      Alcotest.(check (list string)) "b and d" [ "b"; "b"; "d" ]
        (P.map_children d root [ "d"; "b" ] (P.tag d));
      Alcotest.(check bool) "c under first b" true
        (match P.find_child d root "b" with
        | Some b -> P.find_child d b "c" <> None
        | None -> false);
      Alcotest.(check bool) "no c under a" true (P.find_child d root "c" = None))

let test_comments_and_pi () =
  let input = "<!-- before --><a><!-- in --><?target data?><b/></a><!-- after -->" in
  Alcotest.(check bool) "content" true
    ((parse_ok input).Xmlight.Doc.root.Xmlight.Doc.children
    = [ Xmlight.Doc.Comment " in "; Xmlight.Doc.Pi ("target", "data"); Xmlight.Doc.elt "b" [] ]);
  Alcotest.(check int) "element children" 1
    (read_ok input (fun d root -> List.length (Xmlight.Parse.map_children d root [ "b" ] Fun.id)))

let test_cdata () =
  Alcotest.(check string) "cdata text" "<raw> & stuff"
    (root_text "<a><![CDATA[<raw> & stuff]]></a>")

let test_doctype_skipped () =
  let doc = parse_ok "<!DOCTYPE a [ <!ELEMENT a EMPTY> ]><a/>" in
  Alcotest.(check string) "root" "a" doc.Xmlight.Doc.root.Xmlight.Doc.tag

let test_errors () =
  let e = parse_err "<a><b></a>" in
  Alcotest.(check bool) "mismatch mentioned" true
    (String.length e.Xmlight.Parse.message > 0);
  ignore (parse_err "<a>");
  ignore (parse_err "");
  ignore (parse_err "<a/><b/>");
  ignore (parse_err "<a x=1/>");
  ignore (parse_err "<a>&unknown;</a>");
  (* character references are XML 1.0 §4.1's decimal and hex forms,
     not OCaml integer literals *)
  List.iter
    (fun r ->
      Alcotest.(check string) r ("bad character reference " ^ r)
        (parse_err ("<a>" ^ r ^ "</a>")).Xmlight.Parse.message)
    [ "&#0b101;"; "&#0o17;"; "&#1_0;"; "&#+5;"; "&#X41;"; "&#-1;"; "&#;"; "&#x;" ]

let test_surrogate_references () =
  List.iter
    (fun r ->
      Alcotest.(check string) r "character reference out of range"
        (parse_err (Printf.sprintf "<a v=\"%s\"/>" r)).Xmlight.Parse.message)
    [ "&#xD800;"; "&#xDFFF;"; "&#55296;"; "&#x110000;"; "&#99999999999999999999999;" ];
  Alcotest.(check string) "the scalar values beside them decode"
    "\xed\x9f\xbf\xee\x80\x80\xf4\x8f\xbf\xbf"
    (root_text "<a>&#xD7FF;&#xE000;&#x10FFFF;</a>")

let test_error_position () =
  let e = parse_err "<a>\n  <b>\n</a>" in
  Alcotest.(check bool) "line > 1" true (e.Xmlight.Parse.position.Xmlight.Parse.line > 1);
  (* columns count bytes: the two-byte e-acute puts '<' in column 3 *)
  let e = parse_err "<a>\n\xc3\xa9<!x</a>" in
  Alcotest.(check (pair int int)) "line:column" (2, 3)
    (e.Xmlight.Parse.position.Xmlight.Parse.line, e.Xmlight.Parse.position.Xmlight.Parse.column)

let test_print_escapes () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;" (Xmlight.Print.escape_text "a&b<c>");
  Alcotest.(check string) "attr" "&quot;x&apos;" (Xmlight.Print.escape_attr "\"x'")

let test_print_parse_roundtrip () =
  let e =
    Xmlight.Doc.element ~attrs:[ ("id", "r&d"); ("n", "<1>") ] "root"
      [
        Xmlight.Doc.elt "inline" [ Xmlight.Doc.text "hello <world> & co" ];
        Xmlight.Doc.elt ~attrs:[ ("k", "v") ] "empty" [];
        Xmlight.Doc.elt "nested" [ Xmlight.Doc.elt "deep" [ Xmlight.Doc.text "t" ] ];
      ]
  in
  let printed = Xmlight.Print.to_string (Xmlight.Doc.doc e) in
  let reparsed = parse_ok printed in
  Alcotest.(check bool) "equal" true (Xmlight.Doc.equal_element e reparsed.Xmlight.Doc.root)

let nested depth =
  String.concat "" (List.init depth (fun _ -> "<a>"))
  ^ String.concat "" (List.init depth (fun _ -> "</a>"))

let test_depth_limit () =
  Alcotest.(check int) "512 deep parses" 512 (elements (parse_ok (nested 512)).Xmlight.Doc.root);
  let e = parse_err (nested 513) in
  Alcotest.(check string) "the 513th start tag" "1:1537: element nesting deeper than 512"
    (Xmlight.Parse.error_to_string e);
  let e = parse_err ("<r>\n" ^ String.concat "\n" (List.init 600 (fun _ -> "  <a>"))) in
  Alcotest.(check string) "at that element's line:column" "513:3: element nesting deeper than 512"
    (Xmlight.Parse.error_to_string e);
  (* 500k nested elements, 3.5 MB: refused at the 513th, not at the end *)
  let deep = nested 500_000 in
  let t0 = Unix.gettimeofday () in
  let e = parse_err deep in
  Alcotest.(check string) "hostile depth" "1:1537: element nesting deeper than 512"
    (Xmlight.Parse.error_to_string e);
  Alcotest.(check bool) "at once" true (Unix.gettimeofday () -. t0 < 0.05)

(* --- property: print . parse = id on random documents --- *)

let gen_name =
  QCheck2.Gen.(
    let* first = oneofl [ 'a'; 'b'; 'x'; 't' ] in
    let* rest = string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '1'; '-' ]) (int_range 0 6) in
    return (Printf.sprintf "%c%s" first rest))

let gen_text =
  QCheck2.Gen.string_size
    ~gen:(QCheck2.Gen.oneofl [ 'a'; 'z'; ' '; '&'; '<'; '>'; '"'; '\'' ])
    (QCheck2.Gen.int_range 1 12)

let gen_element =
  QCheck2.Gen.(
    sized_size (int_range 0 3) @@ fix (fun self n ->
        let* tag = gen_name in
        let* attrs =
          list_size (int_range 0 3)
            (let* k = gen_name in
             let* v = gen_text in
             return (k, v))
        in
        (* attribute names must be unique within an element *)
        let attrs =
          List.fold_left
            (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
            [] attrs
        in
        if n = 0 then
          let* txt = gen_text in
          return (Xmlight.Doc.element ~attrs tag [ Xmlight.Doc.text txt ])
        else
          let* children = list_size (int_range 0 3) (self (n - 1)) in
          return
            (Xmlight.Doc.element ~attrs tag
               (List.map (fun c -> Xmlight.Doc.Element c) children))))

let prop_roundtrip =
  QCheck2.Test.make ~name:"print then parse preserves the document" ~count:200 gen_element
    (fun e ->
      let printed = Xmlight.Print.to_string (Xmlight.Doc.doc e) in
      match Xmlight.Parse.parse printed with
      | Ok doc -> Xmlight.Doc.equal_element e doc.Xmlight.Doc.root
      | Error _ -> false)

(* --- property: the in-place lexer agrees with the frozen reference --- *)

(* Same tree under structural equality (whitespace text, comments and
   PIs included), or the same message at the same line:column. *)
let same_outcome input =
  match (Xmlight.Parse.parse input, Xml_reference.parse input) with
  | Ok a, Ok b -> a = b
  | Error a, Error b ->
      a.Xmlight.Parse.message = b.Xml_reference.message
      && a.Xmlight.Parse.position.Xmlight.Parse.line = b.Xml_reference.position.Xml_reference.line
      && a.Xmlight.Parse.position.Xmlight.Parse.column
         = b.Xml_reference.position.Xml_reference.column
  | Ok _, Error _ | Error _, Ok _ -> false

(* Tokens that can stand in element content, and tokens that mostly
   break a document; soups draw three of the first to one of the second,
   and half of them are wrapped in a root element. *)
let content_tokens =
  [ "a"; "b"; "n-1"; " "; "\n"; "\r"; "\t"; ">"; "="; "\""; "'"; ";"; "["; "]"; "&lt;"; "&gt;";
    "&amp;"; "&apos;"; "&quot;"; "&#65;"; "&#x41;"; "<a/>"; "<a>"; "</a>"; "<b k='v'>"; "</b>";
    "<!-- c -->"; "<![CDATA[ c ]]>"; "<?p d?>" ]

let raw_tokens =
  [ "<"; "/>"; "</"; "&"; "#"; "x"; "&#xD800;"; "<!--"; "-->"; "<![CDATA["; "]]>"; "<?"; "?>";
    "<?xml"; "<!DOCTYPE" ]

let soup_tokens = content_tokens @ raw_tokens

let gen_soup =
  QCheck2.Gen.(
    let token = frequency [ (3, oneofl content_tokens); (1, oneofl raw_tokens) ] in
    let* body = map (String.concat "") (list_size (int_range 0 30) token) in
    oneofl [ body; "<r>" ^ body ^ "</r>" ])

(* The PIMS and CRASH artifacts as Xml_io prints them, the documents
   sosae serve parses on every create. *)
let artifacts =
  lazy
    (let open Casestudies in
     [
       ("pims-scenarios", Scenarioml.Xml_io.set_to_string Pims.scenario_set);
       ("pims-architecture", Adl.Xml_io.to_string Pims.architecture);
       ("pims-mapping", Mapping.Xml_io.to_string Pims.mapping);
       ("crash-scenarios", Scenarioml.Xml_io.set_to_string Crash.entity_scenario_set);
       ("crash-architecture", Adl.Xml_io.to_string Crash.entity_architecture);
       ("crash-mapping", Mapping.Xml_io.to_string Crash.entity_mapping);
     ])

type edit = Truncate of int | Delete of int * int | Insert of int * string

(* Offsets are drawn large and taken modulo the length of the document
   at the time the edit applies. *)
let apply_edit s = function
  | Truncate at -> String.sub s 0 (at mod (String.length s + 1))
  | Delete (at, len) ->
      let at = at mod (String.length s + 1) in
      let len = min len (String.length s - at) in
      String.sub s 0 at ^ String.sub s (at + len) (String.length s - at - len)
  | Insert (at, tok) ->
      let at = at mod (String.length s + 1) in
      String.sub s 0 at ^ tok ^ String.sub s at (String.length s - at)

let gen_edit =
  QCheck2.Gen.(
    let at = int_bound 1_000_000 in
    frequency
      [
        (1, map (fun a -> Truncate a) at);
        (3, map2 (fun a l -> Delete (a, l)) at (int_range 1 8));
        (4, map2 (fun a t -> Insert (a, t)) at (oneofl soup_tokens));
      ])

let print_edit = function
  | Truncate a -> Printf.sprintf "truncate %d" a
  | Delete (a, l) -> Printf.sprintf "delete %d+%d" a l
  | Insert (a, t) -> Printf.sprintf "insert %d %S" a t

let prop_lexer_matches_reference_soup =
  QCheck2.Test.make ~name:"lexer = reference parser on token soups" ~count:5000
    ~print:(Printf.sprintf "%S") gen_soup same_outcome

let prop_lexer_matches_reference_artifacts =
  QCheck2.Test.make ~name:"lexer = reference parser on edited artifacts" ~count:1000
    ~print:(fun (name, edits) ->
      Printf.sprintf "%s: %s" name (String.concat "; " (List.map print_edit edits)))
    QCheck2.Gen.(
      pair
        (oneofl (List.map fst (Lazy.force artifacts)))
        (list_size (int_range 0 3) gen_edit))
    (fun (name, edits) ->
      same_outcome (List.fold_left apply_edit (List.assoc name (Lazy.force artifacts)) edits))

(* --- property: the in-place queries read what the reference tree holds --- *)

(* [e] read in place gives what the frozen parser's tree [t] holds, by
   the definitions of the DOM accessors the readers used: an attribute
   is the first of its name, the text is the trimmed concatenation of
   the text children, and the element children come in order. *)
let rec reads_as d e (t : Xmlight.Doc.element) =
  let module P = Xmlight.Parse in
  let children =
    List.filter_map (function Xmlight.Doc.Element c -> Some c | _ -> None) t.Xmlight.Doc.children
  in
  let text =
    String.trim
      (String.concat ""
         (List.filter_map (function Xmlight.Doc.Text s -> Some s | _ -> None) t.Xmlight.Doc.children))
  in
  let first name =
    Option.map
      (fun a -> a.Xmlight.Doc.attr_value)
      (List.find_opt (fun a -> a.Xmlight.Doc.attr_name = name) t.Xmlight.Doc.attrs)
  in
  let tags = List.sort_uniq compare (List.map (fun c -> c.Xmlight.Doc.tag) children) in
  let kids = P.map_children d e tags Fun.id in
  P.tag_is d e t.Xmlight.Doc.tag
  && P.tag d e = t.Xmlight.Doc.tag
  && List.for_all
       (fun a ->
         let name = a.Xmlight.Doc.attr_name in
         P.attr d e name = first name && P.attr_is d e name (Option.get (first name)))
       t.Xmlight.Doc.attrs
  && P.attr d e "absent" = first "absent"
  && P.child_text d e = text
  && List.length kids = List.length children
  && List.for_all2 (reads_as d) kids children
  && List.for_all
       (fun tag ->
         match (P.find_child d e tag, List.find_opt (fun c -> c.Xmlight.Doc.tag = tag) children) with
         | Some k, Some c -> reads_as d k c
         | None, None -> true
         | Some _, None | None, Some _ -> false)
       tags

let prop_queries_read_the_tree =
  QCheck2.Test.make ~name:"in-place queries read what the reference tree holds" ~count:500
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      oneof
        [
          map (fun e -> Xmlight.Print.to_string (Xmlight.Doc.doc e)) gen_element;
          map
            (fun (name, edits) ->
              List.fold_left apply_edit (List.assoc name (Lazy.force artifacts)) edits)
            (pair (oneofl (List.map fst (Lazy.force artifacts))) (list_size (int_range 0 3) gen_edit));
        ])
    (fun input ->
      match Xml_reference.parse input with
      | Error _ -> true
      | Ok tree -> (
          match Xmlight.Parse.read input (fun d root -> reads_as d root tree.Xmlight.Doc.root) with
          | Ok same -> same
          | Error _ -> false))

let suite =
  [
    Alcotest.test_case "minimal document" `Quick test_minimal;
    Alcotest.test_case "xml declaration" `Quick test_declaration;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "text and entities" `Quick test_text_and_entities;
    Alcotest.test_case "numeric entities" `Quick test_numeric_entities;
    Alcotest.test_case "nested structure" `Quick test_nested_structure;
    Alcotest.test_case "comments and processing instructions" `Quick test_comments_and_pi;
    Alcotest.test_case "cdata" `Quick test_cdata;
    Alcotest.test_case "doctype skipped" `Quick test_doctype_skipped;
    Alcotest.test_case "malformed inputs rejected" `Quick test_errors;
    Alcotest.test_case "surrogate references rejected" `Quick test_surrogate_references;
    Alcotest.test_case "error positions" `Quick test_error_position;
    Alcotest.test_case "escaping" `Quick test_print_escapes;
    Alcotest.test_case "print/parse round trip" `Quick test_print_parse_roundtrip;
    Alcotest.test_case "nesting is bounded at 512" `Quick test_depth_limit;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_lexer_matches_reference_soup;
    QCheck_alcotest.to_alcotest prop_lexer_matches_reference_artifacts;
    QCheck_alcotest.to_alcotest prop_queries_read_the_tree;
  ]

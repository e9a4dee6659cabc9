(* Unit and property tests for the XML substrate. *)

let parse_ok s =
  match Xmlight.Parse.parse s with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "parse error: %s" (Xmlight.Parse.error_to_string e)

let parse_err s =
  match Xmlight.Parse.parse s with
  | Ok _ -> Alcotest.failf "expected a parse error on %S" s
  | Error e -> e

let test_minimal () =
  let doc = parse_ok "<root/>" in
  Alcotest.(check string) "tag" "root" doc.Xmlight.Doc.root.Xmlight.Doc.tag;
  Alcotest.(check int) "no children" 0 (List.length doc.Xmlight.Doc.root.Xmlight.Doc.children)

let test_declaration () =
  let doc = parse_ok "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<a/>" in
  Alcotest.(check int) "decl attrs" 2 (List.length doc.Xmlight.Doc.decl)

let test_attributes () =
  let doc = parse_ok "<a x=\"1\" y='two' z=\"a&amp;b\"/>" in
  let root = doc.Xmlight.Doc.root in
  Alcotest.(check (option string)) "x" (Some "1") (Xmlight.Doc.attr root "x");
  Alcotest.(check (option string)) "y" (Some "two") (Xmlight.Doc.attr root "y");
  Alcotest.(check (option string)) "z" (Some "a&b") (Xmlight.Doc.attr root "z");
  Alcotest.(check (option string)) "missing" None (Xmlight.Doc.attr root "w");
  Alcotest.(check string) "default" "d" (Xmlight.Doc.attr_default root "w" "d")

let test_text_and_entities () =
  let doc = parse_ok "<a>x &lt;&gt; &amp; &quot;&apos; y</a>" in
  Alcotest.(check string) "text" "x <> & \"' y" (Xmlight.Doc.child_text doc.Xmlight.Doc.root)

let test_numeric_entities () =
  let doc = parse_ok "<a>&#65;&#x42;</a>" in
  Alcotest.(check string) "decoded" "AB" (Xmlight.Doc.child_text doc.Xmlight.Doc.root)

let test_nested_structure () =
  let doc = parse_ok "<a><b><c/></b><b/><d>t</d></a>" in
  let root = doc.Xmlight.Doc.root in
  Alcotest.(check int) "bs" 2 (List.length (Xmlight.Doc.find_children root "b"));
  Alcotest.(check bool) "c under first b" true
    (match Xmlight.Doc.find_child root "b" with
    | Some b -> Xmlight.Doc.find_child b "c" <> None
    | None -> false);
  Alcotest.(check int) "node count" 5 (Xmlight.Doc.node_count root)

let test_comments_and_pi () =
  let doc = parse_ok "<!-- before --><a><!-- in --><?target data?><b/></a><!-- after -->" in
  let root = doc.Xmlight.Doc.root in
  Alcotest.(check int) "element children" 1 (List.length (Xmlight.Doc.children_elements root))

let test_cdata () =
  let doc = parse_ok "<a><![CDATA[<raw> & stuff]]></a>" in
  Alcotest.(check string) "cdata text" "<raw> & stuff"
    (Xmlight.Doc.child_text doc.Xmlight.Doc.root)

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
    (Xmlight.Doc.child_text (parse_ok "<a>&#xD7FF;&#xE000;&#x10FFFF;</a>").Xmlight.Doc.root)

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

let test_query_path () =
  let doc = parse_ok "<a><b><c i=\"1\"/><c i=\"2\"/></b><b><c i=\"3\"/></b></a>" in
  let root = doc.Xmlight.Doc.root in
  Alcotest.(check int) "path b c" 3 (List.length (Xmlight.Query.path root [ "b"; "c" ]));
  Alcotest.(check int) "filtered" 1
    (List.length (Xmlight.Query.with_attr "i" "2" (Xmlight.Query.path root [ "b"; "c" ])));
  Alcotest.(check bool) "by_id" true
    (Xmlight.Query.by_id root ~id_attr:"i" "3" <> None);
  Alcotest.(check bool) "by_id missing" true
    (Xmlight.Query.by_id root ~id_attr:"i" "9" = None);
  Alcotest.(check bool) "first" true (Xmlight.Query.first root [ "b" ] <> None)

let test_descendants () =
  let doc = parse_ok "<a><b><a/></b><a><a/></a></a>" in
  Alcotest.(check int) "descendant a" 3
    (List.length (Xmlight.Doc.descendants doc.Xmlight.Doc.root "a"))

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
    Alcotest.test_case "query paths and filters" `Quick test_query_path;
    Alcotest.test_case "descendants" `Quick test_descendants;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_lexer_matches_reference_soup;
    QCheck_alcotest.to_alcotest prop_lexer_matches_reference_artifacts;
  ]

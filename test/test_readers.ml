(* The model readers, which read the lexer's spans in place, against
   the frozen DOM readers of Reader_reference: the same project or
   bundle, or the same error, on the case studies, the benchmark's
   chain suite and edited copies of them. *)

let triple (set, architecture, mapping) =
  ( Scenarioml.Xml_io.set_to_string set,
    Adl.Xml_io.to_string architecture,
    Mapping.Xml_io.to_string mapping )

let projects =
  lazy
    (let open Casestudies in
     let chain = Lazy.force Servebench.Fixtures.chain in
     [
       ("pims", triple (Pims.scenario_set, Pims.architecture, Pims.mapping));
       ("pims-broken", triple (Pims.scenario_set, Pims.broken_architecture, Pims.mapping));
       ( "crash-entity",
         triple (Crash.entity_scenario_set, Crash.entity_architecture, Crash.entity_mapping) );
       ( "crash-network",
         triple
           (Crash.network_scenario_set, Crash.high_level_architecture (), Crash.network_mapping)
       );
       ( "crash-vulnerable",
         triple (Crash.entity_scenario_set, Crash.vulnerable_architecture, Crash.entity_mapping)
       );
       ( "chain",
         (chain.Servebench.Fixtures.scenarios_xml, chain.architecture_xml, chain.mapping_xml) );
     ])

let bundles =
  lazy
    [
      ("price-feed", Lazy.force Servebench.Fixtures.behavior_xml);
      ( "pims-behavior",
        Statechart.Bundle.to_string
          (Statechart.Bundle.make ~id:"pims" Casestudies.Pims_behavior.charts) );
      ( "crash-behavior",
        Statechart.Bundle.to_string
          (Statechart.Bundle.make ~id:"crash" Casestudies.Crash_behavior.charts) );
    ]

let project_outcome (scenarios, architecture, mapping) =
  let render = function
    | Ok p -> Ok p
    | Error e -> Error (Core.Sosae.load_error_to_string e)
  in
  ( render (Core.Sosae.project_of_strings ~scenarios ~architecture ~mapping),
    render (Reader_reference.project_of_strings ~scenarios ~architecture ~mapping) )

let same_project docs =
  let now, frozen = project_outcome docs in
  now = frozen

let same_bundle text =
  let outcome read malformed =
    match read text with b -> Ok b | exception e -> Error (malformed e)
  in
  outcome Statechart.Bundle.of_string (function
    | Statechart.Bundle.Malformed m -> m
    | e -> raise e)
  = outcome Reader_reference.bundle_of_string (function
      | Reader_reference.Bundle_reader.Malformed m -> m
      | e -> raise e)

let test_unedited () =
  List.iter
    (fun (name, docs) ->
      match project_outcome docs with
      | (Ok _ as now), frozen -> Alcotest.(check bool) name true (now = frozen)
      | Error e, _ -> Alcotest.failf "%s: %s" name e)
    (Lazy.force projects);
  List.iter
    (fun (name, text) ->
      Alcotest.(check bool) name true (same_bundle text);
      ignore (Statechart.Bundle.of_string text))
    (Lazy.force bundles)

(* Edits that keep a document well-formed but break its schema. Each
   counts its target among what the document holds, modulo their
   number, so it always lands. *)
type edit =
  | Raw of Test_xmlight.edit
  | Drop_attr of int  (** remove the [k]th attribute, name and value *)
  | Rename of int * string  (** every start and end tag of the [k]th start tag's name *)

let tags =
  [ "scenarioSet"; "ontology"; "instanceType"; "instance"; "eventType"; "parameter"; "template";
    "term"; "scenario"; "description"; "actor"; "events"; "event"; "typedEvent"; "arg";
    "compound"; "alternation"; "branch"; "iteration"; "optional"; "episode"; "archStructure";
    "component"; "connector"; "interface"; "tag"; "link"; "from"; "to"; "responsibility";
    "subArchitecture"; "mapping"; "map"; "rationale"; "archBehavior"; "statechart"; "state";
    "transition"; "onEntry"; "output"; "x" ]

let is_name_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' | '-' | '.' -> true | _ -> false

let rec name_start s i = if i > 0 && is_name_char s.[i - 1] then name_start s (i - 1) else i

let rec name_stop s i = if i < String.length s && is_name_char s.[i] then name_stop s (i + 1) else i

(* The [(start, stop)] of every [ name="value"] in [s]. *)
let attributes s =
  List.filter_map
    (fun i ->
      if i + 1 < String.length s && s.[i + 1] = '"' then
        let start = name_start s i in
        if start < i && start > 0 && s.[start - 1] = ' ' then
          match String.index_from_opt s (i + 2) '"' with
          | Some close -> Some (start - 1, close + 1)
          | None -> None
        else None
      else None)
    (List.filter (fun i -> s.[i] = '=') (List.init (String.length s) Fun.id))

(* The name of every start tag in [s]. *)
let start_tags s =
  List.filter_map
    (fun i ->
      if s.[i] = '<' && i + 1 < String.length s && s.[i + 1] <> '/' && is_name_char s.[i + 1]
      then Some (String.sub s (i + 1) (name_stop s (i + 1) - i - 1))
      else None)
    (List.init (String.length s) Fun.id)

(* [s] with every [<name] and [</name] that no name character follows
   renamed to [by] *)
let rename s name by =
  let buf = Buffer.create (String.length s) in
  let n = String.length name in
  let rec go i =
    if i < String.length s then
      let at = if s.[i] = '<' && i + 1 < String.length s && s.[i + 1] = '/' then i + 2 else i + 1 in
      if
        s.[i] = '<'
        && at + n <= String.length s
        && String.sub s at n = name
        && (at + n = String.length s || not (is_name_char s.[at + n]))
      then begin
        Buffer.add_string buf (String.sub s i (at - i));
        Buffer.add_string buf by;
        go (at + n)
      end
      else begin
        Buffer.add_char buf s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let nth_of l k = List.nth l (k mod List.length l)

let apply_edit s = function
  | Raw e -> Test_xmlight.apply_edit s e
  | Drop_attr k -> (
      match attributes s with
      | [] -> s
      | spans ->
          let start, stop = nth_of spans k in
          String.sub s 0 start ^ String.sub s stop (String.length s - stop))
  | Rename (k, by) -> (
      match start_tags s with [] -> s | names -> rename s (nth_of names k) by)

let gen_edit =
  QCheck2.Gen.(
    frequency
      [
        (2, map (fun e -> Raw e) Test_xmlight.gen_edit);
        (2, map (fun k -> Drop_attr k) (int_bound 100_000));
        (1, map2 (fun k b -> Rename (k, b)) (int_bound 100_000) (oneofl tags));
      ])

let print_edit = function
  | Raw e -> Test_xmlight.print_edit e
  | Drop_attr k -> Printf.sprintf "drop attribute #%d" k
  | Rename (k, b) -> Printf.sprintf "rename the tag of start tag #%d to <%s>" k b

let print_edits edits = String.concat "; " (List.map print_edit edits)

let prop_projects =
  QCheck2.Test.make ~name:"project_of_strings = frozen readers on edited projects" ~count:1000
    ~print:(fun (name, slot, edits) ->
      Printf.sprintf "%s, artifact %d: %s" name slot (print_edits edits))
    QCheck2.Gen.(
      triple
        (oneofl (List.map fst (Lazy.force projects)))
        (int_bound 2)
        (list_size (int_range 1 3) gen_edit))
    (fun (name, slot, edits) ->
      let s, a, m = List.assoc name (Lazy.force projects) in
      let edit doc = List.fold_left apply_edit doc edits in
      same_project
        (match slot with 0 -> (edit s, a, m) | 1 -> (s, edit a, m) | _ -> (s, a, edit m)))

let prop_bundles =
  QCheck2.Test.make ~name:"Bundle.of_string = frozen reader on edited bundles" ~count:300
    ~print:(fun (name, edits) -> Printf.sprintf "%s: %s" name (print_edits edits))
    QCheck2.Gen.(
      pair (oneofl (List.map fst (Lazy.force bundles))) (list_size (int_range 1 3) gen_edit))
    (fun (name, edits) ->
      same_bundle (List.fold_left apply_edit (List.assoc name (Lazy.force bundles)) edits))

let suite =
  [
    Alcotest.test_case "unedited artifacts read as the frozen readers read them" `Quick
      test_unedited;
    QCheck_alcotest.to_alcotest prop_projects;
    QCheck_alcotest.to_alcotest prop_bundles;
  ]

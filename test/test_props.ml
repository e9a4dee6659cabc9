(* Cross-cutting property tests on randomly generated artifacts:
   serialization round trips and engine invariants. *)

let gen_id prefix =
  QCheck2.Gen.(
    let* n = int_range 0 9999 in
    return (Printf.sprintf "%s%d" prefix n))

let gen_ids prefix max_count =
  QCheck2.Gen.(
    let* n = int_range 1 max_count in
    return (List.init n (fun i -> Printf.sprintf "%s%d" prefix i)))

(* ---------------- random architectures ----------------------------- *)

(* components c0..c(n-1), connectors k0..k(m-1), random biconnect wiring *)
let gen_architecture =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* m = int_range 0 3 in
    let* wiring =
      list_size (int_range 0 12) (pair (int_range 0 (n + m - 1)) (int_range 0 (n + m - 1)))
    in
    return (n, m, wiring))

let build_architecture (n, m, wiring) =
  let brick i = if i < n then Printf.sprintf "c%d" i else Printf.sprintf "k%d" (i - n) in
  let base =
    List.fold_left
      (fun t i -> Adl.Build.add_component ~id:(Printf.sprintf "c%d" i) ~name:"C" t)
      (Adl.Build.create ~style:"layered" ~id:"rand" ~name:"Random" ())
      (List.init n Fun.id)
  in
  let base =
    List.fold_left
      (fun t i -> Adl.Build.add_connector ~id:(Printf.sprintf "k%d" i) ~name:"K" t)
      base (List.init m Fun.id)
  in
  List.fold_left
    (fun t (a, b) ->
      if a = b then t
      else
        match Adl.Build.biconnect t (brick a) (brick b) with
        | t -> t
        | exception Adl.Build.Duplicate _ -> t)
    base wiring

let prop_adl_xml_roundtrip =
  QCheck2.Test.make ~name:"random architecture: xADL round trip is identity" ~count:100
    gen_architecture (fun spec ->
      let arch = build_architecture spec in
      Adl.Xml_io.of_string (Adl.Xml_io.to_string arch) = arch)

(* ---------------- random statecharts ------------------------------- *)

let gen_chart =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* transitions =
      list_size (int_range 0 10)
        (tup3 (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range 0 3))
    in
    return (n, transitions))

let build_chart (n, transitions) =
  let state i = Printf.sprintf "s%d" i in
  Statechart.Types.chart ~id:"rand" ~component:"c" ~initial:"s0"
    (List.init n (fun i -> Statechart.Types.state (state i)))
    (List.mapi
       (fun idx (src, tgt, trig) ->
         Statechart.Types.transition
           ~id:(Printf.sprintf "t%d" idx)
           ~source:(state src) ~target:(state tgt)
           ~trigger:(Printf.sprintf "e%d" trig)
           ~outputs:(if idx mod 2 = 0 then [ "out" ] else [])
           ())
       transitions)

let prop_statechart_xml_roundtrip =
  QCheck2.Test.make ~name:"random statechart: XML round trip is identity" ~count:100
    gen_chart (fun spec ->
      let chart = build_chart spec in
      Statechart.Xml_io.of_string (Statechart.Xml_io.to_string chart) = chart)

let prop_statechart_run_total =
  QCheck2.Test.make ~name:"random statechart: running any event list never raises"
    ~count:100
    QCheck2.Gen.(pair gen_chart (list_size (int_range 0 20) (int_range 0 4)))
    (fun (spec, events) ->
      let chart = build_chart spec in
      let events = List.map (Printf.sprintf "e%d") events in
      let final, steps = Statechart.Exec.run chart events in
      List.length steps = List.length events && final <> [])

(* ---------------- random triple stores ----------------------------- *)

let gen_store =
  QCheck2.Gen.(
    list_size (int_range 0 40)
      (tup3 (gen_id "s") (gen_id "p") (oneof [ map (fun i -> `I i) (gen_id "o"); map (fun v -> `L v) (string_size ~gen:(oneofl [ 'a'; 'b'; ' '; 'z' ]) (int_range 0 8)) ])))

let build_store triples =
  let store = Semweb.Store.create () in
  let ns local = Semweb.Term.Vocab.sosae local in
  List.iter
    (fun (s, p, o) ->
      let obj =
        match o with
        | `I i -> Semweb.Term.iri (ns i)
        | `L v -> Semweb.Term.lit v
      in
      ignore (Semweb.Store.add store (Semweb.Term.triple (Semweb.Term.iri (ns s)) (ns p) obj)))
    triples;
  store

let prop_turtle_roundtrip =
  QCheck2.Test.make ~name:"random store: Turtle round trip preserves all triples"
    ~count:100 gen_store (fun triples ->
      let store = build_store triples in
      let reparsed = Semweb.Turtle.of_string (Semweb.Turtle.to_string store) in
      Semweb.Store.size reparsed = Semweb.Store.size store
      && List.for_all (Semweb.Store.mem reparsed) (Semweb.Store.to_list store))

let prop_closure_monotone =
  QCheck2.Test.make ~name:"random store: reasoning closure contains the input" ~count:50
    gen_store (fun triples ->
      let store = build_store triples in
      let closed = Semweb.Reason.closure store in
      Semweb.Store.size closed >= Semweb.Store.size store
      && List.for_all (Semweb.Store.mem closed) (Semweb.Store.to_list store))

(* ---------------- linearization invariants ------------------------- *)

let tiny_ontology =
  Ontology.Build.(
    create ~id:"o" ~name:"O" |> add_event_type ~id:"e" ~name:"e" ~template:"event")

(* random event trees over a single event type *)
let gen_event_tree =
  QCheck2.Gen.(
    sized_size (int_range 0 3) @@ fix (fun self depth ->
        let counter = ref 0 in
        ignore counter;
        let leaf =
          map
            (fun i -> `Leaf i)
            (int_range 0 1000000)
        in
        if depth = 0 then leaf
        else
          oneof
            [
              leaf;
              map (fun body -> `Seq body) (list_size (int_range 1 3) (self (depth - 1)));
              map (fun branches -> `Alt branches)
                (list_size (int_range 1 3) (list_size (int_range 0 2) (self (depth - 1))));
              map (fun body -> `Opt body) (list_size (int_range 1 2) (self (depth - 1)));
              map (fun body -> `Iter body) (list_size (int_range 1 2) (self (depth - 1)));
            ]))

let build_event counter tree =
  let fresh () =
    incr counter;
    Printf.sprintf "n%d" !counter
  in
  let rec go = function
    | `Leaf _ -> Scenarioml.Event.typed ~id:(fresh ()) ~event_type:"e" []
    | `Seq body ->
        Scenarioml.Event.Compound
          { id = fresh (); pattern = Scenarioml.Event.Sequence; body = List.map go body }
    | `Alt branches ->
        Scenarioml.Event.Alternation
          { id = fresh (); branches = List.map (List.map go) branches }
    | `Opt body -> Scenarioml.Event.Optional { id = fresh (); body = List.map go body }
    | `Iter body ->
        Scenarioml.Event.Iteration
          { id = fresh (); bound = Scenarioml.Event.Zero_or_more; body = List.map go body }
  in
  go tree

let prop_linearize_bounded =
  QCheck2.Test.make ~name:"linearization respects the trace cap" ~count:100 gen_event_tree
    (fun tree ->
      let counter = ref 0 in
      let scenario =
        Scenarioml.Scen.scenario ~id:"s" ~name:"S" [ build_event counter tree ]
      in
      let set = Scenarioml.Scen.make_set ~id:"x" ~name:"X" tiny_ontology [ scenario ] in
      let config = { Scenarioml.Linearize.iteration_unroll = 2; max_traces = 17 } in
      let { Scenarioml.Linearize.traces; _ } =
        Scenarioml.Linearize.scenario ~config set scenario
      in
      traces <> [] && List.length traces <= 17)

let prop_linearize_only_primitive_steps =
  QCheck2.Test.make ~name:"linearized traces contain only primitive events" ~count:100
    gen_event_tree (fun tree ->
      let counter = ref 0 in
      let scenario =
        Scenarioml.Scen.scenario ~id:"s" ~name:"S" [ build_event counter tree ]
      in
      let set = Scenarioml.Scen.make_set ~id:"x" ~name:"X" tiny_ontology [ scenario ] in
      let { Scenarioml.Linearize.traces; _ } = Scenarioml.Linearize.scenario set scenario in
      List.for_all
        (List.for_all (fun step ->
             match step.Scenarioml.Linearize.step_event with
             | Scenarioml.Event.Simple _ | Scenarioml.Event.Typed _ -> true
             | _ -> false))
        traces)

(* ---------------- constraint language ------------------------------ *)

let gen_constraint =
  QCheck2.Gen.(
    let* kind = int_range 0 4 in
    let* a = gen_id "el" in
    let* b = gen_id "el" in
    let* c = gen_id "el" in
    return
      (match kind with
      | 0 -> Styles.Constraint_lang.Connect { src = a; dst = b }
      | 1 -> Styles.Constraint_lang.Forbid { src = a; dst = b }
      | 2 -> Styles.Constraint_lang.Route_via { src = a; dst = b; via = c }
      | 3 -> Styles.Constraint_lang.Mediate { src = a; dst = b }
      | _ -> Styles.Constraint_lang.Acyclic))

let prop_constraint_roundtrip =
  QCheck2.Test.make ~name:"constraints: to_string then parse is identity" ~count:200
    QCheck2.Gen.(list_size (int_range 0 10) gen_constraint)
    (fun constraints ->
      let text =
        String.concat "\n" (List.map Styles.Constraint_lang.to_string constraints)
      in
      Styles.Constraint_lang.parse text = constraints)

(* ---------------- mapping round trip ------------------------------- *)

let prop_mapping_xml_roundtrip =
  QCheck2.Test.make ~name:"random mapping: XML round trip is identity" ~count:100
    QCheck2.Gen.(
      list_size (int_range 0 10) (pair (gen_id "et") (gen_ids "c" 4)))
    (fun entries ->
      (* deduplicate event types to keep the mapping well-formed *)
      let entries =
        List.fold_left
          (fun acc (et, cs) -> if List.mem_assoc et acc then acc else acc @ [ (et, cs) ])
          [] entries
      in
      let mapping =
        {
          Mapping.Types.mapping_id = "m";
          ontology_id = "o";
          architecture_id = "a";
          entries =
            List.map
              (fun (event_type, components) ->
                { Mapping.Types.event_type; components; rationale = "r" })
              entries;
        }
      in
      Mapping.Xml_io.of_string (Mapping.Xml_io.to_string mapping) = mapping)

(* ---------------- C2 style conformance ----------------------------- *)

(* layered C2 stacks: [widths] components per layer, a bus connector
   between consecutive layers, every adjacent pair joined top-to-bottom *)
let gen_c2_stack = QCheck2.Gen.(list_size (int_range 2 4) (int_range 1 3))

let build_c2_stack widths =
  let open Adl.Build in
  let component_name layer i = Printf.sprintf "l%dc%d" layer i in
  let bus_name layer = Printf.sprintf "bus%d" layer in
  let with_components =
    List.fold_left
      (fun (t, layer) width ->
        ( List.fold_left
            (fun t i -> add_component ~id:(component_name layer i) ~name:"C" t)
            t
            (List.init width Fun.id),
          layer + 1 ))
      (create ~style:"c2" ~id:"stack" ~name:"C2 stack" (), 0)
      widths
    |> fst
  in
  let with_buses =
    List.fold_left
      (fun t layer -> add_connector ~id:(bus_name layer) ~name:"Bus" t)
      with_components
      (List.init (List.length widths - 1) Fun.id)
  in
  (* C2 wiring convention (as in the CRASH case study): the upper
     element's "bottom" side joins the lower element's "top" side. Every
     layer-L component sits above bus L; bus L's bottom reaches the
     layer-L+1 components. *)
  let join t upper lower =
    let iface side other =
      interface
        ~tags:[ ("side", side) ]
        ~direction:Adl.Structure.In_out
        (Printf.sprintf "%s_%s" (if side = "bottom" then "bot" else "top") other)
    in
    let ensure t elt i =
      let has =
        List.exists
          (fun x -> String.equal x.Adl.Structure.iface_id i.Adl.Structure.iface_id)
          (Adl.Structure.element_interfaces t elt)
      in
      if has then t
      else
        match Adl.Structure.find_component t elt with
        | Some c ->
            let c =
              { c with Adl.Structure.comp_interfaces = c.Adl.Structure.comp_interfaces @ [ i ] }
            in
            {
              t with
              Adl.Structure.components =
                List.map
                  (fun x -> if String.equal x.Adl.Structure.comp_id elt then c else x)
                  t.Adl.Structure.components;
            }
        | None -> (
            match Adl.Structure.find_connector t elt with
            | Some c ->
                let c =
                  {
                    c with
                    Adl.Structure.conn_interfaces = c.Adl.Structure.conn_interfaces @ [ i ];
                  }
                in
                {
                  t with
                  Adl.Structure.connectors =
                    List.map
                      (fun x -> if String.equal x.Adl.Structure.conn_id elt then c else x)
                      t.Adl.Structure.connectors;
                }
            | None -> t)
    in
    let t = ensure t upper (iface "bottom" lower) in
    let t = ensure t lower (iface "top" upper) in
    add_link ~from_:(upper, "bot_" ^ lower) ~to_:(lower, "top_" ^ upper) t
  in
  List.fold_left
    (fun (t, layer) width ->
      let t =
        if layer = List.length widths - 1 then t
        else
          (* this layer's components sit above bus [layer] *)
          List.fold_left
            (fun t i -> join t (component_name layer i) (bus_name layer))
            t
            (List.init width Fun.id)
      in
      let t =
        if layer = 0 then t
        else
          (* bus above joins down to this layer's components *)
          List.fold_left
            (fun t i -> join t (bus_name (layer - 1)) (component_name layer i))
            t
            (List.init width Fun.id)
      in
      (t, layer + 1))
    (with_buses, 0) widths
  |> fst

let prop_c2_stacks_conform =
  QCheck2.Test.make ~name:"generated C2 stacks conform; a direct link breaks them"
    ~count:60 gen_c2_stack (fun widths ->
      let arch = build_c2_stack widths in
      let clean = Styles.Check.check_declared arch = [] in
      (* adding a direct component-component link violates c2.no-direct *)
      let a = "l0c0" in
      let b = Printf.sprintf "l1c0" in
      let broken = Adl.Build.biconnect arch a b in
      let violations = Styles.Check.check_declared broken in
      clean
      && List.exists (fun v -> String.equal v.Styles.Rule.rule "c2.no-direct") violations)

(* ---------------- prose round trip --------------------------------- *)

let gen_prose_scenario =
  QCheck2.Gen.(
    let* n = int_range 1 10 in
    let* texts =
      flatten_l
        (List.init n (fun _ ->
             string_size
               ~gen:(oneofl [ 'a'; 'b'; 'c'; ' '; ','; 'x' ])
               (int_range 1 30)))
    in
    (* event text must not be blank and must not look like a numbered line *)
    let texts =
      List.map
        (fun t ->
          let t = "ev " ^ String.trim t in
          t)
        texts
    in
    return texts)

let prop_prose_roundtrip =
  QCheck2.Test.make ~name:"prose round trip preserves event count" ~count:100
    gen_prose_scenario (fun texts ->
      let scenario =
        Scenarioml.Scen.scenario ~id:"p" ~name:"Prose test"
          (List.mapi
             (fun i t -> Scenarioml.Event.simple ~id:(Printf.sprintf "e%d" i) t)
             texts)
      in
      let set =
        Scenarioml.Scen.make_set ~id:"s" ~name:"S" tiny_ontology [ scenario ]
      in
      let prose = Scenarioml.Text_io.to_prose tiny_ontology set scenario in
      let back = Scenarioml.Text_io.of_prose prose in
      List.length back.Scenarioml.Scen.events = List.length texts)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_adl_xml_roundtrip;
    QCheck_alcotest.to_alcotest prop_statechart_xml_roundtrip;
    QCheck_alcotest.to_alcotest prop_statechart_run_total;
    QCheck_alcotest.to_alcotest prop_turtle_roundtrip;
    QCheck_alcotest.to_alcotest prop_closure_monotone;
    QCheck_alcotest.to_alcotest prop_linearize_bounded;
    QCheck_alcotest.to_alcotest prop_linearize_only_primitive_steps;
    QCheck_alcotest.to_alcotest prop_constraint_roundtrip;
    QCheck_alcotest.to_alcotest prop_mapping_xml_roundtrip;
    QCheck_alcotest.to_alcotest prop_prose_roundtrip;
    QCheck_alcotest.to_alcotest prop_c2_stacks_conform;
  ]

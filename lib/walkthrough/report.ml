let pp_step ppf s =
  let placement =
    match s.Verdict.components with
    | [] -> ""
    | l -> Printf.sprintf "  @ %s" (String.concat ", " l)
  in
  let hop =
    match s.Verdict.hop with
    | Some h when List.length h.Verdict.via > 1 ->
        Printf.sprintf "\n      path: %s" (String.concat " -> " h.Verdict.via)
    | Some _ | None -> ""
  in
  let marker = if s.Verdict.step_problems = [] then "  " else "??" in
  Format.fprintf ppf "%s (%d) %s%s%s" marker s.Verdict.index s.Verdict.text placement hop;
  List.iter
    (fun p -> Format.fprintf ppf "@,      !! %a" Verdict.pp_inconsistency p)
    s.Verdict.step_problems

let pp_trace ppf t =
  Format.fprintf ppf "@[<v>trace %d: %s@," t.Verdict.trace_index
    (if t.Verdict.walked then "walks" else "FAILS");
  List.iter (fun s -> Format.fprintf ppf "%a@," pp_step s) t.Verdict.steps;
  Format.fprintf ppf "@]"

let pp_scenario_result ppf r =
  let kind = if r.Verdict.negative then " (negative)" else "" in
  let verdict =
    match r.Verdict.verdict with
    | Verdict.Consistent -> "CONSISTENT"
    | Verdict.Inconsistent -> "INCONSISTENT"
  in
  Format.fprintf ppf "@[<v>== %s: %s%s -> %s@," r.Verdict.scenario_id
    r.Verdict.scenario_name kind verdict;
  if r.Verdict.truncated then
    Format.fprintf ppf "   (trace enumeration truncated)@,";
  List.iter (fun t -> Format.fprintf ppf "%a" pp_trace t) r.Verdict.traces;
  List.iter
    (fun i -> Format.fprintf ppf "   inconsistency: %a@," Verdict.pp_inconsistency i)
    r.Verdict.inconsistencies;
  Format.fprintf ppf "@]"

let pp_set_result ppf (r : Engine.set_result) =
  Format.fprintf ppf "@[<v>";
  List.iter (fun sr -> Format.fprintf ppf "%a@," pp_scenario_result sr) r.Engine.results;
  if r.Engine.style_violations <> [] then begin
    Format.fprintf ppf "Style violations:@,";
    List.iter
      (fun v -> Format.fprintf ppf "  %a@," Styles.Rule.pp_violation v)
      r.Engine.style_violations
  end;
  if r.Engine.coverage_problems <> [] then begin
    Format.fprintf ppf "Mapping coverage:@,";
    List.iter
      (fun p -> Format.fprintf ppf "  %a@," Mapping.Coverage.pp_problem p)
      r.Engine.coverage_problems
  end;
  Format.fprintf ppf "Overall: %s@]"
    (if r.Engine.consistent then "CONSISTENT" else "INCONSISTENT")

let scenario_result_to_string r = Format.asprintf "%a" pp_scenario_result r

let summary_line r =
  Printf.sprintf "%s: %s (%d trace%s)%s" r.Verdict.scenario_id
    (match r.Verdict.verdict with
    | Verdict.Consistent -> "CONSISTENT"
    | Verdict.Inconsistent -> "INCONSISTENT")
    (List.length r.Verdict.traces)
    (if List.length r.Verdict.traces = 1 then "" else "s")
    (if r.Verdict.negative then " [negative]" else "")

(* ---- machine-readable form (the CLI's --json flag) ---------------- *)

let json_of_inconsistency i =
  let tagged tag fields = Jsonlight.Obj (("kind", Jsonlight.String tag) :: fields) in
  match i with
  | Verdict.Unmapped_event_type { step; event_type } ->
      tagged "unmapped-event-type"
        [ ("step", Jsonlight.Int step); ("event_type", Jsonlight.String event_type) ]
  | Verdict.Unmapped_simple_event { step; event } ->
      tagged "unmapped-simple-event"
        [ ("step", Jsonlight.Int step); ("event", Jsonlight.String event) ]
  | Verdict.Missing_link { step; from_components; to_components } ->
      tagged "missing-link"
        [
          ("step", Jsonlight.Int step);
          ("from_components", Jsonlight.strings from_components);
          ("to_components", Jsonlight.strings to_components);
        ]
  | Verdict.Constraint_violation v ->
      tagged "constraint-violation"
        [
          ("rule", Jsonlight.String v.Styles.Rule.rule);
          ("subject", Jsonlight.String v.Styles.Rule.subject);
          ("detail", Jsonlight.String v.Styles.Rule.detail);
        ]
  | Verdict.Negative_scenario_executes { scenario; trace_index } ->
      tagged "negative-scenario-executes"
        [ ("scenario", Jsonlight.String scenario); ("trace_index", Jsonlight.Int trace_index) ]

let json_of_step s =
  Jsonlight.Obj
    [
      ("index", Jsonlight.Int s.Verdict.index);
      ("text", Jsonlight.String s.Verdict.text);
      ( "event_type",
        match s.Verdict.event_type with Some t -> Jsonlight.String t | None -> Jsonlight.Null );
      ("components", Jsonlight.strings s.Verdict.components);
      ( "hop",
        match s.Verdict.hop with
        | Some h ->
            Jsonlight.Obj
              [
                ("from", Jsonlight.String h.Verdict.hop_from);
                ("to", Jsonlight.String h.Verdict.hop_to);
                ("via", Jsonlight.strings h.Verdict.via);
              ]
        | None -> Jsonlight.Null );
      ("problems", Jsonlight.List (List.map json_of_inconsistency s.Verdict.step_problems));
    ]

let json_of_trace t =
  Jsonlight.Obj
    [
      ("trace_index", Jsonlight.Int t.Verdict.trace_index);
      ("walked", Jsonlight.Bool t.Verdict.walked);
      ("steps", Jsonlight.List (List.map json_of_step t.Verdict.steps));
    ]

let json_of_scenario_result r =
  Jsonlight.Obj
    [
      ("scenario_id", Jsonlight.String r.Verdict.scenario_id);
      ("scenario_name", Jsonlight.String r.Verdict.scenario_name);
      ("negative", Jsonlight.Bool r.Verdict.negative);
      ( "verdict",
        Jsonlight.String
          (match r.Verdict.verdict with
          | Verdict.Consistent -> "consistent"
          | Verdict.Inconsistent -> "inconsistent") );
      ("truncated", Jsonlight.Bool r.Verdict.truncated);
      ("traces", Jsonlight.List (List.map json_of_trace r.Verdict.traces));
      ( "inconsistencies",
        Jsonlight.List (List.map json_of_inconsistency r.Verdict.inconsistencies) );
    ]

let json_of_violation v =
  Jsonlight.Obj
    [
      ("rule", Jsonlight.String v.Styles.Rule.rule);
      ("subject", Jsonlight.String v.Styles.Rule.subject);
      ("detail", Jsonlight.String v.Styles.Rule.detail);
    ]

let json_of_set_result (r : Engine.set_result) =
  Jsonlight.Obj
    [
      ("consistent", Jsonlight.Bool r.Engine.consistent);
      ("scenarios", Jsonlight.List (List.map json_of_scenario_result r.Engine.results));
      ( "style_violations",
        Jsonlight.List (List.map json_of_violation r.Engine.style_violations) );
      ( "coverage_problems",
        Jsonlight.strings
          (List.map
             (Format.asprintf "%a" Mapping.Coverage.pp_problem)
             r.Engine.coverage_problems) );
    ]

(* ---- the same bytes, written straight into a buffer --------------- *)

(* Keys are written pre-escaped, with the punctuation around them, the
   quotes of a string value included; only values go through
   Jsonlight's escaping, and no tree is built. The output is byte for
   byte [Jsonlight.to_string] of the trees above, which the tests hold
   it to. *)

let esc = Jsonlight.add_escaped

let add_int = Jsonlight.add_int

let add_bool buf b = Buffer.add_string buf (if b then "true" else "false")

let rec add_rest buf add = function
  | [] -> Buffer.add_char buf ']'
  | x :: rest ->
      Buffer.add_char buf ',';
      add buf x;
      add_rest buf add rest

let add_list buf add = function
  | [] -> Buffer.add_string buf "[]"
  | x :: rest ->
      Buffer.add_char buf '[';
      add buf x;
      add_rest buf add rest

let rec add_rest_strings buf = function
  | [] -> Buffer.add_string buf {|"]|}
  | s :: rest ->
      Buffer.add_string buf {|","|};
      esc buf s;
      add_rest_strings buf rest

let add_strings buf = function
  | [] -> Buffer.add_string buf "[]"
  | s :: rest ->
      Buffer.add_string buf {|["|};
      esc buf s;
      add_rest_strings buf rest

(* a violation's fields and the closing brace, after whatever opened
   its object *)
let add_violation_fields buf v =
  Buffer.add_string buf {|"rule":"|};
  esc buf v.Styles.Rule.rule;
  Buffer.add_string buf {|","subject":"|};
  esc buf v.Styles.Rule.subject;
  Buffer.add_string buf {|","detail":"|};
  esc buf v.Styles.Rule.detail;
  Buffer.add_string buf {|"}|}

let add_inconsistency buf = function
  | Verdict.Unmapped_event_type { step; event_type } ->
      Buffer.add_string buf {|{"kind":"unmapped-event-type","step":|};
      add_int buf step;
      Buffer.add_string buf {|,"event_type":"|};
      esc buf event_type;
      Buffer.add_string buf {|"}|}
  | Verdict.Unmapped_simple_event { step; event } ->
      Buffer.add_string buf {|{"kind":"unmapped-simple-event","step":|};
      add_int buf step;
      Buffer.add_string buf {|,"event":"|};
      esc buf event;
      Buffer.add_string buf {|"}|}
  | Verdict.Missing_link { step; from_components; to_components } ->
      Buffer.add_string buf {|{"kind":"missing-link","step":|};
      add_int buf step;
      Buffer.add_string buf {|,"from_components":|};
      add_strings buf from_components;
      Buffer.add_string buf {|,"to_components":|};
      add_strings buf to_components;
      Buffer.add_char buf '}'
  | Verdict.Constraint_violation v ->
      Buffer.add_string buf {|{"kind":"constraint-violation",|};
      add_violation_fields buf v
  | Verdict.Negative_scenario_executes { scenario; trace_index } ->
      Buffer.add_string buf {|{"kind":"negative-scenario-executes","scenario":"|};
      esc buf scenario;
      Buffer.add_string buf {|","trace_index":|};
      add_int buf trace_index;
      Buffer.add_char buf '}'

let add_step buf s =
  Buffer.add_string buf {|{"index":|};
  add_int buf s.Verdict.index;
  Buffer.add_string buf {|,"text":"|};
  esc buf s.Verdict.text;
  (match s.Verdict.event_type with
  | Some t ->
      Buffer.add_string buf {|","event_type":"|};
      esc buf t;
      Buffer.add_string buf {|","components":|}
  | None -> Buffer.add_string buf {|","event_type":null,"components":|});
  add_strings buf s.Verdict.components;
  (match s.Verdict.hop with
  | Some h ->
      Buffer.add_string buf {|,"hop":{"from":"|};
      esc buf h.Verdict.hop_from;
      Buffer.add_string buf {|","to":"|};
      esc buf h.Verdict.hop_to;
      Buffer.add_string buf {|","via":|};
      add_strings buf h.Verdict.via;
      Buffer.add_string buf {|},"problems":|}
  | None -> Buffer.add_string buf {|,"hop":null,"problems":|});
  add_list buf add_inconsistency s.Verdict.step_problems;
  Buffer.add_char buf '}'

let add_trace buf t =
  Buffer.add_string buf {|{"trace_index":|};
  add_int buf t.Verdict.trace_index;
  Buffer.add_string buf
    (if t.Verdict.walked then {|,"walked":true,"steps":|} else {|,"walked":false,"steps":|});
  add_list buf add_step t.Verdict.steps;
  Buffer.add_char buf '}'

let scenario_result_to_buffer buf r =
  Buffer.add_string buf {|{"scenario_id":"|};
  esc buf r.Verdict.scenario_id;
  Buffer.add_string buf {|","scenario_name":"|};
  esc buf r.Verdict.scenario_name;
  Buffer.add_string buf {|","negative":|};
  add_bool buf r.Verdict.negative;
  Buffer.add_string buf
    (match r.Verdict.verdict with
    | Verdict.Consistent -> {|,"verdict":"consistent","truncated":|}
    | Verdict.Inconsistent -> {|,"verdict":"inconsistent","truncated":|});
  add_bool buf r.Verdict.truncated;
  Buffer.add_string buf {|,"traces":|};
  add_list buf add_trace r.Verdict.traces;
  Buffer.add_string buf {|,"inconsistencies":|};
  add_list buf add_inconsistency r.Verdict.inconsistencies;
  Buffer.add_char buf '}'

let add_violation buf v =
  Buffer.add_char buf '{';
  add_violation_fields buf v

let add_coverage_problem buf p =
  Buffer.add_char buf '"';
  esc buf (Format.asprintf "%a" Mapping.Coverage.pp_problem p);
  Buffer.add_char buf '"'

let set_result_to_buffer ?(scenario = scenario_result_to_buffer) buf
    (r : Engine.set_result) =
  Buffer.add_string buf {|{"consistent":|};
  add_bool buf r.Engine.consistent;
  Buffer.add_string buf {|,"scenarios":|};
  add_list buf scenario r.Engine.results;
  Buffer.add_string buf {|,"style_violations":|};
  add_list buf add_violation r.Engine.style_violations;
  Buffer.add_string buf {|,"coverage_problems":|};
  add_list buf add_coverage_problem r.Engine.coverage_problems;
  Buffer.add_char buf '}'

let scenario_result_to_json r =
  let buf = Buffer.create 1024 in
  scenario_result_to_buffer buf r;
  Buffer.contents buf

let set_result_to_json r =
  let buf = Buffer.create 4096 in
  set_result_to_buffer buf r;
  Buffer.contents buf

let trace_to_dot architecture t =
  let highlight =
    List.concat_map
      (fun s ->
        let hop_bricks =
          match s.Verdict.hop with Some h -> h.Verdict.via | None -> []
        in
        let failing_bricks =
          if s.Verdict.step_problems = [] then [] else s.Verdict.components
        in
        hop_bricks @ failing_bricks)
      t.Verdict.steps
  in
  (* dedupe but keep order: consecutive pairs drive edge highlighting *)
  Adl.Dot.to_dot ~highlight architecture

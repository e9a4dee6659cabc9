type t = { bundle_id : string; charts : Types.t list }

type problem =
  | Duplicate_component of string
  | Chart_problem of { chart : string; problem : Validate.problem }

let make ~id charts = { bundle_id = id; charts }

let chart_for t component =
  List.find_opt (fun c -> String.equal c.Types.component component) t.charts

let components t = List.map (fun c -> c.Types.component) t.charts

let check t =
  let seen = Hashtbl.create 8 in
  let duplicates =
    List.filter_map
      (fun c ->
        let comp = c.Types.component in
        if Hashtbl.mem seen comp then Some (Duplicate_component comp)
        else begin
          Hashtbl.add seen comp ();
          None
        end)
      t.charts
  in
  let chart_problems =
    List.concat_map
      (fun c ->
        List.map
          (fun problem -> Chart_problem { chart = c.Types.chart_id; problem })
          (Validate.check c))
      t.charts
  in
  duplicates @ chart_problems

let pp_problem ppf = function
  | Duplicate_component c ->
      Format.fprintf ppf "component %S has several statecharts" c
  | Chart_problem { chart; problem } ->
      Format.fprintf ppf "chart %S: %a" chart Validate.pp_problem problem

exception Malformed of string

let to_element t =
  Xmlight.Doc.element
    ~attrs:[ ("id", t.bundle_id) ]
    "archBehavior"
    (List.map (fun c -> Xmlight.Doc.Element (Xml_io.to_element c)) t.charts)

let to_string t = Xmlight.Print.to_string (Xmlight.Doc.doc (to_element t))

let of_element d e =
  if not (Xmlight.Parse.tag_is d e "archBehavior") then
    raise
      (Malformed
         (Printf.sprintf "expected <archBehavior>, found <%s>" (Xmlight.Parse.tag d e)));
  let bundle_id =
    match Xmlight.Parse.attr d e "id" with
    | Some id -> id
    | None -> raise (Malformed "<archBehavior> is missing id")
  in
  let charts =
    Xmlight.Parse.map_children d e [ "statechart" ] (fun c ->
        match Xml_io.of_element d c with
        | chart -> chart
        | exception Xml_io.Malformed m -> raise (Malformed m))
  in
  { bundle_id; charts }

let of_string s =
  match Xmlight.Parse.read s of_element with
  | Ok t -> t
  | Error e -> raise (Malformed (Xmlight.Parse.error_to_string e))

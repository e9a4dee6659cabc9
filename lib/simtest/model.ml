(* The oracle the simulator checks the real stack against: a pure
   mirror of what the registry should contain, plus the durable
   history needed to judge recovery.

   [live] mirrors registry memory after every acknowledged (or
   known-unacknowledged-but-applied) mutation. [entries] is the
   journal's image: one snapshot of [live] per staged sequence number,
   newest first — after a crash the journal's recovered sequence
   number selects exactly one entry, and the recovered registry must
   equal it. [acked] is the no-lost-write floor: the highest sequence
   number whose mutation returned successfully to the caller; no crash
   may recover to anything earlier. *)

type state = (string * Adl.Structure.t) list  (* sorted by id *)

type t = {
  mutable live : state;
  mutable entries : (int64 * state) list;  (* newest first *)
  mutable acked : int64;
}

let create () = { live = []; entries = []; acked = 0L }

(* ------------------------------------------------------------------ *)
(* Fixture: the booking project from the quickstart, as both XML      *)
(* sources (what the API would receive) and the parsed architecture   *)
(* (so model and registry start from the identical parse)             *)
(* ------------------------------------------------------------------ *)

let fixture =
  lazy
    (let ontology =
       let open Ontology.Build in
       create ~id:"booking-ontology" ~name:"Room booking domain"
       |> add_class ~id:"actor" ~name:"Actor"
       |> add_class ~id:"user" ~name:"User" ~super:"actor"
       |> add_class ~id:"thing" ~name:"Thing"
       |> add_class ~id:"room" ~name:"Meeting room" ~super:"thing"
       |> add_individual ~id:"alice" ~name:"Alice" ~cls:"user"
       |> add_event_type ~id:"requests" ~name:"requests"
            ~params:[ ("what", "thing") ]
            ~template:"The user requests {what}" ~actor:"user"
       |> add_event_type ~id:"checks" ~name:"checks availability"
            ~params:[ ("what", "thing") ]
            ~template:"The system checks availability of {what}"
       |> add_event_type ~id:"confirms" ~name:"confirms"
            ~params:[ ("what", "thing") ]
            ~template:"The system confirms the booking of {what}"
     in
     let scenario =
       Scenarioml.Scen.scenario ~id:"book-room" ~name:"Book a room"
         ~actors:[ "alice" ]
         [
           Scenarioml.Event.typed ~id:"e1" ~event_type:"requests"
             [ Scenarioml.Event.literal ~param:"what" "the blue room" ];
           Scenarioml.Event.typed ~id:"e2" ~event_type:"checks"
             [ Scenarioml.Event.literal ~param:"what" "the blue room" ];
           Scenarioml.Event.typed ~id:"e3" ~event_type:"confirms"
             [ Scenarioml.Event.literal ~param:"what" "the blue room" ];
         ]
     in
     let set =
       Scenarioml.Scen.make_set ~id:"booking" ~name:"Booking scenarios"
         ontology [ scenario ]
     in
     let architecture =
       let open Adl.Build in
       create ~id:"booking-arch" ~name:"Booking system" ()
       |> add_component ~id:"ui" ~name:"Web UI"
            ~responsibilities:[ "interact with users" ]
       |> add_component ~id:"scheduler" ~name:"Scheduler"
            ~responsibilities:[ "check availability"; "confirm bookings" ]
       |> add_component ~id:"store" ~name:"Calendar store"
            ~responsibilities:[ "persist bookings" ]
       |> add_connector ~id:"http" ~name:"HTTP"
       |> fun t ->
       biconnect t "ui" "http" |> fun t ->
       biconnect t "http" "scheduler" |> fun t ->
       biconnect t "scheduler" "store"
     in
     let mapping =
       let open Mapping.Build in
       create ~id:"booking-mapping" ~ontology ~architecture
       |> map ~event_type:"requests" ~to_:[ "ui" ]
       |> map ~event_type:"checks" ~to_:[ "scheduler"; "store" ]
       |> map ~event_type:"confirms" ~to_:[ "scheduler"; "ui" ]
     in
     let scenarios_xml = Scenarioml.Xml_io.set_to_string set in
     let architecture_xml = Adl.Xml_io.to_string architecture in
     let mapping_xml = Mapping.Xml_io.to_string mapping in
     (* the model's base state is the PARSED architecture — the same
        value the registry ends up with after the API (or recovery)
        parses the XML it was sent *)
     let parsed_arch = Adl.Xml_io.of_string architecture_xml in
     (scenarios_xml, architecture_xml, mapping_xml, parsed_arch))

let scenarios_xml () =
  let x, _, _, _ = Lazy.force fixture in
  x

let architecture_xml () =
  let _, x, _, _ = Lazy.force fixture in
  x

let mapping_xml () =
  let _, _, x, _ = Lazy.force fixture in
  x

let base_arch () =
  let _, _, _, a = Lazy.force fixture in
  a

let project_of_arch arch =
  match
    Core.Sosae.project_of_strings ~scenarios:(scenarios_xml ())
      ~architecture:(Adl.Xml_io.to_string arch) ~mapping:(mapping_xml ())
  with
  | Ok p -> p
  | Error _ -> failwith "simtest: fixture project does not parse"

let session_id slot = Printf.sprintf "s%d" slot

(* ------------------------------------------------------------------ *)
(* Live state                                                         *)
(* ------------------------------------------------------------------ *)

let find t id = List.assoc_opt id t.live

let state_set state id arch =
  List.merge
    (fun (a, _) (b, _) -> compare a b)
    [ (id, arch) ]
    (List.remove_assoc id state)

let state_del state id = List.remove_assoc id state

let set t id arch = t.live <- state_set t.live id arch

(* ------------------------------------------------------------------ *)
(* Digests                                                            *)
(* ------------------------------------------------------------------ *)

let digest_of_state state =
  String.concat "\x00"
    (List.concat_map (fun (id, arch) -> [ id; Adl.Xml_io.to_string arch ]) state)

let live_digest t = digest_of_state t.live

let registry_digest reg =
  let ids = Server.Registry.ids reg in
  let state =
    List.map
      (fun id ->
        match
          Server.Registry.with_session reg id (fun session ->
              Adl.Xml_io.to_string
                (Core.Sosae.Session.project session).Core.Sosae.architecture)
        with
        | Ok xml -> (id, xml)
        | Error `Not_found -> (id, "<gone>"))
      ids
  in
  String.concat "\x00" (List.concat_map (fun (id, xml) -> [ id; xml ]) state)

(* ------------------------------------------------------------------ *)
(* Durable history                                                    *)
(* ------------------------------------------------------------------ *)

let push_entry t ~seq = t.entries <- (seq, t.live) :: t.entries

let last_entry_state t =
  match t.entries with [] -> [] | (_, s) :: _ -> s

let last_entry_seq t = match t.entries with [] -> 0L | (s, _) :: _ -> s

let entry_state t seq =
  if seq = 0L then Some []
  else List.assoc_opt seq t.entries

(* a crash recovered to [seq]: drop every later entry and resync the
   live mirror to what recovery rebuilt *)
let truncate t ~seq =
  t.entries <- List.filter (fun (s, _) -> s <= seq) t.entries;
  t.live <- last_entry_state t

(* a non-crash failure forced a reopen: journal unchanged, memory
   resynced to the last durable entry *)
let sync_to_last t = t.live <- last_entry_state t

(* ------------------------------------------------------------------ *)
(* Evaluation oracle                                                  *)
(* ------------------------------------------------------------------ *)

let eval_json arch =
  let project = project_of_arch arch in
  Walkthrough.Report.set_result_to_json
    (Core.Sosae.evaluate ~jobs:1 project)

(** ScenarioML XML reading and writing for scenarios and scenario sets.

    Concrete syntax (paper vocabulary):
    {v
    <scenarioSet id name>
      <ontology .../>            (see Ontology.Xml_io)
      <scenario id name kind="positive|negative">
        <description>...</description>
        <actor ref="..."/>*
        <events> EVENT* </events>
      </scenario>*
    </scenarioSet>
    v}
    where EVENT is one of [<event id>text</event>],
    [<typedEvent id type> <arg param ref|value/>* </typedEvent>],
    [<compound id order="sequence|any">EVENT*</compound>],
    [<alternation id> <branch>EVENT*</branch>* </alternation>],
    [<iteration id bound="zeroOrMore|oneOrMore|N">EVENT*</iteration>],
    [<optional id>EVENT*</optional>], and
    [<episode id scenario="..."/>]. *)

exception Malformed of string

val event_to_element : Event.t -> Xmlight.Doc.element

val scenario_to_element : Scen.t -> Xmlight.Doc.element

val set_to_string : Scen.set -> string

val set_of_string : string -> Scen.set
(** @raise Malformed on XML or schema errors. *)

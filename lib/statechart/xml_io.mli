(** XML reading and writing for statecharts (the xADL behavioral
    extension's vocabulary):
    {v
    <statechart id component initial>
      <state id name [initial]> <state.../>* </state>*
      <transition id from to trigger [guard]>
        <output>eventName</output>*
      </transition>*
    </statechart>
    v} *)

exception Malformed of string

val to_element : Types.t -> Xmlight.Doc.element

val to_string : Types.t -> string

val of_element : Xmlight.Parse.doc -> Xmlight.Parse.element -> Types.t
(** Read a [<statechart>] element in place.
    @raise Malformed on schema errors. *)

val of_string : string -> Types.t
(** @raise Malformed on XML or schema errors. *)

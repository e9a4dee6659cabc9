(** XML reading and writing for mappings:
    {v
    <mapping id ontology architecture>
      <map eventType="...">
        <to component="..."/>*
        <rationale>...</rationale>?
      </map>*
    </mapping>
    v} *)

exception Malformed of string

val to_element : Types.t -> Xmlight.Doc.element

val to_string : Types.t -> string

val of_string : string -> Types.t
(** @raise Malformed on XML or schema errors. *)

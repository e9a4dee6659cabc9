(** xADL-style XML reading and writing for architecture structures.

    Concrete syntax (an xADL-2.0-like vocabulary):
    {v
    <archStructure id name [style]>
      <component id name>
        <description>...</description>?
        <responsibility>...</responsibility>*
        <interface id name direction="provided|required|inout">
          <tag name="..." value="..."/>*
        </interface>*
        <tag name="..." value="..."/>*
        <subArchitecture><archStructure.../></subArchitecture>?
      </component>*
      <connector id name>...</connector>*
      <link id>
        <from anchor="..." interface="..."/>
        <to anchor="..." interface="..."/>
      </link>*
    </archStructure>
    v} *)

exception Malformed of string

val to_element : Structure.t -> Xmlight.Doc.element

val to_string : Structure.t -> string

val of_string : string -> Structure.t
(** @raise Malformed on XML or schema errors. *)

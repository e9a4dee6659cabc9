(** ScenarioML-style XML reading and writing for ontologies.

    The concrete syntax follows the paper's vocabulary:
    [<ontology id name>] containing [<instanceType>], [<instance>],
    [<eventType>] (with nested [<parameter>] elements and optional
    [super] and [actor] attributes), and [<term>] elements. *)

exception Malformed of string

val to_element : Types.t -> Xmlight.Doc.element

val to_string : Types.t -> string

val of_element : Xmlight.Parse.doc -> Xmlight.Parse.element -> Types.t
(** Read an [<ontology>] element in place.
    @raise Malformed when required attributes or elements are missing. *)

val of_string : string -> Types.t
(** Parse a complete XML document whose root is [<ontology>].
    @raise Malformed on XML or schema errors. *)

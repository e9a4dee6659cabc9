(** Export of ScenarioML ontologies and mappings to OWL triples — the
    paper's §8 direction: "We are moving toward the use of the OWL web
    ontology language in order to make use of existing OWL tools and
    reasoners."

    Encoding: domain classes become [owl:Class]es (subsumption via
    [rdfs:subClassOf]); individuals become typed [owl:NamedIndividual]s;
    event types become instances of [sosae:EventType] *and* classes
    related by [rdfs:subClassOf] (so the OWL reasoner can answer
    subsumption questions about events); parameters become blank nodes
    with [sosae:paramName]/[sosae:paramClass]; the event-to-component
    mapping becomes [sosae:mapsTo] assertions onto [sosae:Component]
    individuals. *)

val iri_of : string -> string
(** IRI for a ScenarioML definition id (in the sosae namespace). *)

val ontology_to_store : Ontology.Types.t -> Store.t

val full_export : Ontology.Types.t -> Mapping.Types.t -> Store.t
(** Ontology triples plus mapping triples in one store. *)

val components_realizing : Store.t -> event_type:string -> string list
(** After reasoning: component ids reachable from the event type (or any
    of its event supertypes) via [sosae:mapsTo] — demonstrates answering
    mapping questions with the OWL reasoner instead of the native
    mapping structure. *)

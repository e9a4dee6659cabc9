(** The CRASH case study (paper §4.2).

    CRASH — Crisis Response and Situation Handling — "models a
    collection of governmental and non-governmental organizations
    cooperating in response to emerging situations". Each peer divides
    into three subsystem classes: Display, Information Gathering
    Sources, and Command and Control; C&C centers of different
    organizations interconnect through (ad hoc) networks. The
    architectural style is C2: requests travel up, notifications travel
    down, components know only the layers above. *)

val organizations : (string * string) list
(** The seven decision-making organizations: (id, display name). *)

val ontology : Ontology.Types.t

val entity_architecture : Adl.Structure.t
(** Fig. 7: the internal C2 architecture of one entity's Command and
    Control center (user interface on top, sharing/resource/situation
    managers in the middle, communication manager and decision support
    at the bottom, C2 bus connectors between layers, and the external
    network reachable below the communication manager). *)

val high_level_architecture : ?orgs:int -> unit -> Adl.Structure.t
(** Fig. 5: [orgs] peers (default all 7, min 2), each with Display and
    Information Gathering Source subsystems linked to its C&C through an
    internal ad hoc connector; all C&C centers joined by the emergency
    network connector. Each C&C carries {!entity_architecture} as its
    substructure. *)

val vulnerable_architecture : Adl.Structure.t
(** A 2-peer variant with an unauthenticated "Intruder" entity attached
    to the emergency network — the negative security scenario executes
    on this one. *)

val entity_mapping : Mapping.Types.t
(** Fig. 8: event types to entity-internal components, e.g.
    ["send-message"] to User Interface, Sharing Info Manager, and
    Communication Manager. *)

val network_mapping : Mapping.Types.t
(** Org-level event types to peers of the 2-peer high-level
    architecture (Fire and Police, as in the paper's scenarios). *)

val entity_scenario_set : Scenarioml.Scen.set
(** Scenarios evaluated against {!entity_architecture}: "Entity
    Availability", "Message Sequence", and further dependability
    scenarios. *)

val network_scenario_set : Scenarioml.Scen.set
(** Org-level scenarios (inter-organization cooperation and the
    negative unauthenticated-access scenario) evaluated against
    {!high_level_architecture} / {!vulnerable_architecture}. *)

val entity_availability : Scenarioml.Scen.t

val message_sequence : Scenarioml.Scen.t

val unauthenticated_access : Scenarioml.Scen.t
(** The negative scenario: "a user with inadequate authentication
    information accessing the system" (paper §3.5). *)

val fire_chart : Statechart.Types.t
(** Behavior of the Fire Department C&C peer used by the dynamic
    experiments: initiates requests, reacts to notifications and to
    network failure notices. *)

val police_chart : Statechart.Types.t
(** Behavior of the Police Department C&C peer: acknowledges requests
    with notifications. *)

val event_type_label : string -> string

val component_label : string -> string

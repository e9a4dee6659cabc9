(** ScenarioML ontology: domain classes ([instanceType]), domain
    individuals ([instance]), event types ([eventType]), and glossary
    terms ([term]).

    An ontology is "a collection of domain class, individual, and event
    type definitions that are typically interrelated" (paper, §1). Event
    types act as templates reused by scenarios; domain classes and
    individuals give unambiguous referents for the entities events
    mention. Both domain classes and event types support subsumption
    (subclass/supertype) and parameterization. *)

type param = {
  param_name : string;  (** placeholder name used in the template text *)
  param_class : string;  (** id of the domain class constraining arguments *)
}

(** A domain class: a class of domain entities "that are in some sense
    equivalent". *)
type domain_class = {
  class_id : string;
  class_name : string;
  class_description : string;
  class_super : string option;  (** subsuming class, if any *)
}

(** A domain individual: a specific entity of a class whose existence is
    assumed or guaranteed. *)
type individual = {
  ind_id : string;
  ind_name : string;
  ind_class : string;  (** id of the class this individual belongs to *)
  ind_description : string;
}

(** An event type: a template for reusing the same event in several
    scenarios or several times in the same scenario. The [template] text
    may contain [{param}] placeholders filled by arguments at
    instantiation. *)
type event_type = {
  event_id : string;
  event_name : string;
  template : string;
  event_super : string option;  (** subsuming event type, if any *)
  params : param list;
  actor : string option;  (** id of the class of the performing actor *)
}

(** A glossary term capturing a general concept of the system. *)
type term = { term_id : string; term_name : string; term_definition : string }

type t = {
  ontology_id : string;
  ontology_name : string;
  classes : domain_class list;  (** in definition order *)
  individuals : individual list;
  event_types : event_type list;
  terms : term list;
}

val empty : id:string -> name:string -> t

val find_class : t -> string -> domain_class option

val find_individual : t -> string -> individual option

val find_event_type : t -> string -> event_type option

val find_term : t -> string -> term option

val event_type_exn : t -> string -> event_type
(** @raise Not_found when the id is not defined. *)

val size : t -> int
(** Total number of definitions of all four kinds. *)

val expand_template : event_type -> (string * string) list -> string
(** [expand_template et args] substitutes each [{p}] placeholder in the
    template with the argument bound to parameter [p]. Placeholders with
    no binding are kept verbatim (useful for printing the uninstantiated
    template). *)

(** Architectural style rules.

    A style is a named set of structural constraints. The walkthrough
    engine reports an inconsistency "when the structural description of
    the architecture violates constraints imposed by the requirements"
    (paper §3.5) — style rules are the machine-checkable form of such
    communication constraints. *)

type violation = {
  rule : string;  (** rule identifier, e.g. ["layered.skip"] *)
  subject : string;  (** offending element or link id *)
  detail : string;
}

type t = {
  rule_id : string;
  rule_description : string;
  check : Adl.Structure.t -> violation list;
}

val make : id:string -> description:string -> (Adl.Structure.t -> violation list) -> t

val violation : rule:string -> subject:string -> string -> violation

val pp_violation : Format.formatter -> violation -> unit

val check_all : t list -> Adl.Structure.t -> violation list
(** Violations from every rule, rule order then discovery order. *)

(** Behavior bundles: the statecharts of an architecture's components as
    one document — the xADL behavioral description (paper §3.3: "the
    behavioral description allows dynamic checking of the architecture
    against scenarios").

    XML form: [<archBehavior id> <statechart .../>* </archBehavior>]. *)

type t = { bundle_id : string; charts : Types.t list }

type problem =
  | Duplicate_component of string
      (** two charts claim the same component *)
  | Chart_problem of { chart : string; problem : Validate.problem }

val make : id:string -> Types.t list -> t

val chart_for : t -> string -> Types.t option
(** The chart describing the given component. *)

val components : t -> string list

val check : t -> problem list

val pp_problem : Format.formatter -> problem -> unit

exception Malformed of string

val to_element : t -> Xmlight.Doc.element

val to_string : t -> string

val of_string : string -> t
(** @raise Malformed on XML or schema errors. *)

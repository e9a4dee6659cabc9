(** Style registry: look up rule sets by declared style name and check
    an architecture against its own declared style. *)

val known_styles : string list
(** ["layered"; "layered-strict"; "c2"; "client-server"; "pipe-filter"]. *)

val check_declared : Adl.Structure.t -> Rule.violation list
(** Check an architecture against the rule set named by its [style]
    field. Architectures with no declared or an unknown style yield no
    violations. *)

val conforms : Adl.Structure.t -> string -> bool
(** Does the architecture satisfy the named style's rules?
    Unknown styles conform vacuously. *)

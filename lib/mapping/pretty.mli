(** Rendering of mappings, including the cross table of the paper's
    Table 1 (rows: event types; columns: components; X at mapped
    intersections). *)

val pp : Format.formatter -> Types.t -> unit
(** Entry list with rationales. *)

val to_string : Types.t -> string

val table_to_string :
  ?event_type_label:(string -> string) ->
  ?component_label:(string -> string) ->
  Types.t ->
  string

(** Behavioral descriptions of the CRASH entity-internal components
    (Fig. 7), used to execute messages *on the architecture itself*
    ({!Dsim.Arch_sim}): an outgoing message composed at the User
    Interface traverses Sharing Info Manager and Communication Manager
    to the network — the three components Fig. 8 maps [sendMessage] to —
    and an incoming one climbs the same path in reverse. *)

val charts : Statechart.Types.t list

type message_path_run = {
  outgoing_reached_network : bool;
  outgoing_path : string list;  (** components that fired, in order *)
  incoming_informed_ui : bool;
  incoming_path : string list;
}

val run_message_paths : unit -> message_path_run
(** Execute both directions on {!Crash.entity_architecture}. *)

val run_message_paths_on : Adl.Structure.t -> message_path_run
(** Same, on a (possibly broken) variant of the entity architecture. *)

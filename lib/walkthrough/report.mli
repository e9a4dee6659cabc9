(** Rendering of walkthrough results, in the numbered-step style of the
    paper's Fig. 4 (failing hops are marked with [??]). *)

val pp_trace : Format.formatter -> Verdict.trace_result -> unit

val pp_scenario_result : Format.formatter -> Verdict.scenario_result -> unit

val pp_set_result : Format.formatter -> Engine.set_result -> unit

val scenario_result_to_string : Verdict.scenario_result -> string

val summary_line : Verdict.scenario_result -> string
(** e.g. ["create-portfolio: CONSISTENT (1 trace)"]. *)

(** {1 Machine-readable verdicts}

    JSON mirrors of the pretty-printers above, for tooling built on the
    CLI's [evaluate --json] and the evaluation server (and the shared
    story with [Sosae.validation_to_json]). The trees and the writers
    give the same bytes: the writers put a verdict straight into a
    buffer, building no tree, and the trees are the reference they
    are tested against. *)

val json_of_scenario_result : Verdict.scenario_result -> Jsonlight.t

val json_of_set_result : Engine.set_result -> Jsonlight.t

val scenario_result_to_buffer : Buffer.t -> Verdict.scenario_result -> unit
(** Append [Jsonlight.to_string (json_of_scenario_result r)]. *)

val set_result_to_buffer :
  ?scenario:(Buffer.t -> Verdict.scenario_result -> unit) ->
  Buffer.t ->
  Engine.set_result ->
  unit
(** Append [Jsonlight.to_string (json_of_set_result r)], each verdict
    written by [scenario] (default {!scenario_result_to_buffer}): a
    caller holding a verdict's bytes already, such as
    [Core.Sosae.Session.verdict_json], copies them instead. *)

val scenario_result_to_json : Verdict.scenario_result -> string

val set_result_to_json : Engine.set_result -> string

val trace_to_dot :
  Adl.Structure.t -> Verdict.trace_result -> string
(** Graphviz DOT of the architecture with the trace's hop paths (and the
    components of failing steps) highlighted — a textual Fig. 4. *)

(** Behavioral descriptions (statecharts) for selected PIMS components,
    used by the behavioral walkthrough ({!Walkthrough.Dynamic}).

    The interesting protocol is the Loader's: prices can only be saved
    after they have been downloaded. A scenario that statically walks
    (all links exist) but saves before downloading is rejected
    behaviorally — the distinction the paper draws between structural
    walkthroughs and "simulating the behavior of the matched
    components" (§3.5). *)

val loader_chart : Statechart.Types.t
(** [idle --system-downloads--> loaded --system-saves--> idle]. *)

val charts : Statechart.Types.t list
(** All PIMS behavior charts. *)

val reordered_get_share_prices : Scenarioml.Scen.t
(** The "Get the current prices of shares" main scenario with the save
    moved before the download — statically consistent, behaviorally
    rejected. *)

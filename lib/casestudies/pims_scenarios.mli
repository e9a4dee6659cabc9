(** The 22 PIMS use-case scenarios (authored after the use-case list of
    Jalote's book, which the paper uses as its requirements source:
    "In total the system's requirements comprise 22 use cases. Each use
    case contains a main scenario and some alternative scenarios.").

    The two scenarios the paper walks through are reproduced with the
    paper's exact event sequences: {!create_portfolio} ("Create
    portfolio") and {!get_share_prices} ("Get the current prices of
    shares"), each with its alternate branch encoded as an alternation
    schema. *)

val create_portfolio : Scenarioml.Scen.t

val get_share_prices : Scenarioml.Scen.t

val all : Scenarioml.Scen.t list
(** All 22 scenarios, {!create_portfolio} and {!get_share_prices}
    included. *)

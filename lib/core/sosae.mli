(** SOSAE — Scenario and Ontology-based Software Architecture
    Evaluation: the umbrella API tying the four steps of the paper's
    approach together (Fig. 1):

    1. requirements-level scenarios in ScenarioML ({!Scenarioml});
    2. architecture description in an xADL-style ADL ({!Adl},
       {!Statechart});
    3. the ontology-to-component mapping ({!Mapping});
    4. walkthrough evaluation ({!Walkthrough}) plus dynamic simulation
       ({!Dsim}).

    A {!project} bundles the three artifacts; {!validate} checks each
    artifact individually and the references between them; {!evaluate}
    runs the full walkthrough evaluation once. For repeated evaluation
    of the same project across architecture edits — the paper's §4.1
    evolution experiment, or any heavy re-evaluation workload — use
    {!Session}, which caches verdicts and re-evaluates incrementally. *)

val version : string

type project = {
  scenarios : Scenarioml.Scen.set;
  architecture : Adl.Structure.t;
  mapping : Mapping.Types.t;
}

type validation = {
  ontology_problems : Ontology.Wellformed.problem list;
  scenario_problems : Scenarioml.Validate.problem list;
  architecture_problems : Adl.Validate.problem list;
  coverage_problems : Mapping.Coverage.problem list;
  ok : bool;
}

val validate : ?require_responsibilities:bool -> project -> validation

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the worker count {!evaluate}
    and {!evaluate_suite} use when [~jobs] is not given. *)

val fan_out_work : int
(** The work from which a batch of scenario walks fans out over a
    {!Dsim.Pool} of [jobs] domains. A batch's work is its scenarios
    times the bricks (components plus connectors) of the architecture
    they walk; a smaller batch, or any batch at [jobs <= 1], walks
    inline on the calling domain, because spawning and joining the
    pool would cost more than the walks. The value is where jobs=2
    starts to pay in [bench/main.exe scale] on a 2-core host. *)

val evaluate :
  ?config:Walkthrough.Engine.config -> ?jobs:int -> project -> Walkthrough.Engine.set_result
(** Walk every scenario of the project through its architecture.

    With [jobs] > 1 (default {!default_jobs}) and at least
    {!fan_out_work} of work, scenarios are evaluated on a pool of
    [jobs] OCaml domains; otherwise they walk inline. Each worker owns
    a private {!Adl.Reach} oracle, so no evaluation state is shared
    across domains; since a scenario's verdict is a pure function of
    the project and config, the result — content and order — is the
    same on either path. *)

val evaluate_suite :
  ?config:Walkthrough.Engine.config ->
  ?jobs:int ->
  project ->
  Scenarioml.Scen.t list ->
  Walkthrough.Verdict.scenario_result list
(** Evaluate just the given scenarios (a sub-suite) against the
    project's architecture, in the given order, inline or on a domain
    pool by the same rule as {!evaluate}. No style or coverage
    checks. *)

val evaluate_scenario :
  ?config:Walkthrough.Engine.config ->
  project ->
  string ->
  Walkthrough.Verdict.scenario_result option
(** Evaluate one scenario by id; [None] when the id is unknown. *)

val evaluate_behavioral :
  ?config:Walkthrough.Dynamic.config ->
  project ->
  Statechart.Bundle.t ->
  Walkthrough.Dynamic.result list
(** Behavioral walkthrough of every scenario over the bundle's
    statecharts (paper §3.5's "simulating the behavior of the matched
    components"). *)

val export_owl : project -> Semweb.Store.t
(** Ontology + mapping as OWL triples (paper §8). *)

(** Stateful evaluation sessions over one project.

    A session holds a memoized reachability oracle ({!Adl.Reach}) for
    the current architecture and a per-scenario verdict cache. Each
    cached verdict carries the log of reachability queries its walk
    performed; after an architecture edit ({!Session.apply_diff}), a
    scenario is re-evaluated only when replaying its log against the
    new oracle changes some answer — i.e. only when the edit actually
    touches the communication its walk relied on. Served verdicts are
    bit-for-bit the ones a fresh evaluation would produce.

    The paper's Fig. 4 experiment in session form: excising the
    Loader–Data Access link re-evaluates "Get the current prices of
    shares" (its hop crossed the excised link) while "Create portfolio"
    is served from cache. *)
module Session : sig
  type t

  val create : ?config:Walkthrough.Engine.config -> project -> t
  (** The config is fixed for the session's lifetime. *)

  val project : t -> project
  (** The current project (reflects {!apply_diff} edits). *)

  val config : t -> Walkthrough.Engine.config

  val reach : t -> Adl.Reach.t
  (** The session's oracle for the current architecture. *)

  val revision : t -> int
  (** The session-local architecture revision: 0 at {!create}, bumped
      by every {!apply_diff} and {!set_architecture}. Two reads
      returning the same revision bracket a window with no
      architecture change — the validity key of anything derived from
      the current architecture (the evaluation server caches
      serialized evaluate responses against it). *)

  val evaluate : ?jobs:int -> t -> Walkthrough.Engine.set_result
  (** Evaluate every scenario, serving unchanged verdicts from cache.
      Equal to {!val:evaluate} on the session's current project. The
      scenarios that need a fresh walk — cache misses and failed
      replays — walk inline with the session's oracle, unless [jobs > 1]
      (default {!default_jobs}, as for {!val:evaluate}) and their work
      reaches {!fan_out_work}: then they run on a domain pool, each
      worker with a private oracle. Results, cache contents, and stats
      are the same on either path. *)

  val evaluate_scenario : t -> string -> Walkthrough.Verdict.scenario_result option
  (** One scenario by id, through the cache; [None] when unknown. *)

  val verdict_json : t -> Walkthrough.Verdict.scenario_result -> string
  (** [Walkthrough.Report.scenario_result_to_json r]. When [r] is the
      verdict the session holds for its scenario, as every verdict of
      the latest {!evaluate} or {!evaluate_scenario} is, the bytes are
      rendered once and kept with it: later calls answer the same
      string, also after an edit that revalidates the verdict, so a
      render after an edit renders only the scenarios it re-walked. *)

  val apply_diff : t -> Adl.Diff.op list -> unit
  (** Apply evolution operations to the session's architecture. Cached
      verdicts are kept and revalidated lazily (by query replay) at the
      next evaluation. When every op is a [Remove_link], entries whose
      logged answers never crossed a removed link are revalidated
      immediately, without replay: removals cannot create communication,
      and recorded paths that avoid the removed links survive untouched.
      @raise Adl.Diff.Apply_error when an op does not apply. *)

  val set_architecture : t -> Adl.Structure.t -> unit
  (** Replace the architecture wholesale; same cache semantics as
      {!apply_diff}. *)

  val invalidate : ?scenario:string -> t -> unit
  (** Drop one scenario's cached verdict, or the whole cache. *)

  type stats = {
    evaluations : int;  (** full scenario walks performed *)
    cache_hits : int;  (** verdicts served with no architecture change *)
    replays : int;  (** query-log replays after an architecture change *)
    replay_hits : int;  (** replays that allowed reusing the verdict *)
  }

  val stats : t -> stats
  (** Cumulative since {!create}. *)

  val pp_stats : Format.formatter -> stats -> unit

  val exclusively : t -> (unit -> 'a) -> 'a
  (** Run the callback holding the session's private lock. Session
      operations are not internally synchronized — the verdict cache
      and the oracle are plain mutable state — so concurrent users
      (the evaluation server's registry, any multi-threaded embedding)
      must funnel every operation on a shared session through
      [exclusively]. The lock is per-session: operations on distinct
      sessions never contend. Not reentrant. *)
end

(** {1 Loading and saving projects} *)

type artifact = Scenarios | Architecture | Mapping

type load_error =
  | Io_error of { artifact : artifact; file : string; message : string }
      (** the file cannot be read *)
  | Xml_error of { artifact : artifact; file : string; message : string }
      (** the file is not well-formed XML *)
  | Schema_error of { artifact : artifact; file : string; message : string }
      (** well-formed XML that is not a valid document of its kind *)

val load_project_result :
  scenarios:string ->
  architecture:string ->
  mapping:string ->
  (project, load_error) result
(** Read the three artifacts from XML files; the first failing artifact
    (in scenarios, architecture, mapping order) is reported. *)

val project_of_strings :
  scenarios:string ->
  architecture:string ->
  mapping:string ->
  (project, load_error) result
(** Like {!load_project_result}, but the arguments are the XML
    documents themselves rather than file names — the loading path of
    callers that receive artifacts over the wire (the evaluation
    server's [POST /sessions]). The [file] field of a reported error
    names the artifact slot (["<scenarios>"], ["<architecture>"],
    ["<mapping>"]); [Io_error] cannot occur. *)

val load_error_to_string : load_error -> string

val save_project :
  project -> scenarios:string -> architecture:string -> mapping:string -> unit
(** Write the three artifacts to XML files. *)

val pp_validation : Format.formatter -> validation -> unit

val validation_to_json : validation -> string
(** Machine-readable {!validation}, the companion of
    {!Walkthrough.Report.set_result_to_json}. *)

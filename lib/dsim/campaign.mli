(** Monte-Carlo dependability campaigns over the architecture
    simulator.

    The paper's quality-attribute step (§4.2, §8) assesses availability
    and reliability by simulating scenario execution on the
    architecture; one run of one fault plan is an anecdote. A campaign
    sweeps seed-indexed fault plans — crash timing jitter, downtime
    ranges, partition windows, message-loss rates — over N independent
    trials and aggregates them into a {!Stats.report} with confidence
    intervals, in the style of architecture-level reliability
    estimation (Cheung).

    Determinism: trial [i] of a campaign with seed [s] uses the
    splittable seed [trial_seed ~seed:s i] for {e both} its fault-plan
    sampling and its network RNG ([Network.config.seed]), and results
    land in a slot array indexed by trial. The outcome array is
    therefore bit-identical across runs and across any [jobs] count or
    reused {!Pool.t}. *)

type range = { lo : float; hi : float }
(** A closed sampling interval; [hi <= lo] always yields [lo]. *)

val fixed : float -> range

type fault_spec =
  | Always of Faults.fault  (** the same fault in every trial *)
  | Crash_window of { node : string; at : range; downtime : range }
      (** crash-restart with jittered start and sampled downtime *)
  | Partition_window of { groups : string list list; from_ : range; width : range }
      (** partition with jittered start and sampled duration *)

type stimulus = { at : float; component : string; trigger : string }
(** Inject [trigger] into [component]'s chart at virtual time [at]. *)

type goal =
  | Delivered of { component : string; payload : string }
      (** completed when [payload] is delivered to [component];
          latency is measured from the earliest stimulus *)
  | Chart_state of { component : string; state : string }
      (** completed when the component's chart ends the trial with
          [state] active (no latency) *)

type t = {
  architecture : Adl.Structure.t;
  charts : Statechart.Types.t list;
  config : Network.config;  (** [config.seed] is overridden per trial *)
  hop_budget : int;
  stimuli : stimulus list;
  goal : goal;
  horizon : float option;  (** bound each trial's virtual time *)
  faults : fault_spec list;
  watched : string list;  (** nodes whose uptime the outcomes measure *)
}

val make :
  ?config:Network.config ->
  ?hop_budget:int ->
  ?horizon:float ->
  ?faults:fault_spec list ->
  ?watched:string list ->
  architecture:Adl.Structure.t ->
  charts:Statechart.Types.t list ->
  stimuli:stimulus list ->
  goal:goal ->
  unit ->
  t
(** [watched] defaults to the crash targets named by [faults], or to
    every component when the plan names none. [make] checks nothing;
    {!validate} does. *)

val validate : t -> (unit, string) result
(** [Error] naming the first bad field, spelled as in a simulate body
    (["loss"], ["faults[0].downtime"], ["stimuli[1].component"]):
    - the loss probability lies in [[0, 1]];
    - latency, jitter, every range bound, fault time and stimulus time
      are [>= 0];
    - the horizon, when given, is [> 0];
    - every node a fault, stimulus, goal or [watched] names is a
      component or connector of the architecture. *)

val trial_seed : seed:int -> int -> int
(** The splittable per-trial seed: a splitmix64-style mix of the
    campaign seed and the trial index. *)

val sample_plan : t -> seed:int -> Faults.plan
(** The concrete fault plan a trial with this (already split) seed
    draws. *)

val trial : t -> seed:int -> int -> Stats.outcome * Network.event list
(** [trial t ~seed i] runs trial [i] of the campaign (faults armed
    before stimuli; same-instant ties execute fault-first) and returns
    its outcome together with the full network trace. Deterministic:
    same arguments, bit-identical trace. *)

val run :
  ?pool:Pool.t -> ?jobs:int -> ?seed:int -> trials:int -> t -> Stats.outcome array
(** Run [trials] trials; outcome [i] is trial [i]'s. With [pool] the
    trials run on the given (reusable) domain pool; otherwise [jobs]
    (default 1) sets the pool size for this run. The result does not
    depend on either. *)

val run_fold :
  ?pool:Pool.t ->
  ?jobs:int ->
  ?seed:int ->
  trials:int ->
  t ->
  init:'a ->
  f:('a -> Stats.outcome -> 'a) ->
  'a
(** Fold the outcomes in trial order (aggregation happens after the
    parallel sweep, so [f] needs no synchronization). *)

val report : ?pool:Pool.t -> ?jobs:int -> ?seed:int -> trials:int -> t -> Stats.report
(** [Stats.of_outcomes] of {!run}. *)

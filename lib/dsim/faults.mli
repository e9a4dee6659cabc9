(** Fault injection plans for dependability experiments.

    The CRASH availability scenario (paper §4.2) is a single software
    failure; real dependability evaluation sweeps over failure patterns.
    A fault plan schedules crashes, restarts, and network partitions on
    the simulated network; {!apply} arms the plan on the engine before a
    run. *)

type fault =
  | Crash of { node : string; at : float }
  | Restart of { node : string; at : float }
  | Crash_restart of { node : string; at : float; downtime : float }
  | Partition of { groups : string list list; from_ : float; until : float }
      (** between [from_] and [until], messages between different groups
          are dropped at delivery time (intra-group traffic flows) *)

type plan = fault list

val apply : Network.t -> plan -> unit
(** Schedule every fault on the network's engine. Partitions wrap the
    affected nodes' receive paths; nodes not named in any group are
    unaffected. Call before {!Engine.run}. *)

val periodic_crashes :
  node:string -> period:float -> downtime:float -> count:int -> plan
(** [count] crash/restart cycles: crash at [period], [2*period], ...,
    each lasting [downtime]. *)

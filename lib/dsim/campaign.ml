type range = { lo : float; hi : float }

let fixed v = { lo = v; hi = v }

type fault_spec =
  | Always of Faults.fault
  | Crash_window of { node : string; at : range; downtime : range }
  | Partition_window of { groups : string list list; from_ : range; width : range }

type stimulus = { at : float; component : string; trigger : string }

type goal =
  | Delivered of { component : string; payload : string }
  | Chart_state of { component : string; state : string }

type t = {
  architecture : Adl.Structure.t;
  charts : Statechart.Types.t list;
  config : Network.config;
  hop_budget : int;
  stimuli : stimulus list;
  goal : goal;
  horizon : float option;
  faults : fault_spec list;
  watched : string list;
}

let crash_targets faults =
  List.filter_map
    (function
      | Always (Faults.Crash { node; _ })
      | Always (Faults.Restart { node; _ })
      | Always (Faults.Crash_restart { node; _ })
      | Crash_window { node; _ } ->
          Some node
      | Always (Faults.Partition _) | Partition_window _ -> None)
    faults

let make ?(config = Network.default_config) ?(hop_budget = 16) ?horizon ?(faults = [])
    ?watched ~architecture ~charts ~stimuli ~goal () =
  let watched =
    match watched with
    | Some w -> w
    | None -> (
        match List.sort_uniq compare (crash_targets faults) with
        | [] ->
            List.map (fun c -> c.Adl.Structure.comp_id) architecture.Adl.Structure.components
        | targets -> targets)
  in
  { architecture; charts; config; hop_budget; stimuli; goal; horizon; faults; watched }

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

exception Invalid of string

(* Each check raises [Invalid] with a message naming the field the way
   a simulate body spells it. [not (x >= 0.)] also refuses a NaN. *)
let check t =
  let fail fmt = Printf.ksprintf (fun m -> raise (Invalid m)) fmt in
  let nonneg field x = if not (x >= 0.0) then fail "%S must be >= 0, got %g" field x in
  let range field { lo; hi } =
    nonneg field lo;
    nonneg field hi
  in
  let bricks = Adl.Structure.brick_ids t.architecture in
  let node field id =
    if not (List.mem id bricks) then
      fail "%S names %S, which is no component or connector of the architecture" field
        id
  in
  let p = t.config.Network.drop_probability in
  if not (p >= 0.0 && p <= 1.0) then fail "\"loss\" must lie in [0, 1], got %g" p;
  nonneg "latency" t.config.Network.default_latency;
  nonneg "jitter" t.config.Network.jitter;
  Option.iter
    (fun h -> if not (h > 0.0) then fail "\"horizon\" must be > 0, got %g" h)
    t.horizon;
  List.iteri
    (fun i spec ->
      let field name = Printf.sprintf "faults[%d].%s" i name in
      match spec with
      | Crash_window { node = n; at; downtime } ->
          node (field "node") n;
          range (field "at") at;
          range (field "downtime") downtime
      | Partition_window { groups; from_; width } ->
          List.iter (List.iter (node (field "groups"))) groups;
          range (field "from") from_;
          range (field "width") width
      | Always (Faults.Crash { node = n; at } | Faults.Restart { node = n; at }) ->
          node (field "node") n;
          nonneg (field "at") at
      | Always (Faults.Crash_restart { node = n; at; downtime }) ->
          node (field "node") n;
          nonneg (field "at") at;
          nonneg (field "downtime") downtime
      | Always (Faults.Partition { groups; from_; until }) ->
          List.iter (List.iter (node (field "groups"))) groups;
          nonneg (field "from") from_;
          nonneg (field "until") until)
    t.faults;
  List.iteri
    (fun i { at; component; _ } ->
      nonneg (Printf.sprintf "stimuli[%d].at" i) at;
      node (Printf.sprintf "stimuli[%d].component" i) component)
    t.stimuli;
  (match t.goal with
  | Delivered { component; _ } | Chart_state { component; _ } ->
      node "goal.component" component);
  List.iter (node "watched") t.watched

let validate t = match check t with () -> Ok () | exception Invalid m -> Error m

(* ------------------------------------------------------------------ *)
(* Per-trial seeds                                                    *)
(* ------------------------------------------------------------------ *)

(* Splitmix64-style finalizer: trial [i] of a campaign seeded [s] gets
   an independent, well-mixed seed, so any sub-range of trials can be
   reproduced without replaying a shared RNG stream — the property that
   makes parallel trial order irrelevant. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let trial_seed ~seed index =
  let z =
    Int64.add (Int64.of_int seed)
      (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (index + 1)))
  in
  Int64.to_int (mix64 z) land max_int

(* ------------------------------------------------------------------ *)
(* Fault-plan sampling                                                *)
(* ------------------------------------------------------------------ *)

let sample_range rng { lo; hi } =
  if hi <= lo then lo else lo +. Random.State.float rng (hi -. lo)

(* The plan RNG is derived from the trial seed but salted, so fault
   sampling and network jitter/loss draw from independent streams. *)
let sample_plan t ~seed =
  let rng = Random.State.make [| seed; 0x7a11 |] in
  List.map
    (function
      | Always fault -> fault
      | Crash_window { node; at; downtime } ->
          let at = sample_range rng at in
          let downtime = sample_range rng downtime in
          Faults.Crash_restart { node; at; downtime }
      | Partition_window { groups; from_; width } ->
          let from_ = sample_range rng from_ in
          let width = sample_range rng width in
          Faults.Partition { groups; from_; until = from_ +. width })
    t.faults

(* ------------------------------------------------------------------ *)
(* One trial                                                          *)
(* ------------------------------------------------------------------ *)

let uptime_of_trace ~watched ~end_time events =
  match watched with
  | [] -> 1.0
  | _ when end_time <= 0.0 -> 1.0
  | _ ->
      let down_since = Hashtbl.create 4 in
      let down_total = Hashtbl.create 4 in
      let interesting node = List.exists (String.equal node) watched in
      let close node until =
        match Hashtbl.find_opt down_since node with
        | Some since ->
            Hashtbl.remove down_since node;
            let prior =
              match Hashtbl.find_opt down_total node with Some d -> d | None -> 0.0
            in
            let until = Float.min until end_time in
            Hashtbl.replace down_total node (prior +. Float.max 0.0 (until -. since))
        | None -> ()
      in
      List.iter
        (function
          | Network.Shutdown { node; at } when interesting node ->
              if not (Hashtbl.mem down_since node) then Hashtbl.replace down_since node at
          | Network.Restart { node; at } when interesting node -> close node at
          | Network.Shutdown _ | Network.Restart _ | Network.Sent _ | Network.Delivered _
          | Network.Dropped _ | Network.Failure_notice _ ->
              ())
        events;
      List.iter (fun node -> close node end_time) watched;
      let uptime node =
        let down =
          match Hashtbl.find_opt down_total node with Some d -> d | None -> 0.0
        in
        Float.max 0.0 (1.0 -. (down /. end_time))
      in
      List.fold_left (fun acc node -> acc +. uptime node) 0.0 watched
      /. float_of_int (List.length watched)

let first_stimulus_at t =
  List.fold_left (fun acc s -> Float.min acc s.at) infinity t.stimuli

let trial t ~seed index =
  let trial_seed = trial_seed ~seed index in
  let config = { t.config with Network.seed = trial_seed } in
  let sim =
    Arch_sim.create ~config ~hop_budget:t.hop_budget ~architecture:t.architecture
      ~charts:t.charts ()
  in
  let engine = Arch_sim.engine sim in
  (* Faults are armed before stimuli, so a fault and a stimulus
     scheduled at the same instant execute fault-first. *)
  Faults.apply (Arch_sim.network sim) (sample_plan t ~seed:trial_seed);
  List.iter
    (fun s ->
      Engine.schedule_at engine ~time:s.at (fun _ ->
          Arch_sim.inject sim ~component:s.component s.trigger))
    t.stimuli;
  Engine.run ?until:t.horizon engine;
  let events = Arch_sim.trace sim in
  let end_time = Engine.now engine in
  let completed, latency =
    match t.goal with
    | Delivered { component; payload } -> (
        match
          List.find_opt (fun (p, _) -> String.equal p payload)
            (Arch_sim.deliveries sim ~component)
        with
        | Some (_, at) ->
            let start = first_stimulus_at t in
            (true, Some (if Float.is_finite start then Float.max 0.0 (at -. start) else at))
        | None -> (false, None))
    | Chart_state { component; state } -> (
        match Arch_sim.config_of sim component with
        | Some config -> (Statechart.Exec.active config state, None)
        | None -> (false, None))
  in
  ( {
      Stats.trial = index;
      seed = trial_seed;
      completed;
      latency;
      uptime = uptime_of_trace ~watched:t.watched ~end_time events;
      delivery = Checks.stats events;
      end_time;
    },
    events )

(* ------------------------------------------------------------------ *)
(* Campaigns                                                          *)
(* ------------------------------------------------------------------ *)

(* Trial [i] lands in slot [i] whatever domain computes it, and each
   trial's RNG is a pure function of (campaign seed, i) — so the
   outcome array is identical for any [jobs], and for a reused [pool]. *)
let run ?pool ?(jobs = 1) ?(seed = 0) ~trials t =
  let trials = max 0 trials in
  let slots = Array.make trials None in
  let body () index =
    let outcome, _trace = trial t ~seed index in
    slots.(index) <- Some outcome
  in
  (match pool with
  | Some pool -> Pool.run pool ~tasks:trials body
  | None ->
      if jobs <= 1 then begin
        let body = body () in
        for index = 0 to trials - 1 do
          body index
        done
      end
      else Pool.with_pool ~jobs (fun pool -> Pool.run pool ~tasks:trials body));
  Array.map (function Some o -> o | None -> assert false) slots

let run_fold ?pool ?jobs ?seed ~trials t ~init ~f =
  Array.fold_left f init (run ?pool ?jobs ?seed ~trials t)

let report ?pool ?jobs ?seed ~trials t = Stats.of_outcomes (run ?pool ?jobs ?seed ~trials t)

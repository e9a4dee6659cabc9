type fault =
  | Crash of { node : string; at : float }
  | Restart of { node : string; at : float }
  | Crash_restart of { node : string; at : float; downtime : float }
  | Partition of { groups : string list list; from_ : float; until : float }

type plan = fault list

let cross_group_pairs groups =
  List.concat_map
    (fun group ->
      List.concat_map
        (fun other ->
          if group == other then []
          else List.concat_map (fun a -> List.map (fun b -> (a, b)) other) group)
        groups)
    groups

let apply network plan =
  let engine = Network.engine network in
  List.iter
    (fun fault ->
      match fault with
      | Crash { node; at } ->
          Engine.schedule_at engine ~time:at (fun _ -> Network.shutdown network node)
      | Restart { node; at } ->
          Engine.schedule_at engine ~time:at (fun _ -> Network.restart network node)
      | Crash_restart { node; at; downtime } ->
          Engine.schedule_at engine ~time:at (fun _ -> Network.shutdown network node);
          Engine.schedule_at engine ~time:(at +. downtime) (fun _ ->
              Network.restart network node)
      | Partition { groups; from_; until } ->
          let pairs = cross_group_pairs groups in
          Engine.schedule_at engine ~time:from_ (fun _ ->
              List.iter (fun (src, dst) -> Network.block network ~src ~dst) pairs);
          Engine.schedule_at engine ~time:until (fun _ ->
              List.iter (fun (src, dst) -> Network.unblock network ~src ~dst) pairs))
    plan

let periodic_crashes ~node ~period ~downtime ~count =
  List.init count (fun i ->
      Crash_restart { node; at = period *. float_of_int (i + 1); downtime })

(* Entry point of the sosae serve benchmark; run.py builds and calls it.

   bench.exe --workload NAME --seed N --seconds S --trace 0|1
             --sosae PATH --work DIR [--commit ID]

   With --trace 0 the last stdout line carries the end-to-end metrics;
   with --trace 1 the same window runs untraced, then the in-process
   traced replay, and the last line carries the per-layer metrics. *)

let workloads = [ "evaluate-warm"; "what-if"; "replica-catchup" ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload (evaluate-warm|what-if|replica-catchup) --seed N --seconds S \
     --trace 0|1 --sosae PATH --work DIR [--commit ID]";
  exit 2

let args () =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let a = go [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k a with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  ( workload,
    {
      Servebench.Workloads.exe = get "sosae";
      work = get "work";
      seed = int "seed";
      seconds = float_of_int seconds;
    },
    trace = 1,
    Option.value ~default:"unknown" (List.assoc_opt "commit" a) )

(* Values go out with all their digits; JSON has no inf/nan. *)
let number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n" correct attempted failed
    (String.concat ","
       (List.map (fun (name, v, unit) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (number v) unit) metrics))

let () =
  let workload, env, trace, commit = args () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop _ =
    Servebench.Procfs.kill_all ();
    exit 3
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  at_exit Servebench.Procfs.kill_all;
  ignore (Servebench.Procfs.fresh_dir env.Servebench.Workloads.work);
  let module W = Servebench.Workloads in
  let module L = Servebench.Loadgen in
  let r =
    match workload with
    | "evaluate-warm" -> W.evaluate_warm ~trace env
    | "what-if" -> W.what_if ~trace env
    | _ -> W.replica_catchup ~trace env
  in
  let st = r.W.ops in
  (* a failed operation misses every latency limit; reported as the
     whole window when it lands on a percentile, as is a run that
     completed nothing *)
  let pct q =
    let v = Dsim.Stats.percentile r.W.latency_ms q in
    if Array.length r.W.latency_ms > 0 && Float.is_finite v then v else r.W.window_s *. 1000.0
  in
  let setup_s = W.median r.W.setup_cpu_s in
  (* a window holds under a hundred catch-ups, too few for ten of them
     to lie beyond a p90 *)
  let catchup = workload = "replica-catchup" in
  let e2e =
    List.concat
      [
        [ ("throughput_per_s", r.W.throughput, "1/s"); ("latency_p50_ms", pct 0.5, "ms") ];
        (if catchup then [] else [ ("latency_p90_ms", pct 0.9, "ms") ]);
        [
          ("server_cpu_us_per_op", r.W.cpu_us_per_op, "us");
          ("server_rss_mb", r.W.rss_mb, "MB");
          ("setup_s", setup_s, "s");
        ];
      ]
  in
  Printf.printf "sosae serve benchmark: workload %s, seed %d, %.0f s window, commit %s\n" workload
    env.W.seed env.W.seconds commit;
  Printf.printf "run conditions: host steal %.1f%%, idle %.1f%%; server CPU %.3f s; peak RSS %.1f MB\n"
    (100.0 *. r.W.steal) (100.0 *. r.W.idle) r.W.server_cpu_s r.W.rss_mb;
  let secs l = String.concat " " (List.map (Printf.sprintf "%.4f") l) in
  Printf.printf "set-up CPU: %s s; wall: %s s\n" (secs r.W.setup_cpu_s) (secs r.W.setup_wall_s);
  Printf.printf
    "operations: %d attempted, %d succeeded, %d failed (status %d, 429/408 %d, reset %d, oracle mismatch %d, timeout %d)\n"
    st.L.attempted st.L.succeeded (L.failed st) st.L.bad_status st.L.refused st.L.resets st.L.mismatches
    st.L.timeouts;
  Option.iter (Printf.printf "first problem: %s\n") st.L.first_problem;
  List.iter print_endline r.W.notes;
  Array.iteri
    (fun i name ->
      let s = L.sorted st.L.steps_ms.(i) in
      if Array.length s > 0 then
        Printf.printf "  step %-22s n=%-7d p50 %.3f ms  p90 %.3f ms\n" name (Array.length s)
          (Dsim.Stats.percentile s 0.5) (Dsim.Stats.percentile s 0.9))
    r.W.step_names;
  (* Throughput and the latency percentiles swing with the host's steal:
     on a 2-vCPU KVM guest one ten-seed set saw 0-35% steal and quartile
     spreads of 0.14-0.76 for them, against at most 0.20 for CPU per
     operation. So they are printed, but only the CPU, memory and set-up
     figures go out as gated metrics. *)
  let gated = [ "server_cpu_us_per_op"; "server_rss_mb"; "setup_s" ] in
  let samples = Printf.sprintf "%d operations in %.2f s" (Array.length r.W.latency_ms) r.W.window_s in
  List.iter
    (fun (name, v, unit) ->
      Printf.printf "%-22s %14.4f %-3s %-9s %s\n" name v unit
        (if List.mem name gated then "gated" else "reported")
        (match name with
        | "setup_s" -> Printf.sprintf "median CPU of %d set-ups" W.setups
        | "server_rss_mb" -> "peak resident set"
        | _ -> samples))
    e2e;
  if not trace then
    result_line ~correct:r.W.correct ~attempted:(max 1 st.L.attempted) ~failed:(L.failed st)
      (List.filter (fun (name, _, _) -> List.mem name gated) e2e)
  else begin
    let module R = Servebench.Replay in
    let p, notes =
      match workload with
      | "evaluate-warm" -> (R.warm_replay env ~count:3000, [])
      | "what-if" -> (R.whatif_replay env ~count:40, [])
      | _ ->
          let p, records = R.catchup_replay env ~count:2 in
          (p, [ Printf.sprintf "replayed catch-ups of %d records each" records ])
    in
    let layers = R.metrics p ~e2e_p50_ms:(pct 0.5) ~e2e_ops:st.L.succeeded ~scrape:r.W.scrape in
    let spans = Filename.concat env.W.work (Printf.sprintf "spans-%s-%d.tsv" workload env.W.seed) in
    Servebench.Tracer.write p.R.lane.R.tr spans;
    List.iter print_endline notes;
    Printf.printf "traced replay: %d operations, %d spans written to %s; oracle mismatches %d\n" p.R.ops
      p.R.lane.R.tr.Servebench.Tracer.n spans p.R.mismatches;
    Printf.printf "daemon over the window: %s\n"
      (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s %.0f" k v) r.W.scrape));
    let value name = match List.find_opt (fun (n, _, _) -> n = name) layers with Some (_, v, _) -> v | None -> 0.0 in
    Printf.printf "%-26s %7s %11s %10s   %s\n" "span" "calls" "self us" "words" "should move";
    List.iter
      (fun (name, n) ->
        let s = Servebench.Tracer.to_string name in
        Printf.printf "%-26s %7d %11.3f %10.0f   %s\n" s n (value (s ^ "_us")) (value (s ^ "_words")) (R.moves name))
      (R.calls p);
    Printf.printf "Api.handle: child spans cover %.1f%%, %.1f%% is unattributed self time\n"
      (100.0 *. value "Api.handle_child_share")
      (100.0 *. (1.0 -. value "Api.handle_child_share"));
    List.iter (fun (name, v, unit) -> Printf.printf "%-34s %14.4f %s\n" name v unit) layers;
    result_line
      ~correct:(r.W.correct && p.R.mismatches = 0)
      ~attempted:(max 1 st.L.attempted) ~failed:(L.failed st) layers
  end

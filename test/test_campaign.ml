(* Determinism and equivalence properties of Dsim campaigns, mirroring
   the parallel≡sequential style of test_graph_props.ml: the campaign
   seed fully determines every trial, so traces are bit-identical
   across runs and outcome arrays are identical across job counts. *)

let campaign ?(loss = 0.0) which =
  match which with
  | `Crash -> Casestudies.Campaigns.crash_availability ~loss ()
  | `Pims -> Casestudies.Campaigns.pims_price_feed ~loss ()

let case_gen = QCheck2.Gen.oneofl [ `Crash; `Pims ]

let outcome_eq (a : Dsim.Stats.outcome) (b : Dsim.Stats.outcome) = a = b

(* ----------------------- qcheck properties ------------------------ *)

let prop_trace_deterministic =
  QCheck2.Test.make ~name:"same seed => bit-identical trace and outcome" ~count:40
    QCheck2.Gen.(triple case_gen (int_bound 10_000) (int_bound 7))
    (fun (which, seed, index) ->
      let c = campaign ~loss:0.1 which in
      let o1, t1 = Dsim.Campaign.trial c ~seed index in
      let o2, t2 = Dsim.Campaign.trial c ~seed index in
      outcome_eq o1 o2 && t1 = t2)

let prop_jobs_equivalence =
  QCheck2.Test.make ~name:"run ~jobs:1 == run ~jobs:4, outcome for outcome" ~count:15
    QCheck2.Gen.(triple case_gen (int_bound 10_000) (int_range 1 12))
    (fun (which, seed, trials) ->
      let c = campaign ~loss:0.05 which in
      let sequential = Dsim.Campaign.run ~jobs:1 ~seed ~trials c in
      let parallel = Dsim.Campaign.run ~jobs:4 ~seed ~trials c in
      Array.length sequential = Array.length parallel
      && Array.for_all2 outcome_eq sequential parallel
      && Dsim.Stats.of_outcomes sequential = Dsim.Stats.of_outcomes parallel)

let prop_pool_reuse_equivalence =
  QCheck2.Test.make ~name:"a reused pool gives the same outcomes as fresh runs" ~count:10
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 8))
    (fun (seed, trials) ->
      let c = campaign `Crash in
      Dsim.Pool.with_pool ~jobs:3 (fun pool ->
          let first = Dsim.Campaign.run ~pool ~seed ~trials c in
          let second = Dsim.Campaign.run ~pool ~seed ~trials c in
          let fresh = Dsim.Campaign.run ~jobs:1 ~seed ~trials c in
          first = second && first = fresh))

let prop_report_sane =
  QCheck2.Test.make ~name:"report invariants: counts, rate, CI bracket" ~count:25
    QCheck2.Gen.(triple case_gen (int_bound 10_000) (int_range 1 20))
    (fun (which, seed, trials) ->
      let r = Dsim.Campaign.report ~seed ~trials (campaign ~loss:0.2 which) in
      r.Dsim.Stats.trials = trials
      && r.Dsim.Stats.completions + r.Dsim.Stats.failures = trials
      (* the bracket holds mathematically; at rates of exactly 0 or 1
         the matching bound equals the rate only up to rounding *)
      && r.Dsim.Stats.completion_ci.Dsim.Stats.lo -. 1e-9 <= r.Dsim.Stats.completion_rate
      && r.Dsim.Stats.completion_rate
         <= r.Dsim.Stats.completion_ci.Dsim.Stats.hi +. 1e-9
      && r.Dsim.Stats.mean_uptime >= 0.0
      && r.Dsim.Stats.mean_uptime <= 1.0)

let prop_trial_seeds_distinct =
  QCheck2.Test.make ~name:"splittable trial seeds do not collide in small sweeps"
    ~count:50
    QCheck2.Gen.(int_bound 100_000)
    (fun seed ->
      let seeds = List.init 64 (Dsim.Campaign.trial_seed ~seed) in
      List.length (List.sort_uniq compare seeds) = 64)

(* --------------------------- unit tests --------------------------- *)

let test_wilson () =
  let ci = Dsim.Stats.wilson ~successes:0 ~trials:50 () in
  Alcotest.(check (float 1e-9)) "0 successes pins lo at 0" 0.0 ci.Dsim.Stats.lo;
  Alcotest.(check bool) "0 successes still admits some rate" true
    (ci.Dsim.Stats.hi > 0.0 && ci.Dsim.Stats.hi < 0.2);
  let ci = Dsim.Stats.wilson ~successes:50 ~trials:50 () in
  Alcotest.(check (float 1e-9)) "all successes pin hi at 1" 1.0 ci.Dsim.Stats.hi;
  Alcotest.(check bool) "all successes still admit failures" true
    (ci.Dsim.Stats.lo < 1.0 && ci.Dsim.Stats.lo > 0.8);
  (* textbook value: 8/10 with z=1.96 gives roughly [0.49, 0.94] *)
  let ci = Dsim.Stats.wilson ~successes:8 ~trials:10 () in
  Alcotest.(check (float 0.01)) "8/10 lo" 0.49 ci.Dsim.Stats.lo;
  Alcotest.(check (float 0.01)) "8/10 hi" 0.94 ci.Dsim.Stats.hi;
  let vacuous = Dsim.Stats.wilson ~successes:0 ~trials:0 () in
  Alcotest.(check (float 0.0)) "no trials: vacuous lo" 0.0 vacuous.Dsim.Stats.lo;
  Alcotest.(check (float 0.0)) "no trials: vacuous hi" 1.0 vacuous.Dsim.Stats.hi

let test_percentiles () =
  let a = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0 |] in
  Alcotest.(check (float 0.0)) "p50 of 1..10" 5.0 (Dsim.Stats.percentile a 0.50);
  Alcotest.(check (float 0.0)) "p90 of 1..10" 9.0 (Dsim.Stats.percentile a 0.90);
  Alcotest.(check (float 0.0)) "p99 of 1..10" 10.0 (Dsim.Stats.percentile a 0.99);
  Alcotest.(check (float 0.0)) "empty is 0" 0.0 (Dsim.Stats.percentile [||] 0.5)

let test_report_of_outcomes () =
  let outcome ~trial ~completed ~latency ~uptime =
    {
      Dsim.Stats.trial;
      seed = trial;
      completed;
      latency;
      uptime;
      delivery =
        {
          Dsim.Checks.sent = 4;
          delivered = (if completed then 4 else 3);
          dropped = (if completed then 0 else 1);
          delivery_ratio = 0.0;
          mean_latency = 0.0;
          max_latency = 0.0;
        };
      end_time = 10.0;
    }
  in
  let outcomes =
    [|
      outcome ~trial:0 ~completed:true ~latency:(Some 2.0) ~uptime:1.0;
      outcome ~trial:1 ~completed:false ~latency:None ~uptime:0.5;
      outcome ~trial:2 ~completed:true ~latency:(Some 4.0) ~uptime:0.9;
    |]
  in
  let r = Dsim.Stats.of_outcomes outcomes in
  Alcotest.(check int) "trials" 3 r.Dsim.Stats.trials;
  Alcotest.(check int) "completions" 2 r.Dsim.Stats.completions;
  Alcotest.(check int) "failures" 1 r.Dsim.Stats.failures;
  Alcotest.(check (float 1e-9)) "mean latency over completed" 3.0
    r.Dsim.Stats.latency_mean;
  Alcotest.(check (float 1e-9)) "median latency" 2.0 r.Dsim.Stats.latency_p50;
  Alcotest.(check (float 1e-9)) "max latency" 4.0 r.Dsim.Stats.latency_max;
  Alcotest.(check (float 1e-9)) "mean uptime" 0.8 r.Dsim.Stats.mean_uptime;
  Alcotest.(check int) "sent summed" 12 r.Dsim.Stats.sent;
  Alcotest.(check int) "delivered summed" 11 r.Dsim.Stats.delivered

let test_fault_plan_sampling () =
  let c = campaign `Crash in
  let seed = Dsim.Campaign.trial_seed ~seed:3 0 in
  match Dsim.Campaign.sample_plan c ~seed with
  | [ Dsim.Faults.Crash_restart { node; at; downtime } ] ->
      Alcotest.(check string) "crash target" "police-cc" node;
      Alcotest.(check bool) "at within window" true (at >= 0.0 && at <= 2.0);
      Alcotest.(check bool) "downtime within window" true
        (downtime >= 0.0 && downtime <= 4.0);
      (* degenerate ranges sample their single point *)
      let fixed_campaign =
        {
          c with
          Dsim.Campaign.faults =
            [
              Dsim.Campaign.Crash_window
                {
                  node = "police-cc";
                  at = Dsim.Campaign.fixed 1.5;
                  downtime = Dsim.Campaign.fixed 2.5;
                };
            ];
        }
      in
      (match Dsim.Campaign.sample_plan fixed_campaign ~seed with
      | [ Dsim.Faults.Crash_restart { at; downtime; _ } ] ->
          Alcotest.(check (float 0.0)) "fixed at" 1.5 at;
          Alcotest.(check (float 0.0)) "fixed downtime" 2.5 downtime
      | _ -> Alcotest.fail "expected one crash_restart")
  | _ -> Alcotest.fail "expected one sampled crash_restart"

let test_campaign_uptime_and_horizon () =
  (* no faults: uptime 1, end_time = horizon thanks to the bounded-run
     clock semantics *)
  let c = campaign `Crash in
  let no_faults = { c with Dsim.Campaign.faults = []; watched = [ "police-cc" ] } in
  let o, _ = Dsim.Campaign.trial no_faults ~seed:5 0 in
  Alcotest.(check (float 1e-9)) "uptime without faults" 1.0 o.Dsim.Stats.uptime;
  Alcotest.(check (float 1e-9)) "end_time is the horizon" 12.0 o.Dsim.Stats.end_time;
  (* a fixed 3-unit outage inside a 12-unit horizon is 25% downtime *)
  let fixed =
    {
      c with
      Dsim.Campaign.faults =
        [
          Dsim.Campaign.Always
            (Dsim.Faults.Crash_restart { node = "police-cc"; at = 2.0; downtime = 3.0 });
        ];
      watched = [ "police-cc" ];
    }
  in
  let o, _ = Dsim.Campaign.trial fixed ~seed:5 0 in
  Alcotest.(check (float 1e-9)) "uptime with a fixed outage" 0.75 o.Dsim.Stats.uptime

let test_goal_latency () =
  (* lossless, jitter-free, no faults: the CRASH request takes two
     1-unit hops after the t=1 stimulus *)
  let c = campaign `Crash in
  let quiet =
    {
      c with
      Dsim.Campaign.faults = [];
      config = { c.Dsim.Campaign.config with Dsim.Network.jitter = 0.0 };
    }
  in
  let o, _ = Dsim.Campaign.trial quiet ~seed:0 0 in
  Alcotest.(check bool) "completes" true o.Dsim.Stats.completed;
  match o.Dsim.Stats.latency with
  | Some l -> Alcotest.(check (float 1e-6)) "two hops from stimulus" 2.0 l
  | None -> Alcotest.fail "expected a completion latency"

let test_chart_state_goal () =
  let c = campaign `Crash in
  let quiet =
    {
      c with
      Dsim.Campaign.faults = [];
      config = { c.Dsim.Campaign.config with Dsim.Network.jitter = 0.0 };
      goal =
        Dsim.Campaign.Chart_state { component = "police-cc"; state = "handling" };
    }
  in
  let o, _ = Dsim.Campaign.trial quiet ~seed:0 0 in
  Alcotest.(check bool) "police chart reached handling" true o.Dsim.Stats.completed;
  Alcotest.(check bool) "chart-state goals carry no latency" true
    (o.Dsim.Stats.latency = None)

let test_pool_runs_all_tasks () =
  Dsim.Pool.with_pool ~jobs:4 (fun pool ->
      let n = 503 in
      let hits = Array.make n 0 in
      Dsim.Pool.run pool ~tasks:n (fun () -> fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (Int.equal 1) hits);
      (* reuse the same pool for a second, smaller batch *)
      let seen = Array.make 7 false in
      Dsim.Pool.run pool ~tasks:7 (fun () -> fun i -> seen.(i) <- true);
      Alcotest.(check bool) "second batch covered" true (Array.for_all Fun.id seen))

let test_pool_propagates_exceptions () =
  Dsim.Pool.with_pool ~jobs:2 (fun pool ->
      let raised =
        try
          Dsim.Pool.run pool ~tasks:10 (fun () ->
              fun i -> if i = 5 then failwith "boom");
          false
        with Failure m -> String.equal m "boom"
      in
      Alcotest.(check bool) "exception surfaces in run" true raised;
      (* the pool survives a failed batch *)
      let ok = ref 0 in
      Dsim.Pool.run pool ~tasks:3 (fun () -> fun _ -> incr ok);
      Alcotest.(check bool) "pool still usable" true (!ok >= 1))

(* A pool past the runtime's domain limit (128 domains in OCaml 5.1)
   fails to spawn; the helpers it did spawn must be joined, or every
   later pool in the process fails to spawn too. *)
let test_pool_failed_spawn_leaks_nothing () =
  (match Dsim.Pool.with_pool ~jobs:1000 ignore with
  | () -> ()
  | exception Failure _ -> ());
  Dsim.Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check int) "a two-domain pool" 2 (Dsim.Pool.size pool);
      let hits = Array.make 64 0 in
      Dsim.Pool.run pool ~tasks:64 (fun () -> fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (Int.equal 1) hits))

let test_run_fold_order () =
  let c = campaign `Crash in
  let indices =
    Dsim.Campaign.run_fold ~jobs:4 ~seed:1 ~trials:9 c ~init:[] ~f:(fun acc o ->
        o.Dsim.Stats.trial :: acc)
  in
  Alcotest.(check (list int)) "fold visits outcomes in trial order"
    [ 8; 7; 6; 5; 4; 3; 2; 1; 0 ] indices

let suite =
  [
    QCheck_alcotest.to_alcotest prop_trace_deterministic;
    QCheck_alcotest.to_alcotest prop_jobs_equivalence;
    QCheck_alcotest.to_alcotest prop_pool_reuse_equivalence;
    QCheck_alcotest.to_alcotest prop_report_sane;
    QCheck_alcotest.to_alcotest prop_trial_seeds_distinct;
    Alcotest.test_case "wilson confidence interval" `Quick test_wilson;
    Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
    Alcotest.test_case "report aggregation" `Quick test_report_of_outcomes;
    Alcotest.test_case "fault-plan sampling windows" `Quick test_fault_plan_sampling;
    Alcotest.test_case "uptime accounting and horizon clock" `Quick
      test_campaign_uptime_and_horizon;
    Alcotest.test_case "goal latency on the quiet network" `Quick test_goal_latency;
    Alcotest.test_case "chart-state goal" `Quick test_chart_state_goal;
    Alcotest.test_case "pool covers every task once" `Quick test_pool_runs_all_tasks;
    Alcotest.test_case "pool propagates worker exceptions" `Quick
      test_pool_propagates_exceptions;
    Alcotest.test_case "run_fold aggregates in trial order" `Quick test_run_fold_order;
    Alcotest.test_case "pool: a failed spawn leaks no domain" `Quick
      test_pool_failed_spawn_leaks_nothing;
  ]

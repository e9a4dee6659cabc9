(* End-to-end tests driving the actual sosae binary (made available by
   the dune (deps ...) clause as ../bin/sosae.exe). *)

let sosae = "../bin/sosae.exe"

let workdir = lazy (Filename.temp_file "sosae-cli" "" |> fun f ->
  Sys.remove f;
  Sys.mkdir f 0o755;
  f)

let artifact name = Filename.concat (Lazy.force workdir) name

let run ?(expect = 0) args =
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" sosae (String.concat " " args)
      (Filename.quote (artifact "last-output.txt"))
  in
  let code = Sys.command cmd in
  if code <> expect then begin
    let ic = open_in (artifact "last-output.txt") in
    let n = in_channel_length ic in
    let out = really_input_string ic n in
    close_in ic;
    Alcotest.failf "`sosae %s` exited %d (expected %d):\n%s" (String.concat " " args) code
      expect out
  end

let last_output () =
  let ic = open_in (artifact "last-output.txt") in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let std_args =
  lazy
    [
      "-s";
      artifact "pims-scenarios.xml";
      "-a";
      artifact "pims-architecture.xml";
      "-m";
      artifact "pims-mapping.xml";
    ]

let test_save_demo_and_validate () =
  run [ "save-demo"; Lazy.force workdir ];
  Alcotest.(check bool) "scenarios written" true
    (Sys.file_exists (artifact "pims-scenarios.xml"));
  Alcotest.(check bool) "behavior written" true
    (Sys.file_exists (artifact "pims-behavior.xml"));
  run ("validate" :: Lazy.force std_args);
  Testutil.check_contains "validation output" (last_output ()) "all artifacts valid"

let test_evaluate () =
  run ("evaluate" :: Lazy.force std_args);
  Testutil.check_contains "overall verdict" (last_output ()) "Overall: CONSISTENT";
  run ("evaluate" :: Lazy.force std_args @ [ "--scenario"; "get-share-prices" ]);
  Testutil.check_contains "single scenario" (last_output ()) "get-share-prices";
  run ~expect:2 ("evaluate" :: Lazy.force std_args @ [ "--scenario"; "nope" ])

let test_evaluate_broken_architecture () =
  (* write the Fig. 4 broken architecture and expect exit 1 *)
  let oc = open_out_bin (artifact "broken.xml") in
  output_string oc (Adl.Xml_io.to_string Casestudies.Pims.broken_architecture);
  close_out oc;
  run ~expect:1
    [
      "evaluate";
      "-s";
      artifact "pims-scenarios.xml";
      "-a";
      artifact "broken.xml";
      "-m";
      artifact "pims-mapping.xml";
      "--scenario";
      "get-share-prices";
    ];
  Testutil.check_contains "failure detail" (last_output ()) "no communication path"

let test_behavioral_flag () =
  run
    ("evaluate" :: Lazy.force std_args
    @ [ "-b"; artifact "pims-behavior.xml"; "--scenario"; "get-share-prices" ]);
  Testutil.check_contains "behavioral section" (last_output ()) "behavioral walkthrough"

let test_reporting_commands () =
  run ("table" :: Lazy.force std_args);
  Testutil.check_contains "table mark" (last_output ()) "X";
  run ("stats" :: Lazy.force std_args);
  Testutil.check_contains "reuse factor" (last_output ()) "reuse factor";
  run ("rank" :: Lazy.force std_args @ [ "--top"; "3" ]);
  run ("relations" :: Lazy.force std_args);
  run ("implied" :: Lazy.force std_args);
  Testutil.check_contains "implied count" (last_output ()) "implied event-type successions";
  run ("coverage" :: Lazy.force std_args);
  Testutil.check_contains "coverage" (last_output ()) "Component coverage";
  run ("report" :: Lazy.force std_args @ [ "-o"; artifact "report.md" ]);
  Alcotest.(check bool) "report written" true (Sys.file_exists (artifact "report.md"))

let test_dot_and_owl () =
  run [ "dot"; artifact "pims-architecture.xml"; "--highlight"; "loader" ];
  Testutil.check_contains "dot output" (last_output ()) "digraph";
  run ("export-owl" :: Lazy.force std_args @ [ "-o"; artifact "model.ttl" ]);
  Alcotest.(check bool) "turtle written" true (Sys.file_exists (artifact "model.ttl"))

let test_evaluate_json () =
  run ("evaluate" :: Lazy.force std_args @ [ "--json" ]);
  let out = last_output () in
  Testutil.check_contains "overall flag" out "\"consistent\":true";
  Testutil.check_contains "scenario array" out "\"scenarios\":[";
  run ~expect:1
    [
      "evaluate";
      "-s";
      artifact "pims-scenarios.xml";
      "-a";
      artifact "broken.xml";
      "-m";
      artifact "pims-mapping.xml";
      "--json";
      "--scenario";
      "get-share-prices";
    ];
  let out = last_output () in
  Testutil.check_contains "verdict field" out "\"verdict\":\"inconsistent\"";
  Testutil.check_contains "inconsistency kind" out "\"kind\":\"missing-link\""

let test_session_subcommand () =
  (* the Fig. 4 experiment as an incremental session: excise the
     Loader / Data Access link and re-evaluate *)
  run ~expect:1
    ("session" :: Lazy.force std_args @ [ "--excise"; "loader,data-access" ]);
  let out = last_output () in
  Testutil.check_contains "initial round" out "-- initial architecture --";
  Testutil.check_contains "edit round" out "after excising loader -- data-access";
  Testutil.check_contains "prices fail" out "get-share-prices: INCONSISTENT";
  Testutil.check_contains "portfolio kept" out "create-portfolio: CONSISTENT";
  Testutil.check_contains "cache served" out "served 19 from cache";
  Testutil.check_contains "stats line" out "evaluations:";
  (* evolving back to the intact architecture heals the verdict *)
  run
    ("session" :: Lazy.force std_args
    @ [
        "--excise"; "loader,data-access"; "--then"; artifact "pims-architecture.xml";
      ]);
  Testutil.check_contains "healed" (last_output ()) "re-evaluated 3 scenario(s)";
  run ~expect:2
    ("session" :: Lazy.force std_args @ [ "--excise"; "loader,nope" ]);
  Testutil.check_contains "unknown pair" (last_output ()) "no link between";
  run ~expect:1
    ("session" :: Lazy.force std_args @ [ "--json"; "--excise"; "loader,data-access" ]);
  let out = last_output () in
  Testutil.check_contains "json round" out "\"round\":\"initial architecture\"";
  Testutil.check_contains "json served" out "\"served_from_cache\":19"

let test_prose () =
  let oc = open_out_bin (artifact "scenario.txt") in
  output_string oc "Scenario: From the CLI\n(1) Something happens.\n";
  close_out oc;
  run [ "prose"; artifact "scenario.txt" ];
  Testutil.check_contains "scenario xml" (last_output ()) "<scenario id=\"from-the-cli\"";
  run [ "demo"; "pims" ];
  Testutil.check_contains "demo" (last_output ()) "after excising"

(* `simulate` must be bit-for-bit reproducible: same seed, same stdout,
   whatever the jobs fan-out. Timing goes to stderr precisely so this
   holds, so capture stdout alone here (unlike [run]). *)
let test_simulate_reproducible () =
  let capture name args =
    let path = artifact name in
    let cmd =
      Printf.sprintf "%s %s > %s 2> /dev/null" sosae (String.concat " " args)
        (Filename.quote path)
    in
    let code = Sys.command cmd in
    if code <> 0 then
      Alcotest.failf "`sosae %s` exited %d" (String.concat " " args) code;
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let base = [ "simulate"; "crash"; "--trials"; "80"; "--seed"; "11"; "--json" ] in
  let first = capture "sim1.json" base in
  Testutil.check_contains "report present" first "\"completion_rate\"";
  Testutil.check_contains "case echoed" first "\"case\":\"crash\"";
  Alcotest.(check string) "same seed, same bytes" first (capture "sim2.json" base);
  Alcotest.(check string) "--jobs 4 = --jobs 1" first
    (capture "sim4.json" (base @ [ "--jobs"; "4" ]));
  let other = capture "sim-other.json" [ "simulate"; "pims"; "--trials"; "20"; "--json" ] in
  Testutil.check_contains "pims case runs too" other "\"case\":\"pims\"";
  (* text mode mentions the confidence interval *)
  run [ "simulate"; "crash"; "--trials"; "20" ];
  Testutil.check_contains "text report" (last_output ()) "95% CI"

(* A campaign runs on one domain unless `--jobs` asks for more. *)
let test_simulate_default_jobs () =
  run [ "simulate"; "crash"; "--trials"; "20" ];
  Testutil.check_contains "default" (last_output ()) "on 1 jobs)";
  run [ "simulate"; "crash"; "--trials"; "20"; "--jobs"; "2" ];
  Testutil.check_contains "explicit --jobs" (last_output ()) "on 2 jobs)"

let suite =
  [
    Alcotest.test_case "save-demo + validate" `Quick test_save_demo_and_validate;
    Alcotest.test_case "evaluate (whole set, one scenario, unknown)" `Quick test_evaluate;
    Alcotest.test_case "evaluate the broken architecture" `Quick
      test_evaluate_broken_architecture;
    Alcotest.test_case "behavioral flag" `Quick test_behavioral_flag;
    Alcotest.test_case "table/stats/rank/relations/implied/coverage/report" `Quick
      test_reporting_commands;
    Alcotest.test_case "dot and export-owl" `Quick test_dot_and_owl;
    Alcotest.test_case "evaluate --json" `Quick test_evaluate_json;
    Alcotest.test_case "session (excise + evolve + json)" `Quick test_session_subcommand;
    Alcotest.test_case "prose and demo" `Quick test_prose;
    Alcotest.test_case "simulate is bit-for-bit reproducible" `Quick
      test_simulate_reproducible;
    Alcotest.test_case "simulate defaults to one job" `Quick test_simulate_default_jobs;
  ]

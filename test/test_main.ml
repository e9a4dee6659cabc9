let () =
  Alcotest.run "sosae"
    [
      ("xmlight", Test_xmlight.suite);
      ("ontology", Test_ontology.suite);
      ("scenarioml", Test_scenarioml.suite);
      ("scenario-tools", Test_scenario_tools.suite);
      ("instances", Test_instances.suite);
      ("adl", Test_adl.suite);
      ("statechart", Test_statechart.suite);
      ("styles", Test_styles.suite);
      ("constraints", Test_constraints.suite);
      ("mapping", Test_mapping.suite);
      ("mapping-infer", Test_infer.suite);
      ("walkthrough", Test_walkthrough.suite);
      ("dynamic", Test_dynamic.suite);
      ("dsim", Test_dsim.suite);
      ("campaign", Test_campaign.suite);
      ("golden-traces", Test_golden.suite);
      ("semweb", Test_semweb.suite);
      ("acme", Test_acme.suite);
      ("casestudies", Test_casestudies.suite);
      ("integration", Test_integration.suite);
      ("session", Test_session.suite);
      ("graph-props", Test_graph_props.suite);
      ("properties", Test_props.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("evolution", Test_evolution.suite);
      ("store", Test_store.suite);
      ("simtest", Test_simtest.suite);
      ("server", Test_server.suite);
      ("client", Test_client.suite);
      ("cli", Test_cli.suite);
    ]

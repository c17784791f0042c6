(* Runs last: a test that swapped the sink must have put back the one
   SIDER_TRACE names, or every suite after it ran untraced in the
   traced test leg. *)
let[@sider.allow "determinism"] env_sink () = Sys.getenv_opt "SIDER_TRACE"

let test_env_sink_installed () =
  match env_sink () with
  | Some ("stderr" | "null") ->
    Test_helpers.check_true "SIDER_TRACE's sink still installed"
      (Sider_obs.Obs.sink_installed ())
  | Some _ | None -> ()

let () =
  (* Let `make verify` replay the whole suite with a live sink
     (SIDER_TRACE=stderr / null) — determinism tests must still pass. *)
  Sider_obs.Obs.install_from_env ();
  Alcotest.run "sider"
    [
      ( "helpers",
        [ Test_helpers.case "allocated_words counts both heaps exactly"
            Test_helpers.test_allocated_words ] );
      ("vec", Test_vec.suite);
      ("mat", Test_mat.suite);
      ("decomp", Test_decomp.suite);
      ("rand", Test_rand.suite);
      ("stats", Test_stats.suite);
      ("data", Test_data.suite);
      ("maxent", Test_maxent.suite);
      ("projection", Test_projection.suite);
      ("core", Test_core.suite);
      ("viz", Test_viz.suite);
      ("integration", Test_integration.suite);
      ("related", Test_related.suite);
      ("persist", Test_persist.suite);
      ("robust", Test_robust.suite);
      ("properties", Test_props.suite);
      ("obs", Test_obs.suite);
      ("serve", Test_serve.suite);
      ("service", Test_service.suite);
      ("golden", Test_golden.suite);
      ( "sink",
        [ Test_helpers.case "SIDER_TRACE's sink outlives every suite"
            test_env_sink_installed ] );
    ]

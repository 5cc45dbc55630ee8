let () =
  Alcotest.run "hpfc"
    [ ("infra", Test_infra.suite);
      ("exec", Test_exec.suite);
      ("mapping", Test_mapping.suite);
      ("ivset", Test_mapping.ivset_suite);
      ("parser", Test_parser.suite);
      ("propagate", Test_propagate.suite);
      ("remap", Test_remap.suite);
      ("opt", Test_opt.suite);
      ("hoist-driver", Test_hoist_driver.suite);
      ("runtime", Test_runtime.suite);
      ("redist-props", Test_redist_props.suite);
      ("comm", Test_comm.suite);
      ("par", Test_par.suite);
      ("async", Test_async.suite);
      ("collective", Test_collective.suite);
      ("serve", Test_serve.suite);
      ("pack", Test_pack.suite);
      ("codegen", Test_codegen.suite);
      ("more", Test_more.suite);
      ("interp", Test_interp.suite);
      ("distributed", Test_distributed.suite);
      ("props", Test_props.suite);
      ("differential", Test_differential.suite);
      ("fuzz", Test_fuzz.suite) ]

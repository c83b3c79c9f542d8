(* Entry point aggregating all test suites. *)
let () =
  Alcotest.run "parsimony"
    (Suite_ir.suites @ Suite_machine.suites @ Suite_vectorizer.suites
    @ Suite_frontend.suites @ Suite_autovec.suites @ Suite_simdlib.suites @ Suite_ispc.suites @ Suite_backend.suites @ Suite_random.suites @ Suite_smt.suites @ Suite_shapes.suites
    @ Suite_simplify.suites @ Suite_parallel.suites @ Suite_obs.suites @ Suite_dataflow.suites @ Suite_metrics.suites @ Suite_fuzz.suites @ Suite_vm.suites
    @ Suite_verify.suites @ Suite_serve.suites @ Suite_slp.suites @ Suite_gang.suites)

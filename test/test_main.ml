let () =
  (* crash-test child mode: when the durability suite re-executes this
     binary to SIGKILL it mid-estimation, never start Alcotest *)
  Test_durability.run_child_if_requested ();
  (* pin refresh mode: print the kernel suite's golden bit patterns *)
  Test_kernel.print_pins_if_requested ();
  Alcotest.run "hlpower"
    [
      ("util", Test_util.suite);
      ("telemetry", Test_telemetry.suite);
      ("logic", Test_logic.suite);
      ("bdd", Test_bdd.suite);
      ("sim", Test_sim.suite);
      ("bitsim", Test_bitsim.suite);
      ("kernel", Test_kernel.suite);
      ("fsm", Test_fsm.suite);
      ("rtl", Test_rtl.suite);
      ("power", Test_power.suite);
      ("bus", Test_bus.suite);
      ("pm", Test_pm.suite);
      ("optlogic", Test_optlogic.suite);
      ("isa", Test_isa.suite);
      ("extensions", Test_extensions.suite);
      ("properties", Test_properties.suite);
      ("robustness", Test_robustness.suite);
      ("durability", Test_durability.suite);
      ("serve", Test_serve.suite);
      ("resilience", Test_resilience.suite);
      ("observability", Test_observability.suite);
      ("flight", Test_flight.suite);
      ("lifecycle", Test_lifecycle.suite);
      ("cli", Test_cli.suite);
    ]

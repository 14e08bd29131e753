let () =
  Alcotest.run "ccomp"
    [
      ("prng", Test_prng.suite);
      ("bitio", Test_bitio.suite);
      ("entropy", Test_entropy.suite);
      ("huffman", Test_huffman.suite);
      ("arith", Test_arith.suite);
      ("mips", Test_mips.suite);
      ("mips-asm", Test_mips_asm.suite);
      ("x86", Test_x86.suite);
      ("dense16", Test_dense16.suite);
      ("progen", Test_progen.suite);
      ("stream-split", Test_stream_split.suite);
      ("markov", Test_markov.suite);
      ("samc", Test_samc.suite);
      ("nibble-decoder", Test_nibble.suite);
      ("sadc-isa", Test_sadc_isa.suite);
      ("sadc", Test_sadc.suite);
      ("baselines", Test_baselines.suite);
      ("ppm", Test_ppm.suite);
      ("memsys", Test_memsys.suite);
      ("image", Test_image.suite);
      ("fault", Test_fault.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("openmetrics", Test_openmetrics.suite);
      ("window", Test_window.suite);
      ("top", Test_top.suite);
      ("events", Test_events.suite);
      ("runtime", Test_runtime.suite);
      ("serve", Test_serve.suite);
      ("slow", Test_slow.suite);
      ("loadgen", Test_loadgen.suite);
      ("verify", Test_verify.suite);
      ("integration", Test_integration.suite);
    ]

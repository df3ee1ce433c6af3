(* Quickstart: compile a small DCIM macro from a spec, check it computes
   real dot products, and look at its post-layout numbers.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. The execution context: the synthetic 40nm cell library plus the
     shared subcircuit-library memo (the PPA look-up tables the searcher
     consults) and the domain-pool width. [Ctx.default] reuses one
     process-wide world, so repeated compiles share characterization. *)
  let ctx = Ctx.default () in
  let lib = Ctx.lib ctx in
  (* 2. A specification: a 32x32 array, one stored weight copy, INT8
     inputs and weights, 700 MHz MAC clock at 0.9 V, balanced PPA. *)
  let spec =
    {
      Spec.rows = 32;
      cols = 32;
      mcr = 1;
      input_prec = Precision.int8;
      weight_prec = Precision.int8;
      mac_freq_hz = 700e6;
      weight_update_freq_hz = 700e6;
      vdd = 0.9;
      preference = Spec.Balanced;
    }
  in
  (* 3. Compile: search -> placed + routed macro -> verified netlist. *)
  let a = Pipeline.artifact_exn (Pipeline.run ctx spec) in
  print_string (Report.to_string lib a);
  (* 4. Use the macro: load a weight matrix, run a MAC, compare with the
     plain dot product computed in software. *)
  let m = a.Pipeline.macro in
  let sim = Sim_sliced.create ~n_lanes:1 m.Macro_rtl.design in
  let weights =
    Array.init m.Macro_rtl.words (fun g ->
        Array.init spec.Spec.rows (fun r -> ((g + 3) * (r + 7) mod 23) - 11))
  in
  Testbench.load_weights m sim ~copy:0 weights;
  let inputs = Array.init spec.Spec.rows (fun r -> (r * 5 mod 19) - 9) in
  let results = Testbench.run_mac m sim ~inputs in
  Array.iteri
    (fun g got ->
      let expected = Golden.dot ~weights:weights.(g) ~inputs in
      Printf.printf "word %d: macro=%d golden=%d %s\n" g got expected
        (if got = expected then "OK" else "MISMATCH");
      assert (got = expected))
    results;
  print_endline "quickstart: the generated hardware computes. done."

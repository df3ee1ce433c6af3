(* SoC-integration flow: compile a macro with the embedded sequencer
   (two-wire start/done interface), exercise runtime bit-width
   flexibility (INT8 / INT4 / INT2 on the same silicon), and export the
   hand-off artifacts an SoC team consumes (structural Verilog, placement
   DEF, Liberty and LEF views, the characterized subcircuit-library CSV).

   Run with: dune exec examples/integrate_soc.exe *)

let () =
  let ctx = Ctx.default () in
  let lib = Ctx.lib ctx in
  let spec =
    {
      Spec.rows = 32;
      cols = 32;
      mcr = 2;
      input_prec = Precision.int8;
      weight_prec = Precision.int8;
      mac_freq_hz = 600e6;
      weight_update_freq_hz = 600e6;
      vdd = 0.9;
      preference = Spec.Balanced;
    }
  in
  (* the searcher decides the architecture; then rebuild the winning
     configuration with the sequencer FSM embedded *)
  let a = Pipeline.artifact_exn (Pipeline.run ctx spec) in
  let cfg =
    { a.Pipeline.search.Searcher.final.Design_point.cfg with
      Macro_rtl.with_controller = true }
  in
  let m = Macro_rtl.build lib cfg in
  Printf.printf "macro with sequencer: %d instances, start/done interface\n"
    (Ir.n_insts m.Macro_rtl.design);

  (* drive it the way an SoC would: start pulse, wait for done *)
  let sim = Sim_sliced.create ~n_lanes:1 m.Macro_rtl.design in
  Sim_sliced.set_bus sim "copy_sel" 0;
  let weights =
    Array.init m.Macro_rtl.words (fun g ->
        Array.init spec.Spec.rows (fun r -> ((g * 13) + (r * 7) mod 31) - 15))
  in
  Testbench.load_weights m sim ~copy:0 weights;
  let inputs = Array.init spec.Spec.rows (fun r -> (r mod 17) - 8) in
  let results = Testbench.run_mac_auto m sim ~inputs in
  Array.iteri
    (fun g got ->
      assert (got = Golden.dot ~weights:weights.(g) ~inputs))
    results;
  Printf.printf "sequencer-driven MAC verified (%d words)\n"
    (Array.length results);

  (* runtime bit-width flexibility on a plain (externally controlled)
     build of the same configuration *)
  let m2 =
    Macro_rtl.build lib { cfg with Macro_rtl.with_controller = false }
  in
  let sim2 = Sim_sliced.create ~n_lanes:1 m2.Macro_rtl.design in
  Sim_sliced.set_bus sim2 "copy_sel" 0;
  Testbench.load_weights m2 sim2 ~copy:0 weights;
  List.iter
    (fun bits ->
      let narrow =
        Array.init spec.Spec.rows (fun r ->
            let m = Intmath.pow2 (bits - 1) in
            (r mod (2 * m)) - m)
      in
      let r = Testbench.run_mac ~active_bits:bits m2 sim2 ~inputs:narrow in
      assert (r.(0) = Golden.dot ~weights:weights.(0) ~inputs:narrow);
      Printf.printf
        "INT%d mode: %d serial cycles per MAC, result verified\n" bits bits)
    [ 8; 4; 2 ];

  (* artifact export *)
  let dir = "soc_handoff" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let write name text = Fsutil.write_atomic (Filename.concat dir name) text in
  let design = m.Macro_rtl.design in
  write "dcim_macro.v" (Verilog.stats_header design ^ Verilog.to_string design);
  write "dcim_macro.def"
    (Def_writer.to_string lib a.Pipeline.signoff.Post_layout.placement);
  write "cells.lib" (Liberty.lib_text lib);
  write "cells.lef" (Liberty.lef_text lib);
  Persist.save (Ctx.scl ctx) (Filename.concat dir "scl_lut.csv");
  Printf.printf "hand-off written to %s/: %s\n" dir
    (String.concat ", " (Array.to_list (Sys.readdir dir)))

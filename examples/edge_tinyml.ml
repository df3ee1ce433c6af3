(* Edge / wearable scenario (the paper's intro motivates wearables as the
   energy-first corner): a small always-on keyword-spotting layer needs a
   64x64 INT4 macro at a modest clock, and every microwatt counts.

   The example compiles the macro with the power preference, runs the
   post-layout power analysis at a realistic activation sparsity sweep,
   and reports energy per inference for a small depthwise-ish layer.

   Run with: dune exec examples/edge_tinyml.exe *)

let () =
  let ctx = Ctx.default () in
  let lib = Ctx.lib ctx in
  let spec =
    {
      Spec.rows = 64;
      cols = 64;
      mcr = 2;
      (* double-buffered weights: stream next layer while computing *)
      input_prec = Precision.int4;
      weight_prec = Precision.int4;
      mac_freq_hz = 200e6;
      weight_update_freq_hz = 200e6;
      vdd = 0.7;
      (* low-voltage operation for efficiency *)
      preference = Spec.Prefer_power;
    }
  in
  let a = Pipeline.artifact_exn (Pipeline.run ctx spec) in
  print_string (Report.to_string lib a);
  let m = a.Pipeline.macro in
  (* sparsity sweep: ReLU networks rarely exceed ~50 % active inputs *)
  print_endline "activation-density sweep (post-layout, 200 MHz @ 0.7 V):";
  List.iter
    (fun density ->
      let p =
        Post_layout.power lib m a.Pipeline.signoff
          ~freq_hz:spec.Spec.mac_freq_hz ~vdd:spec.Spec.vdd
          ~input_density:density ~weight_density:0.5 ~macs:8
      in
      let macs_per_s =
        float_of_int (spec.Spec.rows * m.Macro_rtl.words)
        *. spec.Spec.mac_freq_hz
        /. float_of_int m.Macro_rtl.db
      in
      let pj_per_mac = p.Power.total_w /. macs_per_s *. 1e12 in
      Printf.printf
        "  density %.2f: %.3f mW  (%.3f pJ/MAC)\n" density
        (p.Power.total_w *. 1e3) pj_per_mac)
    [ 0.125; 0.25; 0.5; 0.75 ];
  (* energy for one 64x64x64 layer: 64 output words x 64 MACs *)
  let p =
    Post_layout.power lib m a.Pipeline.signoff ~freq_hz:spec.Spec.mac_freq_hz
      ~vdd:spec.Spec.vdd ~input_density:0.25 ~weight_density:0.5 ~macs:8
  in
  let mac_rate =
    float_of_int (spec.Spec.rows * m.Macro_rtl.words)
    *. spec.Spec.mac_freq_hz
    /. float_of_int m.Macro_rtl.db
  in
  let layer_macs = 64.0 *. 64.0 in
  let layer_s = layer_macs /. mac_rate in
  Printf.printf
    "one 64x64 FC layer: %.2f us, %.2f nJ at 25%% activation density\n"
    (layer_s *. 1e6)
    (p.Power.total_w *. layer_s *. 1e9)

(* Cloud scenario (the paper's intro: cloud acceleration wants throughput
   and FP support): a BF16-input macro tile for a cloud NPU, compiled with
   the performance preference, then pushed through a frequency ladder to
   find the fastest spec the compiler can close — the "how fast can this
   array go" question an integrator asks first.

   Run with: dune exec examples/cloud_npu.exe *)

let () =
  (* the ladder is a repeat-compile workload, so serve it through a warm
     [Service]: the library and SCL memo are characterized once and every
     rung after the first pays only its own search *)
  let ctx = Ctx.default () in
  let lib = Ctx.lib ctx in
  let svc = Service.create ctx in
  let base =
    {
      Spec.rows = 64;
      cols = 64;
      mcr = 1;
      input_prec = Precision.bf16;
      weight_prec = Precision.int8;
      (* BF16 weights pre-aligned into 8b mantissas *)
      mac_freq_hz = 400e6;
      weight_update_freq_hz = 400e6;
      vdd = 1.1;
      preference = Spec.Prefer_performance;
    }
  in
  print_endline "frequency ladder (BF16 inputs, 1.1 V, performance-first):";
  let best = ref None in
  List.iter
    (fun f_mhz ->
      let spec = { base with Spec.mac_freq_hz = f_mhz *. 1e6 } in
      let req = Service.compile_artifact svc spec in
      match req.Service.outcome with
      | Error d -> Printf.printf "  %4.0f MHz: %s\n%!" f_mhz (Diag.to_string d)
      | Ok r ->
          let a = r.Pipeline.artifact in
          Printf.printf
            "  %4.0f MHz: %s  (post-layout fmax %.2f GHz, %.2f mW, %d \
             techniques)\n%!"
            f_mhz
            (if a.Pipeline.timing_closed then "closed" else "missed")
            a.Pipeline.metrics.Pipeline.fmax_ghz
            (a.Pipeline.metrics.Pipeline.power_w *. 1e3)
            (List.length a.Pipeline.search.Searcher.applied);
          if a.Pipeline.timing_closed then best := Some (f_mhz, a))
    [ 400.; 600.; 800. ];
  print_endline (Service.describe svc);
  match !best with
  | None -> print_endline "no frequency closed — lower the ladder"
  | Some (f, a) ->
      Printf.printf "fastest closed spec: %.0f MHz\n" f;
      print_string (Report.to_string lib a);
      (* verify a BF16 MAC end to end, exponent handling included *)
      let m = a.Pipeline.macro in
      let sim = Sim.create m.Macro_rtl.design in
      let rng = Rng.create 2024 in
      let weights = Testbench.random_weights rng m ~density:1.0 in
      Testbench.load_weights m sim ~copy:0 weights;
      let inputs =
        Array.init base.Spec.rows (fun _ -> Fpfmt.random rng Fpfmt.bf16)
      in
      let results = Testbench.check_mac m sim ~weights ~inputs in
      let exp = Sim.read_bus sim "group_exp" in
      Printf.printf
        "BF16 MAC verified: %d words, shared exponent field %d\n"
        (Array.length results) exp

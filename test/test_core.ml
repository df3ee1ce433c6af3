(* Integration tests of the end-to-end compiler. *)

let lib = Library.n40 ()
let scl = Scl.create lib
let ctx = Ctx.of_parts lib scl
let check_bool = Alcotest.(check bool)

let spec ?(rows = 16) ?(cols = 16) ?(freq = 700e6)
    ?(ip = Precision.int8) () =
  {
    Spec.rows;
    cols;
    mcr = 2;
    input_prec = ip;
    weight_prec = Precision.int8;
    mac_freq_hz = freq;
    weight_update_freq_hz = freq;
    vdd = 0.9;
    preference = Spec.Balanced;
  }

let test_compile_int () =
  let a = Pipeline.artifact_exn (Pipeline.run ctx (spec ())) in
  check_bool "timing closed" true a.Pipeline.timing_closed;
  check_bool "signoff clean" true
    (a.Pipeline.signoff.Post_layout.lvs.Lvs.clean
    && a.Pipeline.signoff.Post_layout.drc_violations = []);
  check_bool "power sensible" true
    (a.Pipeline.metrics.Pipeline.power_w > 1e-5
    && a.Pipeline.metrics.Pipeline.power_w < 1.0);
  check_bool "area sensible" true
    (a.Pipeline.metrics.Pipeline.area_mm2 > 1e-4
    && a.Pipeline.metrics.Pipeline.area_mm2 < 10.0);
  check_bool "fmax covers spec" true
    (a.Pipeline.metrics.Pipeline.fmax_ghz >= 0.7)

let test_compile_fp () =
  let a =
    Pipeline.artifact_exn
      (Pipeline.run ctx (spec ~ip:Precision.fp8 ~freq:500e6 ()))
  in
  check_bool "fp closes" true a.Pipeline.timing_closed;
  (* FP macro has the aligner in its breakdown *)
  check_bool "aligner in power breakdown" true
    (List.mem_assoc "fp_align" a.Pipeline.power.Power.by_subcircuit)

let test_compiled_macro_computes () =
  let a = Pipeline.artifact_exn (Pipeline.run ctx (spec ())) in
  let m = a.Pipeline.macro in
  let sim = Sim.create m.Macro_rtl.design in
  Sim.set_bus sim "copy_sel" 0;
  let rng = Rng.create 42 in
  let weights = Testbench.random_weights rng m ~density:1.0 in
  Oracle.Bench.load_weights m sim ~copy:0 weights;
  for _ = 1 to 3 do
    let inputs =
      Array.init 16 (fun _ -> Testbench.random_input rng m ~density:1.0)
    in
    ignore (Oracle.Bench.check_mac m sim ~weights ~inputs)
  done

let test_metrics_consistency () =
  let s = spec () in
  let a = Pipeline.artifact_exn (Pipeline.run ctx s) in
  let m = a.Pipeline.metrics in
  check_bool "tops/w = tops / power" true
    (Float.abs (m.Pipeline.tops_per_w -. (m.Pipeline.tops /. m.Pipeline.power_w))
     /. m.Pipeline.tops_per_w
    < 1e-9);
  check_bool "tops/mm2 = tops / area" true
    (Float.abs
       (m.Pipeline.tops_per_mm2 -. (m.Pipeline.tops /. m.Pipeline.area_mm2))
     /. m.Pipeline.tops_per_mm2
    < 1e-9);
  Alcotest.(check (float 1e-9)) "ops norm for int8xint8" 64.0 m.Pipeline.ops_norm

let test_report_renders () =
  let a = Pipeline.artifact_exn (Pipeline.run ctx (spec ~freq:300e6 ())) in
  let s = Report.to_string lib a in
  check_bool "report non-trivial" true (String.length s > 300);
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "mentions post-layout" true (contains "post-layout");
  check_bool "subcircuit table" true (contains "shift_adder")

(* The one exporter: [syndcim compile -o] writes exactly this list. *)
let test_report_files () =
  let r =
    match Pipeline.run ctx (spec ~freq:300e6 ()) with
    | Ok r -> r
    | Error d -> Alcotest.failf "compile failed: %s" (Diag.to_string d)
  in
  let a = r.Pipeline.artifact in
  let files = Report.files lib r in
  Alcotest.(check (list string))
    "file set"
    [ "netlist.v"; "placement.def"; "macro.lib"; "macro.lef"; "report.txt";
      "search.txt"; "verify.txt"; "sta.txt"; "power.txt"; "metrics.txt" ]
    (List.map fst files);
  let file name = List.assoc name files in
  let starts_with prefix s = String.starts_with ~prefix s in
  check_bool "netlist carries its stats header" true
    (starts_with
       (Verilog.stats_header a.Pipeline.macro.Macro_rtl.design)
       (file "netlist.v"));
  check_bool "report is the printed report" true
    (file "report.txt" = Report.to_string lib a);
  check_bool "search summary leads with the spec" true
    (starts_with
       ("spec: " ^ Spec.describe a.Pipeline.spec)
       (file "search.txt"));
  let eco = (List.hd (List.rev r.Pipeline.attempts)).Pipeline.attempt_eco in
  check_bool "sta summary ends with the ECO record" true
    (String.ends_with ~suffix:(Report.describe_eco eco) (file "sta.txt"));
  check_bool "metrics summary carries the verdict" true
    (String.ends_with
       ~suffix:(Printf.sprintf "timing_closed: %b\n" a.Pipeline.timing_closed)
       (file "metrics.txt"))

let test_fig8_spec_closes () =
  (* the paper's headline spec must close end to end *)
  let a = Pipeline.artifact_exn (Pipeline.run ctx Spec.fig8) in
  check_bool "800MHz@0.9V closes post-layout" true a.Pipeline.timing_closed;
  (* and the silicon-validation points hold: >= 1 GHz at 1.2 V *)
  let fmax12 =
    Voltage.fmax lib.Library.node
      ~crit_path_ps:a.Pipeline.metrics.Pipeline.crit_ps ~vdd:1.2
  in
  check_bool "GHz-class at 1.2V" true (fmax12 >= 0.95e9)

let () =
  Alcotest.run "core"
    [
      ( "compile",
        [
          Alcotest.test_case "INT end-to-end" `Quick test_compile_int;
          Alcotest.test_case "FP end-to-end" `Quick test_compile_fp;
          Alcotest.test_case "compiled macro computes" `Quick
            test_compiled_macro_computes;
          Alcotest.test_case "metrics consistency" `Quick
            test_metrics_consistency;
          Alcotest.test_case "report" `Quick test_report_renders;
          Alcotest.test_case "report files" `Quick test_report_files;
          Alcotest.test_case "fig8 spec closes" `Slow test_fig8_spec_closes;
        ] );
    ]

(* Tests of the experiment harness: each reproduced table/figure at small
   scale, asserting the *shapes* the paper reports. *)

let lib = Library.n40 ()
let scl = Scl.create lib
let ctx = Ctx.of_parts lib scl
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- baselines ---------------- *)

let small_spec =
  {
    Spec.rows = 16;
    cols = 16;
    mcr = 2;
    input_prec = Precision.int8;
    weight_prec = Precision.int8;
    mac_freq_hz = 800e6;
    weight_update_freq_hz = 800e6;
    vdd = 0.9;
    preference = Spec.Balanced;
  }

let test_baselines_run_and_verify () =
  let all = Baselines.all ctx small_spec in
  check_int "three baselines" 3 (List.length all);
  List.iter
    (fun (_, (p : Design_point.t)) ->
      check_bool "unsized" true (p.Design_point.upsized = 0);
      Testbench.verify p.Design_point.macro ~seed:2 ~batches:2)
    all

let test_autodcim_uses_template_choices () =
  let p = Baselines.autodcim lib small_spec in
  check_bool "1T pass-gate mux" true
    (p.Design_point.cfg.Macro_rtl.mul_kind = Cell.Pass_1t);
  check_bool "RCA tree" true
    (p.Design_point.cfg.Macro_rtl.tree = Adder_tree.Rca_tree)

let test_compressor_baseline_lower_power_than_rca () =
  (* paper claim: compressor CSA trees are more power-efficient than the
     conventional RCA trees at the same spec (both unsized) *)
  let rca = Baselines.rca_conventional lib small_spec in
  let comp = Baselines.pure_compressor lib small_spec in
  check_bool "compressor saves power" true
    (Design_point.power_w comp < Design_point.power_w rca);
  check_bool "compressor saves area" true
    (comp.Design_point.area_um2 < rca.Design_point.area_um2)

(* ---------------- Table I ---------------- *)

let test_table1 () =
  let e = Table1.demonstrate ctx in
  check_bool "end-to-end demonstrated" true e.Table1.end_to_end_signoff;
  check_bool "FP demonstrated" true e.Table1.fp_compile_verified;
  check_bool "every subcircuit selectable" true
    (List.for_all (fun (_, n) -> n >= 2) e.Table1.selectable_variants);
  check_bool "spec-oriented demonstrated" true
    (e.Table1.techniques_applied >= 1);
  let t = Table1.table e in
  check_int "five compilers" 5 (List.length t.Table.rows)

(* ---------------- Fig 7 (small) ---------------- *)

let test_fig7_shape () =
  let points = Fig7.run ~dims:[ 16; 32 ] ctx in
  check_int "grid size" 8 (List.length points);
  (* efficiency grows with array size for each precision *)
  List.iter
    (fun prec ->
      let eff dim =
        match
          List.find_opt
            (fun (p : Fig7.point) ->
              p.Fig7.dim = dim && p.Fig7.precision = prec)
            points
        with
        | Some p -> p.Fig7.tops_w_1b
        | None -> Alcotest.fail "missing point"
      in
      check_bool
        (prec ^ " efficiency grows with size")
        true
        (eff 32 > eff 16))
    [ "INT4"; "INT8"; "FP8"; "BF16" ];
  (* FP overhead ordering: BF16 costs more than FP8, both more than INT8 *)
  match Fig7.fp_overheads points ~dim:32 with
  | Some (fp8, bf16) ->
      (* FP8 rides the same 8-bit datapath as INT8, so its overhead is the
         aligner alone: near parity (independently searched configs add a
         few percent of noise either way) *)
      check_bool "FP8 near parity with INT8" true (fp8 > -8.0 && fp8 < 25.0);
      check_bool "BF16 over FP8" true (bf16 > fp8);
      check_bool "overheads moderate (<60%)" true (bf16 < 60.0)
  | None -> Alcotest.fail "missing overhead row"

(* ---------------- Fig 9 ---------------- *)

let test_fig9_shmoo_shape () =
  let t = Fig9.shmoo lib.Library.node ~crit_ps:950.0 in
  (* pass region is down-left closed: if (v, f) passes then (v+, f-) pass *)
  let nv = Array.length t.Fig9.vdds and nf = Array.length t.Fig9.freqs_mhz in
  for vi = 0 to nv - 1 do
    for fi = 0 to nf - 1 do
      if t.Fig9.pass.(vi).(fi) then begin
        if vi + 1 < nv then
          check_bool "higher V passes" true t.Fig9.pass.(vi + 1).(fi);
        if fi > 0 then
          check_bool "lower f passes" true t.Fig9.pass.(vi).(fi - 1)
      end
    done
  done;
  (* fmax extraction *)
  (match Fig9.fmax_mhz t ~vdd:1.2 with
  | Some f -> check_bool "1.2V GHz-class" true (f >= 900.0)
  | None -> Alcotest.fail "no pass at 1.2V");
  match Fig9.fmax_mhz t ~vdd:0.7 with
  | Some f -> check_bool "0.7V in the hundreds" true (f >= 200.0 && f <= 700.0)
  | None -> Alcotest.fail "no pass at 0.7V"

(* ---------------- Table II scaling ---------------- *)

let test_table2_rows_shape () =
  (* rows render for the published designs plus a synthetic this-design *)
  let a = Pipeline.artifact_exn (Pipeline.run ctx small_spec) in
  let d =
    {
      Table2.artifact = a;
      array_kb = 4.0;
      area_mm2 = 0.1;
      peak_ghz = 1.0;
      tops_1b = 8.0;
      tops_mm2_1b = 80.0;
      tops_w_1b = 1500.0;
    }
  in
  let rows = Table2.rows d in
  check_int "five rows" 5 (List.length rows);
  check_bool "last row is this design" true
    (match List.rev rows with
    | last :: _ -> List.hd last = "This Design (measured)"
    | [] -> false)

(* ---------------- ablations (small) ---------------- *)

let test_ablation_adder_trees () =
  let pts = Ablation.adder_trees ~heights:[ 16; 32 ] ctx in
  check_bool "rows present" true (List.length pts >= 10);
  (* at each height the RCA baseline is the slowest topology *)
  List.iter
    (fun h ->
      let at = List.filter (fun (p : Ablation.tree_point) -> p.Ablation.rows = h) pts in
      let rca =
        List.find (fun (p : Ablation.tree_point) -> p.Ablation.topology = "rca") at
      in
      (* the conventional tree is never on the frontier: some CSA beats it
         on delay, area and energy simultaneously *)
      check_bool "rca dominated" true
        (List.exists
           (fun (p : Ablation.tree_point) ->
             p.Ablation.topology <> "rca"
             && p.Ablation.delay_ps < rca.Ablation.delay_ps
             && p.Ablation.area_um2 < rca.Ablation.area_um2
             && p.Ablation.energy_fj < rca.Ablation.energy_fj)
           at))
    [ 16; 32 ]

let test_ablation_placements () =
  let pts = Ablation.placements ~dims:[ 16 ] ctx in
  check_int "two styles" 2 (List.length pts);
  let get style =
    List.find (fun (p : Ablation.placement_point) -> p.Ablation.style = style) pts
  in
  check_bool "sdp wins wirelength" true
    ((get "sdp").Ablation.wirelength_mm < (get "scattered").Ablation.wirelength_mm)

let test_ablation_search_ladder () =
  let pts =
    Ablation.search_ladder ~freqs_mhz:[ 300.; 900. ] ctx
      { small_spec with Spec.rows = 16; cols = 16 }
  in
  check_int "two rungs" 2 (List.length pts);
  let p300 = List.nth pts 0 and p900 = List.nth pts 1 in
  check_bool "both closed" true (p300.Ablation.closed && p900.Ablation.closed);
  check_bool "tighter clock needs at least as many techniques" true
    (List.length p900.Ablation.techniques
    >= List.length p300.Ablation.techniques)

let test_ablation_mcr () =
  let pts = Ablation.mcr_sweep ~dim:16 ctx in
  let tg mcr =
    List.find
      (fun (p : Ablation.mcr_point) ->
        p.Ablation.mcr = mcr && p.Ablation.mul_variant = "MUL_TGNOR")
      pts
  in
  (* raising MCR raises on-macro memory density (the paper's motivation) *)
  check_bool "density grows with MCR" true
    ((tg 2).Ablation.density_kb_per_mm2 > (tg 1).Ablation.density_kb_per_mm2
    && (tg 4).Ablation.density_kb_per_mm2
       > (tg 2).Ablation.density_kb_per_mm2);
  (* at much less than proportional area cost *)
  check_bool "area grows sub-linearly" true
    ((tg 4).Ablation.area_um2 < 2.5 *. (tg 1).Ablation.area_um2);
  (* the fused OAI22 variant exists only for MCR <= 2 *)
  check_bool "fused variant bounded" true
    (not
       (List.exists
          (fun (p : Ablation.mcr_point) ->
            p.Ablation.mcr = 4 && p.Ablation.mul_variant = "MUL_OAI22F")
          pts));
  (* each point's power is the 63-lane packed ensemble of a macro rebuilt
     from the same configuration, bit for bit *)
  List.iter
    (fun (p : Ablation.mcr_point) ->
      let mul_kind =
        List.find
          (fun k -> Cell.kind_to_string (Cell.Mul k) = p.Ablation.mul_variant)
          [ Cell.Tg_nor; Cell.Oai22_fused ]
      in
      let cfg =
        {
          (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:p.Ablation.mcr
             ~input_prec:Precision.int8 ~weight_prec:Precision.int8)
          with
          Macro_rtl.mul_kind;
        }
      in
      let power =
        Design_point.measure_power ~n_lanes:Sim_sliced.word_lanes lib
          (Macro_rtl.build lib cfg) ~freq_hz:5e8 ~vdd:0.9 ~input_density:0.5
          ~weight_density:0.5 ~macs:4
      in
      check_bool
        (Printf.sprintf "MCR %d %s power is the packed ensemble"
           p.Ablation.mcr p.Ablation.mul_variant)
        true
        (Float.equal p.Ablation.power_mw (power.Power.total_w *. 1e3)))
    pts

(* ---------------- Fig 8 (small spec) ---------------- *)

let test_fig8_machinery () =
  let front, cloud = Searcher.pareto_sweep lib scl small_spec in
  check_bool "cloud" true (List.length cloud >= 3);
  check_bool "front" true (List.length front >= 1);
  (* every baseline is either dominated on (power, area) or violates the
     spec the searched designs meet *)
  List.iter
    (fun (_, (b : Design_point.t)) ->
      let beaten =
        (not b.Design_point.meets_mac)
        || List.exists
             (fun (f : Design_point.t) ->
               Design_point.power_w f <= Design_point.power_w b
               && f.Design_point.area_um2 <= b.Design_point.area_um2)
             front
      in
      check_bool "searcher at least matches baseline" true beaten)
    (Baselines.all ctx small_spec)

let () =
  Alcotest.run "eval"
    [
      ( "baselines",
        [
          Alcotest.test_case "run and verify" `Quick
            test_baselines_run_and_verify;
          Alcotest.test_case "autodcim template" `Quick
            test_autodcim_uses_template_choices;
          Alcotest.test_case "compressor beats RCA on power" `Quick
            test_compressor_baseline_lower_power_than_rca;
        ] );
      ("table1", [ Alcotest.test_case "feature matrix" `Slow test_table1 ]);
      ("fig7", [ Alcotest.test_case "shape" `Slow test_fig7_shape ]);
      ("fig9", [ Alcotest.test_case "shmoo shape" `Quick test_fig9_shmoo_shape ]);
      ("table2", [ Alcotest.test_case "rows" `Slow test_table2_rows_shape ]);
      ( "ablations",
        [
          Alcotest.test_case "adder trees" `Slow test_ablation_adder_trees;
          Alcotest.test_case "placements" `Quick test_ablation_placements;
          Alcotest.test_case "search ladder" `Slow
            test_ablation_search_ladder;
          Alcotest.test_case "MCR sweep" `Quick test_ablation_mcr;
        ] );
      ("fig8", [ Alcotest.test_case "machinery" `Slow test_fig8_machinery ]);
    ]

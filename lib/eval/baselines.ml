(** Baseline compilers the paper compares against (Table I, Fig. 8).

    These are running implementations, not just table checkmarks:

    - [autodcim]: AutoDCIM-style template generation — fixed subcircuits
      (1T passing-gate multiplier, conventional RCA adder tree, default
      pipeline), no spec-driven search, no sizing. End-to-end INT-only.
    - [rca_conventional]: the classic signed-RCA adder-tree macro that
      CSA-based designs are measured against.
    - [pure_compressor]: a You et al. [14]-style macro — all-4-2-compressor
      CSA, no path reordering, no FA substitution.

    Each returns an evaluated {!Design_point.t} at the given spec's
    operating point so it can be plotted against the searcher's frontier. *)

let template_base (spec : Spec.t) =
  Macro_rtl.default ~rows:spec.Spec.rows ~cols:spec.Spec.cols
    ~mcr:spec.Spec.mcr ~input_prec:spec.Spec.input_prec
    ~weight_prec:spec.Spec.weight_prec

(* Evaluate a fixed template with no timing-driven sizing: build fresh,
   measure as-is (every cell at minimum drive). *)
let evaluate_unsized_raw lib (spec : Spec.t) cfg =
  let macro = Macro_rtl.build lib cfg in
  let sta = Sta.analyze macro.Macro_rtl.design lib in
  let stats = Stats.of_design macro.Macro_rtl.design lib in
  let power =
    Design_point.measure_power lib macro ~freq_hz:spec.Spec.mac_freq_hz
      ~vdd:spec.Spec.vdd
      ~input_density:Design_point.search_input_density
      ~weight_density:Design_point.search_weight_density
      ~macs:Design_point.search_macs
  in
  let wupd_ps =
    Driver.weight_update_ps lib ~rows:spec.Spec.rows
    *. Voltage.delay_scale lib.Library.node ~vdd:spec.Spec.vdd
  in
  {
    Design_point.cfg;
    macro;
    sta;
    crit_ps = sta.Sta.crit_ps;
    upsized = 0;
    area_um2 = stats.Stats.area_um2;
    power = Design_point.measured_power power.Power.total_w;
    meets_mac =
      sta.Sta.crit_ps <= Spec.search_budget_ps spec lib.Library.node +. 0.5;
    meets_wupd = wupd_ps <= 1e12 /. spec.Spec.weight_update_freq_hz;
    tops =
      Design_point.throughput_tops macro ~freq_hz:spec.Spec.mac_freq_hz;
  }

(* Each baseline evaluation runs as a named pipeline stage, so a
   malformed template surfaces as a diagnostic, not an exception. *)
let evaluate_unsized ~name lib (spec : Spec.t) cfg =
  let stage_name = "baseline:" ^ name in
  let stage =
    Stage.v stage_name (fun () ->
        Diag.guard ~stage:stage_name ~spec (fun () ->
            evaluate_unsized_raw lib spec cfg)
        |> Result.map (fun (p : Design_point.t) ->
               ( p,
                 Stage.meta
                   ~cells:(Ir.n_insts p.Design_point.macro.Macro_rtl.design)
                   ~crit_out_ps:p.Design_point.crit_ps
                   ~note:"unsized template, no search" () )))
  in
  match Stage.execute stage () with
  | Ok p -> p
  | Error d -> raise (Diag.Failed d)

(** AutoDCIM-style template: area-greedy fixed choices, no optimization. *)
let autodcim lib (spec : Spec.t) =
  let cfg =
    {
      (template_base spec) with
      Macro_rtl.mul_kind = Cell.Pass_1t;
      tree = Adder_tree.Rca_tree;
    }
  in
  evaluate_unsized ~name:"autodcim" lib spec cfg

(** Conventional signed-RCA adder-tree macro. *)
let rca_conventional lib (spec : Spec.t) =
  let cfg = { (template_base spec) with Macro_rtl.tree = Adder_tree.Rca_tree } in
  evaluate_unsized ~name:"rca" lib spec cfg

(** Pure 4-2 compressor CSA macro (no reordering, no FA mixing). *)
let pure_compressor lib (spec : Spec.t) =
  let cfg =
    {
      (template_base spec) with
      Macro_rtl.tree = Adder_tree.Csa { fa_ratio = 0.0; reorder = false };
    }
  in
  evaluate_unsized ~name:"compressor" lib spec cfg

(** [all ctx spec] — every baseline evaluated at [spec]'s
    operating point over the context's library. *)
let all (ctx : Ctx.t) spec =
  let lib = Ctx.lib ctx in
  [
    ("AutoDCIM-style template", autodcim lib spec);
    ("conventional RCA tree", rca_conventional lib spec);
    ("pure 4-2 compressor", pure_compressor lib spec);
  ]

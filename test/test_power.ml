(* Tests for the switching-activity power model. *)

let lib = Library.n40 ()
let check_bool = Alcotest.(check bool)

(* A bank of n toggling registers behind inverters. *)
let toggler_design n =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  for _ = 1 to n do
    ignore (Builder.dff c (Builder.inv c a))
  done;
  Ir.freeze ir

let run_activity d ~cycles ~toggle =
  let sim = Sim_sliced.create ~n_lanes:1 d in
  for i = 0 to cycles - 1 do
    Sim_sliced.set_bus sim "a" (if toggle then i mod 2 else 0);
    Sim_sliced.step sim
  done;
  sim

let estimate d sim = Power.estimate d lib sim ~freq_hz:1e9 ~vdd:1.1 ()

let test_active_beats_idle () =
  let d = toggler_design 16 in
  let active = estimate d (run_activity d ~cycles:16 ~toggle:true) in
  let idle = estimate d (run_activity d ~cycles:16 ~toggle:false) in
  check_bool "dynamic grows with activity" true
    (active.Power.dynamic_w > (2.0 *. idle.Power.dynamic_w) +. 1e-9);
  check_bool "clock power present even when idle" true
    (idle.Power.clock_w > 0.0);
  check_bool "leakage independent" true
    (Float.abs (active.Power.leakage_w -. idle.Power.leakage_w) < 1e-12)

let test_power_scales_with_frequency () =
  let d = toggler_design 8 in
  let sim = run_activity d ~cycles:16 ~toggle:true in
  let p1 = Power.estimate d lib sim ~freq_hz:1e9 ~vdd:1.1 () in
  let p2 = Power.estimate d lib sim ~freq_hz:2e9 ~vdd:1.1 () in
  check_bool "2x frequency ~ 2x dynamic" true
    (Float.abs ((p2.Power.dynamic_w /. p1.Power.dynamic_w) -. 2.0) < 0.01)

let test_power_scales_with_voltage () =
  let d = toggler_design 8 in
  let sim = run_activity d ~cycles:16 ~toggle:true in
  let hi = Power.estimate d lib sim ~freq_hz:1e9 ~vdd:1.1 () in
  let lo = Power.estimate d lib sim ~freq_hz:1e9 ~vdd:0.7 () in
  check_bool "lower voltage, much lower power" true
    (lo.Power.total_w < 0.55 *. hi.Power.total_w)

let test_energy_per_cycle_stable () =
  (* energy per cycle should not depend on the reporting frequency *)
  let d = toggler_design 8 in
  let sim = run_activity d ~cycles:16 ~toggle:true in
  let p1 = Power.estimate d lib sim ~freq_hz:1e9 ~vdd:1.1 () in
  let p2 = Power.estimate d lib sim ~freq_hz:5e8 ~vdd:1.1 () in
  Alcotest.(check (float 1e-9))
    "energy invariant" p1.Power.energy_per_cycle_fj
    p2.Power.energy_per_cycle_fj

let test_clock_gating_accounting () =
  (* an enabled register bank clocked at 25% duty must burn ~25% of the
     always-on clock energy *)
  let build gated =
    let ir = Ir.create () in
    let c = Builder.ctx_plain ir in
    let a = Ir.new_net ir and en = Ir.new_net ir in
    Ir.add_input ir "a" [| a |];
    Ir.add_input ir "en" [| en |];
    for _ = 1 to 32 do
      if gated then ignore (Builder.dff_en c ~en a)
      else ignore (Builder.dff c a)
    done;
    Ir.freeze ir
  in
  let run d duty =
    let sim = Sim_sliced.create ~n_lanes:1 d in
    for i = 0 to 31 do
      Sim_sliced.set_bus sim "a" 0;
      Sim_sliced.set_bus sim "en" (if i mod 4 < duty then 1 else 0);
      Sim_sliced.step sim
    done;
    estimate d sim
  in
  let gated = run (build true) 1 in
  let free = run (build false) 4 in
  check_bool "gated clock cheaper" true
    (gated.Power.clock_w < 0.5 *. free.Power.clock_w)

let test_weight_update_energy () =
  let ir = Ir.create () in
  let out = Ir.new_net ir in
  ignore
    (Ir.add
       ~tag:(Ir.Weight_bit { row = 0; col = 0; copy = 0 })
       ir (Cell.Sram Cell.S6t) ~ins:[||] ~outs:[| out |]);
  Ir.add_output ir "w" [| out |];
  let d = Ir.freeze ir in
  let sim = Sim_sliced.create ~n_lanes:1 d in
  for i = 0 to 9 do
    Sim_sliced.set_weight_all sim ~row:0 ~col:0 ~copy:0 (i mod 2 = 0);
    Sim_sliced.step sim
  done;
  let p = estimate d sim in
  check_bool "write energy charged" true (p.Power.weight_update_w > 0.0)

let test_breakdown_sums () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:8 ~cols:8 ~mcr:1 ~input_prec:Precision.int4
         ~weight_prec:Precision.int4)
  in
  let p =
    Design_point.measure_power lib m ~freq_hz:5e8 ~vdd:0.9
      ~input_density:0.5 ~weight_density:0.5 ~macs:4
  in
  let sub = List.fold_left (fun a (_, w) -> a +. w) 0.0 p.Power.by_subcircuit in
  (* the per-subcircuit split covers exactly the switching component *)
  check_bool "breakdown equals dynamic" true
    (Float.abs (sub -. p.Power.dynamic_w) /. p.Power.dynamic_w < 1e-6);
  check_bool "total is the sum of parts" true
    (Float.abs
       (p.Power.total_w
       -. (p.Power.dynamic_w +. p.Power.clock_w +. p.Power.leakage_w
          +. p.Power.weight_update_w))
    < 1e-12)

let test_sparsity_lowers_power () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1 ~input_prec:Precision.int8
         ~weight_prec:Precision.int8)
  in
  let at density =
    (Design_point.measure_power lib m ~freq_hz:5e8 ~vdd:0.9
       ~input_density:density ~weight_density:0.5 ~macs:6)
      .Power.total_w
  in
  check_bool "sparser inputs, less power" true (at 0.125 < at 0.9)

let () =
  Alcotest.run "power"
    [
      ( "model",
        [
          Alcotest.test_case "activity" `Quick test_active_beats_idle;
          Alcotest.test_case "frequency scaling" `Quick
            test_power_scales_with_frequency;
          Alcotest.test_case "voltage scaling" `Quick
            test_power_scales_with_voltage;
          Alcotest.test_case "energy per cycle" `Quick
            test_energy_per_cycle_stable;
          Alcotest.test_case "clock gating" `Quick
            test_clock_gating_accounting;
          Alcotest.test_case "weight update energy" `Quick
            test_weight_update_energy;
        ] );
      ( "macro",
        [
          Alcotest.test_case "breakdown sums" `Quick test_breakdown_sums;
          Alcotest.test_case "sparsity" `Quick test_sparsity_lowers_power;
        ] );
    ]

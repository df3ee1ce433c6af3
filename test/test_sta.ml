(* Tests for static timing analysis and the sizing pass. *)

let lib = Library.n40 ()

let check_bool = Alcotest.(check bool)

(* An inverter chain of length n between an input and a register. *)
let chain_design n =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  let rec go net k = if k = 0 then net else go (Builder.inv c net) (k - 1) in
  let last = go a n in
  ignore (Builder.dff c last);
  Ir.freeze ir

let test_chain_delay () =
  let d4 = Sta.analyze (chain_design 4) lib in
  let d8 = Sta.analyze (chain_design 8) lib in
  check_bool "longer chain slower" true (d8.Sta.crit_ps > d4.Sta.crit_ps);
  (* path steps = inverters + endpoint accounting *)
  Alcotest.(check int) "path length" 4 (List.length d4.Sta.path)

let test_chain_analytic () =
  (* chain of 1: inv intrinsic + res*dff_cap + dff setup *)
  let d = Sta.analyze (chain_design 1) lib in
  let inv = Library.params lib Cell.Inv Cell.X1 in
  let dff = Library.params lib Cell.Dff Cell.X1 in
  let expect =
    inv.Library.intrinsic_ps.(0)
    +. (inv.Library.drive_res_ps_per_ff *. dff.Library.input_cap_ff)
    +. dff.Library.setup_ps
  in
  Alcotest.(check (float 0.01)) "analytic match" expect d.Sta.crit_ps

let test_launch_from_register () =
  (* reg -> inv -> reg path includes clk-to-q *)
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  let q1 = Builder.dff c a in
  let x = Builder.inv c q1 in
  let q2 = Builder.dff c x in
  Ir.add_output ir "q" [| q2 |];
  let d = Ir.freeze ir in
  let r = Sta.analyze d lib in
  let dff = Library.params lib Cell.Dff Cell.X1 in
  check_bool "includes clk_q" true (r.Sta.crit_ps > dff.Library.clk_q_ps);
  match r.Sta.endpoint with
  | Sta.Reg_d _ -> ()
  | Sta.Primary_out _ -> Alcotest.fail "endpoint should be a register"

let test_wire_cap_slows () =
  let d = chain_design 4 in
  let base = Sta.analyze d lib in
  let loaded = Sta.analyze ~wire_cap:(fun _ -> 10.0) d lib in
  check_bool "wire load slows" true
    (loaded.Sta.crit_ps > base.Sta.crit_ps +. 20.0)

let test_slack_signs () =
  let d = chain_design 6 in
  let r = Sta.analyze d lib in
  let loose = Sta.slacks r d lib ~target_ps:(r.Sta.crit_ps +. 100.0) () in
  let tight = Sta.slacks r d lib ~target_ps:(r.Sta.crit_ps -. 100.0) () in
  (* with a loose target no net is negative; with a tight one the path is *)
  check_bool "loose all non-negative" true
    (Array.for_all (fun s -> s >= -0.01 || Float.is_nan s) loose);
  let negatives = Array.to_list tight |> List.filter (fun s -> s < 0.0) in
  check_bool "tight has negative slack" true (List.length negatives >= 6)

let test_fmax_ghz () =
  let r = Sta.analyze (chain_design 10) lib in
  Alcotest.(check (float 1e-6))
    "fmax consistent" (1000.0 /. r.Sta.crit_ps) (Sta.fmax_ghz r)

(* ---------------- sizing ---------------- *)

let fanout_design () =
  (* one driver, a big capacitive fan-out, then a register: upsizing the
     driver is the only fix *)
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let a = Ir.new_net ir in
  Ir.add_input ir "a" [| a |];
  let x = Builder.inv c a in
  for _ = 1 to 30 do
    ignore (Builder.dff c x)
  done;
  Ir.freeze ir

let test_sizing_speeds_up () =
  let d = fanout_design () in
  let before = (Sta.analyze d lib).Sta.crit_ps in
  let r = Sizing.speed_up d lib ~target_ps:(before /. 2.0) in
  check_bool "improved" true (r.Sizing.after_ps < before);
  check_bool "counted" true (r.Sizing.upsized >= 1)

let test_sizing_idempotent_when_met () =
  let d = chain_design 3 in
  let before = (Sta.analyze d lib).Sta.crit_ps in
  let r = Sizing.speed_up d lib ~target_ps:(before +. 1000.0) in
  Alcotest.(check int) "no bumps" 0 r.Sizing.upsized

let test_relax_and_snapshot () =
  let d = fanout_design () in
  ignore (Sizing.speed_up d lib ~target_ps:1.0);
  let snap = Sizing.snapshot d in
  Sizing.relax d;
  let drives () = List.init (Ir.n_insts d) (Ir.drive d) in
  check_bool "all X1 after relax" true
    (List.for_all (fun drive -> drive = Cell.X1) (drives ()));
  Sizing.restore d snap;
  check_bool "restored" true
    (List.exists (fun drive -> drive <> Cell.X1) (drives ()))

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [r] — what a sizing call returned — is bit for bit the load map and
   STA report a fresh analysis of the sized design gives. *)
let check_final_report name d (r : Sizing.result) =
  let loads = Ir.fanout_loads d lib () in
  let fresh = Sta.analyze ~loads d lib in
  let sta = r.Sizing.sta in
  check_bool (name ^ ": loads") true
    (Array.for_all2 bits_equal loads r.Sizing.loads);
  check_bool (name ^ ": crit") true
    (bits_equal fresh.Sta.crit_ps sta.Sta.crit_ps);
  check_bool (name ^ ": after_ps") true
    (bits_equal sta.Sta.crit_ps r.Sizing.after_ps);
  check_bool (name ^ ": endpoint") true (fresh.Sta.endpoint = sta.Sta.endpoint);
  check_bool (name ^ ": arrivals") true
    (Array.for_all2 bits_equal fresh.Sta.arrivals sta.Sta.arrivals);
  check_bool (name ^ ": path") true (fresh.Sta.path = sta.Sta.path)

let test_sizing_report_is_final () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:8 ~cols:8 ~mcr:1 ~input_prec:Precision.int4
         ~weight_prec:Precision.int4)
  in
  let d = m.Macro_rtl.design in
  let crit0 = (Sta.analyze d lib).Sta.crit_ps in
  (* exit 1: the target is met before any round *)
  let r = Sizing.speed_up d lib ~target_ps:(crit0 +. 100.0) in
  Alcotest.(check int) "met: no bumps" 0 r.Sizing.upsized;
  check_final_report "met at round 0" d r;
  (* exit 2: the round budget runs out after a round that changed drives
     and shortened the path *)
  let fd = fanout_design () in
  let before = (Sta.analyze fd lib).Sta.crit_ps in
  let r = Sizing.speed_up ~max_rounds:1 fd lib ~target_ps:(before /. 2.0) in
  check_bool "capped: bumped" true (r.Sizing.upsized > 0);
  check_bool "capped: still violating" true (r.Sizing.after_ps > 1.0);
  check_final_report "max_rounds" fd r;
  (* exit 3: a call that keeps no bump (on this macro its first round is
     undone; exit 5 below forces the all-X4 case) *)
  let rec saturate () =
    let r = Sizing.speed_up d lib ~target_ps:1.0 in
    if r.Sizing.upsized > 0 then saturate () else r
  in
  let r = saturate () in
  check_bool "saturated: still violating" true (r.Sizing.after_ps > 1.0);
  check_final_report "no change" d r

let drive_indices d =
  List.init (Ir.n_insts d) (fun i -> Cell.drive_index (Ir.drive d i))

(* exit 4: the default 8x8 macro's first all-violators round lengthens
   its path (the bigger cells load their drivers more than they speed
   up), so the round is undone; then exit 5 on the same macro *)
let test_sizing_undoes_lengthening_round () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:8 ~cols:8 ~mcr:1 ~input_prec:Precision.int4
         ~weight_prec:Precision.int4)
  in
  let d = m.Macro_rtl.design in
  let entry = drive_indices d in
  let r = Sizing.speed_up ~max_rounds:1 d lib ~target_ps:1.0 in
  check_bool "drives as at entry" true (drive_indices d = entry);
  Alcotest.(check int) "no bumps kept" 0 r.Sizing.upsized;
  check_bool "after = before" true
    (bits_equal r.Sizing.after_ps r.Sizing.before_ps);
  check_final_report "undone round" d r;
  (* exit 5: a round finds violators but every one is already at X4 *)
  let x4 = Char.chr (Cell.drive_index Cell.X4) in
  for i = 0 to Ir.n_insts d - 1 do
    if not (Cell.is_storage (Ir.kind d i)) then Bytes.set d.Ir.drives i x4
  done;
  let r = Sizing.speed_up d lib ~target_ps:1.0 in
  Alcotest.(check int) "saturated: no bumps" 0 r.Sizing.upsized;
  check_bool "saturated: still violating" true (r.Sizing.after_ps > 1.0);
  check_final_report "all X4" d r

(* Small fuzzed initial configurations: sizing toward any target never
   lengthens the path, counts exactly the drive rises it kept, leaves
   storage cells at X1, and returns the report of the drives it leaves. *)
let small_specs =
  Array.of_list
    (List.filter
       (fun (s : Spec.t) -> s.Spec.rows <= 8)
       (Specgen.generate ~seed:7 ~count:40))

let prop_sizing_contract =
  QCheck.Test.make ~count:40
    ~name:"never slower, counts kept rises, final report"
    QCheck.(
      pair (int_bound (Array.length small_specs - 1)) (float_range 0.3 1.1))
    (fun (k, frac) ->
      let s = small_specs.(k) in
      let d = (Macro_rtl.build lib (Spec.initial_config s)).Macro_rtl.design in
      let entry = drive_indices d in
      let x1 = (Sta.analyze d lib).Sta.crit_ps in
      let r = Sizing.speed_up d lib ~target_ps:(frac *. x1) in
      let rises =
        List.fold_left2 (fun acc a b -> acc + b - a) 0 entry (drive_indices d)
      in
      if r.Sizing.after_ps > r.Sizing.before_ps then
        QCheck.Test.fail_reportf "%s: %.3f -> %.3f ps" (Spec.describe s)
          r.Sizing.before_ps r.Sizing.after_ps;
      if rises <> r.Sizing.upsized then
        QCheck.Test.fail_reportf "%s: %d drive rises, %d counted"
          (Spec.describe s) rises r.Sizing.upsized;
      Array.iter
        (fun i ->
          if Ir.drive d i <> Cell.X1 then
            QCheck.Test.fail_reportf "%s: storage cell %d resized"
              (Spec.describe s) i)
        d.Ir.storage;
      check_final_report (Spec.describe s) d r;
      true)

(* ---------------- allocation ---------------- *)

(* Minor-heap words one call of [f] allocates, after a warm-up call.
   Arrays longer than the minor heap's block limit are allocated in the
   major heap and do not count: this measures per-cell garbage only. *)
let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let test_kernels_allocation_free () =
  let m =
    Macro_rtl.build lib
      (Macro_rtl.default ~rows:64 ~cols:64 ~mcr:1 ~input_prec:Precision.int8
         ~weight_prec:Precision.int8)
  in
  let d = m.Macro_rtl.design in
  let n = Ir.n_insts d in
  let loads = Ir.fanout_loads d lib () in
  let r = Sta.analyze ~loads d lib in
  (* every net toggling, every enabled flip-flop clocked: the power loops
     visit every driver, tag and flip-flop *)
  let toggles = Array.make d.Ir.n_nets 3 and en_cycles = Array.make n 2 in
  let guard name f =
    let w = minor_words (fun () -> ignore (Sys.opaque_identity (f ()))) in
    check_bool
      (Printf.sprintf "%s: %.0f words for %d instances" name w n)
      true
      (w < float_of_int n)
  in
  guard "Ir.fanout_loads" (fun () -> Ir.fanout_loads d lib ());
  guard "Sta.analyze" (fun () -> Sta.analyze ~loads d lib);
  guard "Sta.slacks" (fun () ->
      Sta.slacks r d lib ~loads ~target_ps:(r.Sta.crit_ps /. 2.0) ());
  guard "Power.estimate_activity" (fun () ->
      Power.estimate_activity d lib ~toggles ~en_cycles ~cycles:10
        ~weight_flips:5 ~freq_hz:500e6 ~vdd:0.9 ~loads ())

let test_voltage_scaled_timing () =
  let r = Sta.analyze (chain_design 8) lib in
  let at_07 = Sta.crit_ps_at r lib.Library.node ~vdd:0.7 in
  let at_12 = Sta.crit_ps_at r lib.Library.node ~vdd:1.2 in
  check_bool "0.7V slower than 1.2V" true (at_07 > at_12);
  check_bool "meets at slack freq" true
    (Sta.meets r lib.Library.node ~vdd:1.2 ~freq_hz:(0.5e12 /. at_12));
  check_bool "fails at 2x fmax" false
    (Sta.meets r lib.Library.node ~vdd:1.2 ~freq_hz:(2.0e12 /. at_12))

let () =
  Alcotest.run "sta"
    [
      ( "timing",
        [
          Alcotest.test_case "chain delay" `Quick test_chain_delay;
          Alcotest.test_case "analytic single stage" `Quick
            test_chain_analytic;
          Alcotest.test_case "register launch" `Quick
            test_launch_from_register;
          Alcotest.test_case "wire cap slows" `Quick test_wire_cap_slows;
          Alcotest.test_case "slack signs" `Quick test_slack_signs;
          Alcotest.test_case "fmax" `Quick test_fmax_ghz;
          Alcotest.test_case "voltage scaling" `Quick
            test_voltage_scaled_timing;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "speeds up" `Quick test_sizing_speeds_up;
          Alcotest.test_case "idempotent when met" `Quick
            test_sizing_idempotent_when_met;
          Alcotest.test_case "relax/snapshot/restore" `Quick
            test_relax_and_snapshot;
          Alcotest.test_case "returned report is final" `Quick
            test_sizing_report_is_final;
          Alcotest.test_case "a round that does not shorten the path is undone"
            `Quick test_sizing_undoes_lengthening_round;
          QCheck_alcotest.to_alcotest prop_sizing_contract;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "kernels allocation-free" `Quick
            test_kernels_allocation_free;
        ] );
    ]

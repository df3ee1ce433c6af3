(* Tests for the extension features: runtime bit-width flexibility,
   random-vector equivalence checking, and subcircuit-library
   persistence. *)

let lib = Library.n40 ()
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- runtime bit-width flexibility ---------------- *)

let narrow_check ~sa_kind ~db ~active =
  let cfg =
    {
      (Macro_rtl.default ~rows:8 ~cols:8 ~mcr:1 ~input_prec:(Precision.Int db)
         ~weight_prec:Precision.int8)
      with
      Macro_rtl.sa_kind;
    }
  in
  let m = Macro_rtl.build lib cfg in
  let sim = Sim.create m.Macro_rtl.design in
  let rng = Rng.create (db + active) in
  let weights = Testbench.random_weights rng m ~density:1.0 in
  Oracle.Bench.load_weights m sim ~copy:0 weights;
  for _ = 1 to 8 do
    let inputs =
      Array.init 8 (fun _ ->
          if active = 1 then Rng.int rng 2 else Rng.signed rng ~width:active)
    in
    let r = Oracle.Bench.run_mac ~active_bits:active m sim ~inputs in
    Array.iteri
      (fun g got ->
        let expected = Golden.dot ~weights:weights.(g) ~inputs in
        check_int
          (Printf.sprintf "%s db=%d active=%d word=%d"
             (Shift_adder.kind_name sa_kind) db active g)
          expected got)
      r
  done

let test_narrow_precisions () =
  List.iter
    (fun sa_kind ->
      List.iter
        (fun active -> narrow_check ~sa_kind ~db:8 ~active)
        [ 8; 4; 2; 1 ])
    [ Shift_adder.Lsb_right; Shift_adder.Ripple; Shift_adder.Carry_save ]

let test_narrow_throughput_model () =
  (* an INT8 macro in INT4 mode takes half the serial cycles *)
  let cfg =
    Macro_rtl.default ~rows:8 ~cols:8 ~mcr:1 ~input_prec:Precision.int8
      ~weight_prec:Precision.int8
  in
  let m = Macro_rtl.build lib cfg in
  check_int "full cycles" 8 (Macro_rtl.serial_cycles m);
  (* run_mac with active_bits:4 executes 4 accumulation cycles — checked
     implicitly by correctness above; here we check the documented ratio *)
  check_bool "narrow mode halves serial work" true
    (Macro_rtl.serial_cycles m / 2 = 4)

(* ---------------- equivalence checking ---------------- *)

let macro_with cfg = (Macro_rtl.build lib cfg).Macro_rtl.design

let base_cfg =
  Macro_rtl.default ~rows:8 ~cols:8 ~mcr:1 ~input_prec:Precision.int4
    ~weight_prec:Precision.int4

let test_equiv_same_design () =
  let a = macro_with base_cfg and b = macro_with base_cfg in
  match Equiv.check a b with
  | Equiv.Equivalent n -> check_bool "vectors" true (n > 0)
  | Equiv.Mismatch _ -> Alcotest.fail "identical designs must match"

let test_equiv_across_tree_topologies () =
  (* different adder-tree structure, same function and same latency *)
  let a = macro_with base_cfg in
  let b =
    macro_with
      { base_cfg with
        Macro_rtl.tree = Adder_tree.Csa { fa_ratio = 1.0; reorder = true } }
  in
  match Equiv.check ~settle:12 a b with
  | Equiv.Equivalent _ -> ()
  | Equiv.Mismatch { bus; _ } ->
      Alcotest.fail (Printf.sprintf "tree topologies differ on %s" bus)

let test_equiv_detects_difference () =
  (* an OFU with different signedness is a genuinely different function *)
  let ir_of signed =
    let ir = Ir.create () in
    let c = Builder.ctx_plain ir in
    let a = Ir.new_bus ir 4 and b = Ir.new_bus ir 4 in
    Ir.add_input ir "a" a;
    Ir.add_input ir "b" b;
    let out =
      if signed then Builder.add_signed c a b ~width:5
      else fst (Builder.rca_add c a b Ir.const0)
    in
    Ir.add_output ir "o" (Builder.zero_extend out 5);
    Ir.freeze ir
  in
  match Equiv.check (ir_of true) (ir_of false) with
  | Equiv.Mismatch _ -> ()
  | Equiv.Equivalent _ ->
      Alcotest.fail "signed vs unsigned adders must differ"

let test_equiv_interface_guard () =
  let a = macro_with base_cfg in
  let b =
    macro_with { base_cfg with Macro_rtl.input_prec = Precision.int8 }
  in
  check_bool "guarded" true
    (try
       ignore (Equiv.check a b);
       false
     with Invalid_argument _ -> true)

(* ---------------- SCL persistence ---------------- *)

let test_persist_roundtrip () =
  let scl = Scl.create lib in
  (* populate a few entries *)
  ignore
    (Scl.adder_tree scl
       ~topology:(Adder_tree.Csa { fa_ratio = 0.0; reorder = false })
       ~rows:16);
  ignore (Scl.mulmux scl ~variant:Cell.Tg_nor ~mcr:2);
  ignore (Scl.shift_adder scl ~kind:Shift_adder.Lsb_right ~rows:16 ~serial_bits:4);
  let n = Scl.entries scl in
  check_bool "entries cached" true (n >= 3);
  let path = Filename.temp_file "scl" ".csv" in
  Persist.save scl path;
  let scl2 = Scl.create lib in
  let loaded = Persist.load scl2 path in
  check_int "all entries loaded" n loaded;
  check_int "table sizes match" n (Scl.entries scl2);
  (* loaded entries short-circuit characterization with identical values *)
  let a =
    Scl.adder_tree scl
      ~topology:(Adder_tree.Csa { fa_ratio = 0.0; reorder = false })
      ~rows:16
  in
  let b =
    Scl.adder_tree scl2
      ~topology:(Adder_tree.Csa { fa_ratio = 0.0; reorder = false })
      ~rows:16
  in
  check_bool "identical PPA" true
    (Float.abs (a.Ppa.delay_ps -. b.Ppa.delay_ps) < 1e-3
    && Float.abs (a.Ppa.area_um2 -. b.Ppa.area_um2) < 1e-3);
  Sys.remove path

(* Save -> load must reproduce the characterized table bit for bit: a
   loaded entry stands in for characterization, so a rounded float would
   steer the search differently from the run that saved it. *)
let test_persist_exact () =
  let scl = Scl.create lib in
  ignore
    (Scl.adder_tree scl
       ~topology:(Adder_tree.Csa { fa_ratio = 0.5; reorder = true })
       ~rows:32);
  ignore (Scl.mulmux scl ~variant:Cell.Tg_nor ~mcr:4);
  ignore
    (Scl.shift_adder scl ~kind:Shift_adder.Lsb_right ~rows:32 ~serial_bits:8);
  let path = Filename.temp_file "scl" ".csv" in
  Persist.save scl path;
  let scl2 = Scl.create lib in
  ignore (Persist.load scl2 path);
  Sys.remove path;
  let bits scl =
    List.sort compare
      (List.map
         (fun (k, (v : Ppa.t)) ->
           ( k,
             List.map Int64.bits_of_float
               [ v.Ppa.delay_ps; v.Ppa.area_um2; v.Ppa.energy_fj;
                 v.Ppa.leakage_nw ] ))
         (Scl.bindings scl))
  in
  check_bool "reloaded table is bit-identical" true (bits scl = bits scl2)

let test_persist_bad_format () =
  let path = Filename.temp_file "scl" ".csv" in
  let oc = open_out path in
  output_string oc "key,delay_ps,area_um2,energy_fj,leakage_nw\nnot,a,valid,row\n";
  close_out oc;
  let scl = Scl.create lib in
  check_bool "rejects garbage" true
    (try
       ignore (Persist.load scl path);
       false
     with Persist.Bad_format _ -> true);
  Sys.remove path

let test_persist_torn () =
  (* a valid row before a bad one: the load fails whole, merging nothing,
     and the context reports it as a diagnostic *)
  let path = Filename.temp_file "scl" ".csv" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        "key,delay_ps,area_um2,energy_fj,leakage_nw\n\
         wl/c32,1,2,3,4\n\
         wl/c64,1,2,oops,4\n");
  let scl = Scl.create lib in
  check_bool "rejects the bad row" true
    (try
       ignore (Persist.load scl path);
       false
     with Persist.Bad_format _ -> true);
  check_int "nothing merged" 0 (Scl.entries scl);
  let ctx = Ctx.with_scl_cache path (Ctx.of_parts lib scl) in
  (match Ctx.load_scl ctx with
  | Ok _ -> Alcotest.fail "malformed LUT loaded"
  | Error d ->
      Alcotest.(check string) "ctx diagnostic" "ctx" (Diag.stage d);
      check_bool "one line" false (String.contains (Diag.to_string d) '\n'));
  (* the service leaves the LUT to its context: it never reads the file *)
  ignore (Service.create ctx);
  check_int "still nothing merged" 0 (Scl.entries scl);
  Sys.remove path

(* ---------------- controller waveform ---------------- *)

let test_controller_waveform () =
  (* build the sequencer standalone and decode its full waveform *)
  let schedule =
    {
      Controller.align_lat = 1;
      tree_lat = 1;
      serial_bits = 4;
      post_lat = 2;
      neg_on_last = true;
    }
  in
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let start = Ir.new_net ir in
  Ir.add_input ir "start" [| start |];
  let fsm = Controller.build c ~schedule ~start in
  Ir.add_output ir "load" [| fsm.Controller.load |];
  Ir.add_output ir "sa_en" [| fsm.Controller.sa_en |];
  Ir.add_output ir "sa_clr" [| fsm.Controller.sa_clr |];
  Ir.add_output ir "sa_neg" [| fsm.Controller.sa_neg |];
  Ir.add_output ir "align_en" [| fsm.Controller.align_en |];
  Ir.add_output ir "done" [| fsm.Controller.done_ |];
  let sim = Sim.create (Ir.freeze ir) in
  Sim.set_bus sim "start" 1;
  Sim.step sim;
  Sim.set_bus sim "start" 0;
  (* expected waveform indexed by k (cycles after the start edge):
     align_en at k=0; load at k=1; sa window k=3..6 with clr at 3 and neg
     at 6; done at k=9 = align(1) + load(1) + serial(4) + tree(1) + post(2) *)
  let total = Controller.total schedule in
  check_int "total" 9 total;
  for k = 0 to total + 2 do
    Sim.eval sim;
    let rd name = Sim.read_bus sim name in
    check_int (Printf.sprintf "align_en@%d" k)
      (if k = 0 then 1 else 0) (rd "align_en");
    check_int (Printf.sprintf "load@%d" k) (if k = 1 then 1 else 0) (rd "load");
    check_int (Printf.sprintf "sa_en@%d" k)
      (if k >= 3 && k <= 6 then 1 else 0)
      (rd "sa_en");
    check_int (Printf.sprintf "sa_clr@%d" k) (if k = 3 then 1 else 0) (rd "sa_clr");
    check_int (Printf.sprintf "sa_neg@%d" k) (if k = 6 then 1 else 0) (rd "sa_neg");
    check_int (Printf.sprintf "done@%d" k) (if k = total then 1 else 0) (rd "done");
    Sim.clock sim
  done

let test_controller_restartable () =
  (* a second start after done runs a second identical transaction *)
  let lib2 = lib in
  let cfg =
    { (Macro_rtl.default ~rows:4 ~cols:4 ~mcr:1 ~input_prec:Precision.int4
         ~weight_prec:Precision.int4)
      with Macro_rtl.with_controller = true }
  in
  let m = Macro_rtl.build lib2 cfg in
  let sim = Sim.create m.Macro_rtl.design in
  let weights = [| [| 1; -2; 3; -4 |] |] in
  Oracle.Bench.load_weights m sim ~copy:0 weights;
  let r1 = Oracle.Bench.run_mac_auto m sim ~inputs:[| 1; 2; 3; 4 |] in
  let r2 = Oracle.Bench.run_mac_auto m sim ~inputs:[| -1; -2; -3; -4 |] in
  check_int "first" (1 - 4 + 9 - 16) r1.(0);
  check_int "second" (-1 + 4 - 9 + 16) r2.(0)

(* ---------------- determinism + compile retry ---------------- *)

let test_compile_deterministic () =
  let scl1 = Scl.create lib and scl2 = Scl.create lib in
  let spec =
    { Spec.fig8 with Spec.rows = 16; cols = 16; mac_freq_hz = 600e6 }
  in
  let a = Pipeline.artifact_exn (Pipeline.run (Ctx.of_parts lib scl1) spec) in
  let b = Pipeline.artifact_exn (Pipeline.run (Ctx.of_parts lib scl2) spec) in
  check_bool "same power" true
    (Float.abs (a.Pipeline.metrics.Pipeline.power_w
                -. b.Pipeline.metrics.Pipeline.power_w)
    < 1e-12);
  check_bool "same crit" true
    (Float.abs (a.Pipeline.metrics.Pipeline.crit_ps
                -. b.Pipeline.metrics.Pipeline.crit_ps)
    < 1e-9);
  check_bool "same area" true
    (Float.abs (a.Pipeline.metrics.Pipeline.area_mm2
                -. b.Pipeline.metrics.Pipeline.area_mm2)
    < 1e-12)

let () =
  Alcotest.run "extensions"
    [
      ( "bit-width flexibility",
        [
          Alcotest.test_case "narrow precisions on wide macro" `Quick
            test_narrow_precisions;
          Alcotest.test_case "throughput model" `Quick
            test_narrow_throughput_model;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "same design" `Quick test_equiv_same_design;
          Alcotest.test_case "across tree topologies" `Quick
            test_equiv_across_tree_topologies;
          Alcotest.test_case "detects difference" `Quick
            test_equiv_detects_difference;
          Alcotest.test_case "interface guard" `Quick
            test_equiv_interface_guard;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "roundtrip" `Quick test_persist_roundtrip;
          Alcotest.test_case "roundtrip is bit-exact" `Quick test_persist_exact;
          Alcotest.test_case "bad format" `Quick test_persist_bad_format;
          Alcotest.test_case "bad row merges nothing" `Quick test_persist_torn;
        ] );
      ( "controller",
        [
          Alcotest.test_case "waveform" `Quick test_controller_waveform;
          Alcotest.test_case "restartable" `Quick
            test_controller_restartable;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "deterministic" `Quick
            test_compile_deterministic;
        ] );
    ]

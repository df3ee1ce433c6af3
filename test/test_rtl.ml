(* Tests for the RTL generators: every subcircuit standalone against its
   reference semantics, then whole macros across the configuration space
   verified gate-by-gate against the golden MAC. *)

let lib = Library.n40 ()
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------------- adder trees ---------------- *)

let popcount_harness topology rows =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let leaves = Ir.new_bus ir rows in
  Ir.add_input ir "in" leaves;
  let t =
    Adder_tree.build c lib ~topology ~split:1 ~reg_out:false
      ~retime_final_rca:false ~leaves
  in
  Ir.add_output ir "sum" t.Adder_tree.sum;
  let sim = Sim.create (Ir.freeze ir) in
  fun bits ->
    Sim.set_bus_bits sim "in" bits;
    Sim.eval sim;
    Sim.read_bus sim "sum"

let all_topologies =
  [
    Adder_tree.Rca_tree;
    Adder_tree.Csa { fa_ratio = 0.0; reorder = false };
    Adder_tree.Csa { fa_ratio = 0.0; reorder = true };
    Adder_tree.Csa { fa_ratio = 0.5; reorder = true };
    Adder_tree.Csa { fa_ratio = 1.0; reorder = false };
    Adder_tree.Csa { fa_ratio = 1.0; reorder = true };
  ]

let test_tree_popcount () =
  let rng = Rng.create 1 in
  List.iter
    (fun topology ->
      List.iter
        (fun rows ->
          let run = popcount_harness topology rows in
          (* corners *)
          check_int "all zero" 0 (run (Array.make rows false));
          check_int "all one" rows (run (Array.make rows true));
          check_int "single" 1
            (run (Array.init rows (fun i -> i = rows / 2)));
          (* random *)
          for _ = 1 to 10 do
            let bits = Array.init rows (fun _ -> Rng.bit rng ~p1:0.5 = 1) in
            let expect =
              Array.fold_left (fun a b -> if b then a + 1 else a) 0 bits
            in
            check_int "random popcount" expect (run bits)
          done)
        [ 3; 8; 16; 33; 64 ])
    all_topologies

let test_tree_width () =
  let run = popcount_harness (Adder_tree.Csa { fa_ratio = 0.0; reorder = false }) 20 in
  ignore (run (Array.make 20 true));
  check_int "popcount width holds max" 20 (run (Array.make 20 true))

let test_tree_claims () =
  (* structural claims from the paper, measured with real STA *)
  let scl = Scl.create lib in
  let rows = 64 in
  let get topo = Scl.adder_tree scl ~topology:topo ~rows in
  let d topo = (get topo).Ppa.delay_ps in
  let a topo = (get topo).Ppa.area_um2 in
  let e topo = (get topo).Ppa.energy_fj in
  let rca = Adder_tree.Rca_tree in
  let comp = Adder_tree.Csa { fa_ratio = 0.0; reorder = false } in
  let comp_reord = Adder_tree.Csa { fa_ratio = 0.0; reorder = true } in
  let fa = Adder_tree.Csa { fa_ratio = 1.0; reorder = true } in
  (* compressor CSAs vs the conventional signed-RCA tree *)
  check_bool "CSA much smaller than RCA tree" true (a comp < 0.5 *. a rca);
  check_bool "CSA lower energy than RCA tree" true (e comp < e rca);
  (* at small column heights the compressor tree also wins delay *)
  let d16 topo = (Scl.adder_tree scl ~topology:topo ~rows:16).Ppa.delay_ps in
  check_bool "CSA faster than RCA at h=16" true (d16 comp < d16 rca);
  (* FA substitution: faster at the cost of the compressor's efficiency *)
  check_bool "FA substitution shortens critical path" true (d fa < d comp);
  check_bool "FA-mixed CSA dominates RCA on every axis" true
    (d fa < d rca && a fa < a rca && e fa < e rca);
  check_bool "reordering helps" true (d comp_reord <= d comp)

let test_tree_pipeline_latency () =
  let build ~split ~reg_out ~retime =
    let ir = Ir.create () in
    let c = Builder.ctx_plain ir in
    let leaves = Ir.new_bus ir 16 in
    Ir.add_input ir "in" leaves;
    let t =
      Adder_tree.build c lib
        ~topology:(Adder_tree.Csa { fa_ratio = 0.0; reorder = false })
        ~split ~reg_out ~retime_final_rca:retime ~leaves
    in
    t.Adder_tree.latency
  in
  check_int "comb" 0 (build ~split:1 ~reg_out:false ~retime:false);
  check_int "registered" 1 (build ~split:1 ~reg_out:true ~retime:false);
  check_int "retimed" 1 (build ~split:1 ~reg_out:true ~retime:true);
  check_int "split" 1 (build ~split:2 ~reg_out:false ~retime:false);
  check_int "split+reg" 2 (build ~split:2 ~reg_out:true ~retime:false)

(* ---------------- mulmux ---------------- *)

let test_mulmux_function () =
  List.iter
    (fun (variant, mcr) ->
      let ir = Ir.create () in
      let c = Builder.ctx_plain ir in
      let x = Ir.new_net ir in
      Ir.add_input ir "x" [| x |];
      let ws = Ir.new_bus ir mcr in
      Ir.add_input ir "w" ws;
      let sel_bits = Intmath.ceil_log2 (max mcr 1) in
      let sel = Ir.new_bus ir (max 1 sel_bits) in
      if mcr > 1 then Ir.add_input ir "sel" sel;
      let o =
        Mulmux.build c ~variant ~x ~weights:ws
          ~sel:(if mcr > 1 then Array.sub sel 0 sel_bits else [||])
      in
      Ir.add_output ir "p" [| o |];
      let sim = Sim.create (Ir.freeze ir) in
      for xv = 0 to 1 do
        for wv = 0 to Intmath.pow2 mcr - 1 do
          for sv = 0 to mcr - 1 do
            Sim.set_bus sim "x" xv;
            Sim.set_bus sim "w" wv;
            if mcr > 1 then Sim.set_bus sim "sel" sv;
            Sim.eval sim;
            let expect = xv land ((wv lsr sv) land 1) in
            check_int "product" expect (Sim.read_bus sim "p")
          done
        done
      done)
    [
      (Cell.Tg_nor, 1); (Cell.Tg_nor, 2); (Cell.Tg_nor, 4);
      (Cell.Pass_1t, 2); (Cell.Oai22_fused, 1); (Cell.Oai22_fused, 2);
    ]

let test_mulmux_mcr_guard () =
  check_bool "fused rejects MCR 4" true
    (try
       Mulmux.check_mcr Cell.Oai22_fused 4;
       false
     with Mulmux.Unsupported_mcr _ -> true);
  check_bool "non-power-of-two rejected" true
    (try
       Mulmux.check_mcr Cell.Tg_nor 3;
       false
     with Invalid_argument _ -> true)

(* ---------------- shift adder ---------------- *)

let sa_harness kind ~rows ~serial_bits =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let ts = Intmath.ceil_log2 rows + 1 in
  let sum = Ir.new_bus ir ts in
  Ir.add_input ir "sum" sum;
  let neg = Ir.new_net ir and clr = Ir.new_net ir and en = Ir.new_net ir in
  Ir.add_input ir "neg" [| neg |];
  Ir.add_input ir "clr" [| clr |];
  Ir.add_input ir "en" [| en |];
  let sa = Shift_adder.build ~kind c ~rows ~serial_bits ~sum ~neg ~clr ~en in
  Ir.add_output ir "acc" sa.Shift_adder.acc;
  Sim.create (Ir.freeze ir)

let run_sa sim sums ~kind ~serial_bits =
  (* [sums] is LSB-indexed (golden order); MSB-first variants consume it
     reversed with the sign cycle first, the LSB-first variant in order
     with the sign cycle last *)
  let lsbf = Shift_adder.lsb_first kind in
  Array.iteri
    (fun k _ ->
      let t = if lsbf then k else serial_bits - 1 - k in
      let sign_cycle = t = serial_bits - 1 in
      Sim.set_bus sim "sum" sums.(t);
      Sim.set_bus sim "en" 1;
      Sim.set_bus sim "clr" (if k = 0 then 1 else 0);
      Sim.set_bus sim "neg"
        (if sign_cycle && serial_bits > 1 then 1 else 0);
      Sim.step sim)
    sums;
  Sim.set_bus sim "en" 0;
  Sim.step sim;
  Sim.eval sim;
  Sim.read_bus_signed sim "acc"

let all_sa_kinds =
  [ Shift_adder.Lsb_right; Shift_adder.Ripple; Shift_adder.Carry_save ]

let test_shift_adder_kinds () =
  let rng = Rng.create 17 in
  List.iter
    (fun kind ->
      let rows = 16 and serial_bits = 6 in
      let sim = sa_harness kind ~rows ~serial_bits in
      for _ = 1 to 30 do
        let sums = Array.init serial_bits (fun _ -> Rng.int rng (rows + 1)) in
        let got = run_sa sim sums ~kind ~serial_bits in
        let expect =
          Golden.shift_accumulate ~input_bits:serial_bits sums
        in
        check_int (Shift_adder.kind_name kind) expect got
      done)
    all_sa_kinds

let test_shift_adder_hold () =
  let sim = sa_harness Shift_adder.Ripple ~rows:8 ~serial_bits:4 in
  let v = run_sa sim [| 3; 1; 4; 1 |] ~kind:Shift_adder.Ripple ~serial_bits:4 in
  (* extra disabled cycles with garbage inputs must not move the result *)
  Sim.set_bus sim "sum" 7;
  Sim.set_bus sim "en" 0;
  Sim.step sim;
  Sim.step sim;
  Sim.eval sim;
  check_int "held" v (Sim.read_bus_signed sim "acc")

let test_carry_save_faster () =
  let scl = Scl.create lib in
  let get kind = Scl.shift_adder scl ~kind ~rows:64 ~serial_bits:8 in
  let rip = get Shift_adder.Ripple in
  let cs = get Shift_adder.Carry_save in
  let lr = get Shift_adder.Lsb_right in
  check_bool "carry-save shorter critical path than ripple" true
    (cs.Ppa.delay_ps < rip.Ppa.delay_ps);
  check_bool "carry-save bigger" true (cs.Ppa.area_um2 > rip.Ppa.area_um2);
  (* the conventional right-shift S&A: narrow adder, small and fast *)
  check_bool "lsb-right faster than ripple" true
    (lr.Ppa.delay_ps < rip.Ppa.delay_ps);
  check_bool "lsb-right smallest" true
    (lr.Ppa.area_um2 < rip.Ppa.area_um2 && lr.Ppa.area_um2 < cs.Ppa.area_um2)

(* ---------------- OFU ---------------- *)

let ofu_harness ~wb ~w_sa ~signed_weights ~pipe ~fast =
  let ir = Ir.create () in
  let c = Builder.ctx_plain ir in
  let columns =
    Array.init wb (fun j ->
        let b = Ir.new_bus ir w_sa in
        Ir.add_input ir (Printf.sprintf "a%d" j) b;
        b)
  in
  let result_width = w_sa + wb + 1 in
  let arch = if fast then Builder.Csel 4 else Builder.Rca in
  let b =
    Ofu.build ~arch c ~signed_weights ~result_width
      ~pipe_after_level:(if pipe then Some 1 else None)
      ~columns
  in
  Ir.add_output ir "r" b.Ofu.result;
  (Sim.create (Ir.freeze ir), b.Ofu.latency)

let test_ofu_fusion () =
  let rng = Rng.create 33 in
  List.iter
    (fun (wb, pipe, fast) ->
      let w_sa = 9 in
      let sim, latency = ofu_harness ~wb ~w_sa ~signed_weights:(wb > 1) ~pipe ~fast in
      for _ = 1 to 40 do
        let cols = Array.init wb (fun _ -> Rng.signed rng ~width:w_sa) in
        Array.iteri
          (fun j v -> Sim.set_bus sim (Printf.sprintf "a%d" j) v)
          cols;
        for _ = 1 to latency do
          Sim.step sim
        done;
        Sim.eval sim;
        check_int
          (Printf.sprintf "wb=%d pipe=%b fast=%b" wb pipe fast)
          (Golden.fuse_columns ~weight_bits:wb cols)
          (Sim.read_bus_signed sim "r")
      done)
    [
      (1, false, false); (2, false, false); (4, false, false);
      (8, false, false); (8, true, false); (8, false, true);
      (4, true, true);
    ]

(* ---------------- FP aligner ---------------- *)

let test_fp_align_gate_level () =
  List.iter
    (fun (fmt, rows, pipeline) ->
      let ir = Ir.create () in
      let c = Builder.ctx_plain ir in
      let en = Ir.new_net ir in
      Ir.add_input ir "en" [| en |];
      let packed =
        Array.init rows (fun r ->
            let b = Ir.new_bus ir (Fpfmt.storage_bits fmt) in
            Ir.add_input ir (Printf.sprintf "x%d" r) b;
            b)
      in
      let a = Fp_align.build c fmt ~pipeline ~en ~rows_packed:packed in
      Array.iteri
        (fun r bus -> Ir.add_output ir (Printf.sprintf "a%d" r) bus)
        a.Fp_align.aligned;
      Ir.add_output ir "gexp" a.Fp_align.group_exp;
      let sim = Sim.create (Ir.freeze ir) in
      let rng = Rng.create (rows + pipeline) in
      for _ = 1 to 25 do
        let xs = Array.init rows (fun _ -> Fpfmt.random rng fmt) in
        Array.iteri
          (fun r v -> Sim.set_bus sim (Printf.sprintf "x%d" r) v)
          xs;
        Sim.set_bus sim "en" 1;
        for _ = 1 to max a.Fp_align.latency 0 do
          Sim.step sim
        done;
        Sim.eval sim;
        let expect = Align.align fmt xs in
        check_int "group exponent" expect.Align.group_exp
          (Sim.read_bus sim "gexp");
        Array.iteri
          (fun r v ->
            check_int
              (Printf.sprintf "row %d" r)
              v
              (Sim.read_bus_signed sim (Printf.sprintf "a%d" r)))
          expect.Align.values
      done)
    [
      (Fpfmt.fp4, 4, 0); (Fpfmt.fp8, 8, 0); (Fpfmt.fp8, 8, 2);
      (Fpfmt.bf16, 8, 1); (Fpfmt.bf16, 16, 3); (Fpfmt.fp8, 5, 3);
    ]

(* ---------------- drivers ---------------- *)

let test_fanout_tree_limits () =
  List.iter
    (fun consumers ->
      let ir = Ir.create () in
      let c = Builder.ctx_plain ir in
      let a = Ir.new_net ir in
      Ir.add_input ir "a" [| a |];
      let leaves = Driver.fanout_tree c a ~consumers ~max_fanout:4 in
      check_int "leaf count" consumers (Array.length leaves);
      (* terminate each leaf and check functionality + fanout bound *)
      let outs = Array.map (fun l -> Builder.inv c l) leaves in
      Ir.add_output ir "o" outs;
      let d = Ir.freeze ir in
      for n = 2 to d.Ir.n_nets - 1 do
        check_bool "fanout bounded" true (Ir.fanout_count d n <= 4)
      done;
      let sim = Sim.create d in
      Sim.set_bus sim "a" 1;
      Sim.eval sim;
      check_int "propagates" 0 (Sim.read_bus sim "o" land 1))
    [ 1; 4; 5; 16; 64; 100 ]

let test_weight_update_model () =
  let t64 = Driver.weight_update_ps lib ~rows:64 in
  let t256 = Driver.weight_update_ps lib ~rows:256 in
  check_bool "taller columns update slower" true (t256 > t64)

(* ---------------- whole macros ---------------- *)

let verify cfg = Testbench.verify (Macro_rtl.build lib cfg) ~seed:7 ~batches:4

let base rows cols mcr ip wp =
  Macro_rtl.default ~rows ~cols ~mcr ~input_prec:ip ~weight_prec:wp

let test_macro_precisions () =
  List.iter verify
    [
      base 8 8 1 Precision.int1 Precision.int1;
      base 8 8 1 Precision.int2 Precision.int2;
      base 8 8 1 (Precision.Int 4) (Precision.Int 8);
      base 8 8 1 (Precision.Int 8) (Precision.Int 4);
      base 8 16 1 Precision.fp4 Precision.int4;
      base 8 8 1 Precision.fp8 Precision.int8;
      base 8 8 1 Precision.bf16 Precision.int8;
    ]

let test_macro_dimensions () =
  List.iter verify
    [
      base 4 4 1 Precision.int4 Precision.int4;
      base 32 8 1 Precision.int4 Precision.int4;
      base 8 32 1 Precision.int4 Precision.int4;
      (* non-power-of-two height *)
      base 12 8 1 Precision.int4 Precision.int4;
    ]

let test_macro_mcr () =
  List.iter verify
    [
      base 8 8 2 Precision.int4 Precision.int4;
      base 8 8 4 Precision.int4 Precision.int4;
      { (base 8 8 2 Precision.int4 Precision.int4) with
        Macro_rtl.mul_kind = Cell.Oai22_fused };
      { (base 8 8 2 Precision.int4 Precision.int4) with
        Macro_rtl.mul_kind = Cell.Pass_1t };
    ]

let test_macro_pipeline_knobs () =
  let b = base 8 8 1 Precision.int8 Precision.int8 in
  List.iter verify
    [
      { b with Macro_rtl.reg_after_tree = false };
      { b with Macro_rtl.reg_sa_to_ofu = false };
      { b with Macro_rtl.reg_after_tree = false; reg_sa_to_ofu = false;
        reg_output = false };
      { b with Macro_rtl.retime_final_rca = true };
      { b with Macro_rtl.tree_split = 2 };
      { b with Macro_rtl.tree_split = 4; retime_final_rca = true };
      { b with Macro_rtl.ofu_retime = true };
      { b with Macro_rtl.ofu_extra_pipe = true };
      { b with Macro_rtl.ofu_retime = true; ofu_extra_pipe = true };
      { b with Macro_rtl.ofu_fast_adder = true };
      { b with Macro_rtl.sa_kind = Shift_adder.Carry_save };
      { b with Macro_rtl.sa_kind = Shift_adder.Carry_save;
        ofu_fast_adder = true; ofu_retime = true };
      { b with Macro_rtl.tree = Adder_tree.Rca_tree };
      { b with Macro_rtl.cell_kind = Cell.S8t };
      { b with Macro_rtl.cell_kind = Cell.S12t };
    ]

let test_macro_fp_knobs () =
  let b = base 8 16 1 Precision.fp8 Precision.int8 in
  List.iter verify
    [
      { b with Macro_rtl.align_pipeline = 0 };
      { b with Macro_rtl.align_pipeline = 1 };
      { b with Macro_rtl.align_pipeline = 3 };
      { b with Macro_rtl.ofu_retime = true; tree_split = 2 };
    ]

let test_macro_copies_independent () =
  (* weights in copy 0 and copy 1 are independent and selectable *)
  let cfg = base 4 4 2 Precision.int4 Precision.int4 in
  let m = Macro_rtl.build lib cfg in
  let sim = Sim.create m.Macro_rtl.design in
  let w0 = [| [| 1; 2; 3; 4 |] |] and w1 = [| [| -1; -2; -3; -4 |] |] in
  Oracle.Bench.load_weights m sim ~copy:0 w0;
  Oracle.Bench.load_weights m sim ~copy:1 w1;
  let inputs = [| 1; 1; 1; 1 |] in
  Sim.set_bus sim "copy_sel" 0;
  let r0 = Oracle.Bench.run_mac m sim ~inputs in
  Sim.set_bus sim "copy_sel" 1;
  let r1 = Oracle.Bench.run_mac m sim ~inputs in
  check_int "copy 0" 10 r0.(0);
  check_int "copy 1" (-10) r1.(0)

let test_macro_mac_write_concurrency () =
  (* the MCR=2 macro updates the idle copy mid-MAC without disturbing the
     computation — the Table II "MAC-Write" feature *)
  let cfg = base 8 8 2 Precision.int8 Precision.int8 in
  let m = Macro_rtl.build lib cfg in
  let sim = Sim.create m.Macro_rtl.design in
  let rng = Rng.create 3 in
  let weights = Testbench.random_weights rng m ~density:1.0 in
  Oracle.Bench.load_weights m sim ~copy:0 weights;
  Sim.set_bus sim "copy_sel" 0;
  Oracle.Bench.present_inputs m sim (Array.init 8 (fun i -> i - 4));
  Oracle.Bench.set_controls m sim ~load:true ~sa_en:false ~sa_clr:false
    ~sa_neg:false;
  Sim.step sim;
  (* serial cycles, writing copy 1 in the middle *)
  let db = m.Macro_rtl.db and tl = m.Macro_rtl.tree_lat in
  let last = tl + db - 1 in
  for k = 0 to last do
    if k = 2 then
      Oracle.Bench.load_weights m sim ~copy:1
        (Testbench.random_weights rng m ~density:1.0);
    Oracle.Bench.set_controls m sim ~load:false ~sa_en:(k >= tl)
      ~sa_clr:(k = tl)
      ~sa_neg:(if m.Macro_rtl.neg_on_last then k = last else k = tl);
    Sim.step sim
  done;
  Oracle.Bench.set_controls m sim ~load:false ~sa_en:false ~sa_clr:false
    ~sa_neg:false;
  for _ = 1 to m.Macro_rtl.post_lat do
    Sim.step sim
  done;
  Sim.eval sim;
  let got = Sim.read_bus_signed sim "result0" in
  let expect =
    Golden.dot ~weights:weights.(0) ~inputs:(Array.init 8 (fun i -> i - 4))
  in
  check_int "MAC unaffected by concurrent write" expect got

let test_controller_macro () =
  let cfg =
    { (base 8 8 1 Precision.int8 Precision.int8) with
      Macro_rtl.with_controller = true }
  in
  let m = Macro_rtl.build lib cfg in
  let sim = Sim.create m.Macro_rtl.design in
  let rng = Rng.create 5 in
  let weights = Testbench.random_weights rng m ~density:1.0 in
  Oracle.Bench.load_weights m sim ~copy:0 weights;
  for _ = 1 to 5 do
    let inputs = Array.init 8 (fun _ -> Rng.signed rng ~width:8) in
    let r = Oracle.Bench.run_mac_auto m sim ~inputs in
    check_int "controller-sequenced MAC"
      (Golden.dot ~weights:weights.(0) ~inputs)
      r.(0)
  done

(* A controller macro has no schedule pins: every path into the bench's
   one MAC schedule — sign-off on either engine, the single MAC and the
   power stream — refuses it with a structured Bench_error. *)
let test_controller_macro_bench_error () =
  List.iter
    (fun input_prec ->
      let m =
        Macro_rtl.build lib
          { (base 8 8 1 input_prec Precision.int8) with
            Macro_rtl.with_controller = true }
      in
      let expect_bench_error name f =
        match f () with
        | () -> Alcotest.failf "%s: drove a controller macro" name
        | exception Testbench.Bench_error { op; _ } ->
            Alcotest.(check string) (name ^ ": op") "set_controls" op
      in
      expect_bench_error "verify scalar" (fun () ->
          let module B = Testbench.Sliced (Oracle.Scalar) in
          B.verify m ~seed:1 ~batches:1);
      expect_bench_error "verify packed" (fun () ->
          Testbench.verify ~engine:`Packed m ~seed:1 ~batches:1);
      let sim = Sim.create m.Macro_rtl.design in
      expect_bench_error "run_mac" (fun () ->
          ignore (Oracle.Bench.run_mac m sim ~inputs:(Array.make 8 0)));
      expect_bench_error "power_stream" (fun () ->
          ignore
            (Testbench.power_stream m ~input_density:0.5 ~weight_density:0.5
               ~macs:1)))
    [ Precision.int8; Precision.fp8 ]

let test_macro_latency_metadata () =
  let m = Macro_rtl.build lib (base 8 8 1 Precision.int8 Precision.int8) in
  check_int "serial cycles" 8 (Macro_rtl.serial_cycles m);
  check_int "latency formula"
    (m.Macro_rtl.align_lat + 1 + 8 + m.Macro_rtl.tree_lat
   + m.Macro_rtl.post_lat)
    (Macro_rtl.mac_latency m)

(* The packed slice, recording what sign-off asks of it: the lane count
   of every simulator created, every weight copy a lane selects, and the
   steps run. *)
module Rec = struct
  include Slice.Packed

  let created = ref []
  let selected = ref []
  let steps = ref 0

  let create ?n_lanes d =
    let t = Slice.Packed.create ?n_lanes d in
    created := lanes_of t :: !created;
    t

  let set_bus t name v =
    if name = "copy_sel" then selected := v :: !selected;
    Slice.Packed.set_bus t name v

  let set_bus_lanes t name vs =
    if name = "copy_sel" then selected := Array.to_list vs @ !selected;
    Slice.Packed.set_bus_lanes t name vs

  let step t =
    incr steps;
    Slice.Packed.step t
end

(* Sign-off checks every weight copy, and packs all copies' MACs into
   the fewest passes: ceil (batches * mcr / max_lanes), each pass one
   MAC schedule of [mac_latency] steps over a fresh simulator. *)
let test_signoff_covers_copies_in_fewest_passes () =
  let m = Macro_rtl.build lib (base 16 16 4 Precision.int8 Precision.int8) in
  let module B = Testbench.Sliced (Rec) in
  List.iter
    (fun (batches, passes) ->
      Rec.created := [];
      Rec.selected := [];
      Rec.steps := 0;
      B.verify m ~seed:5 ~batches;
      let jobs = batches * 4 in
      let name s = Printf.sprintf "batches %d: %s" batches s in
      Alcotest.(check (list int))
        (name "copies selected") [ 0; 1; 2; 3 ]
        (List.sort_uniq compare !Rec.selected);
      check_int (name "passes") passes
        (!Rec.steps / Macro_rtl.mac_latency m);
      check_int (name "steps") (passes * Macro_rtl.mac_latency m) !Rec.steps;
      check_int (name "simulators") passes (List.length !Rec.created);
      check_int (name "lanes") jobs (List.fold_left ( + ) 0 !Rec.created))
    [ (3, (12 + Rec.max_lanes - 1) / Rec.max_lanes); (20, 2) ]

(* The packed slice with a lane bug: any run wider than one lane reads
   every lane's word 0 one too high. *)
module Liar = struct
  include Slice.Packed

  let name = "liar"

  let read_bus_signed_lane t bus l =
    Slice.Packed.read_bus_signed_lane t bus l
    + if lanes_of t > 1 && bus = "result0" then 1 else 0
end

(* A divergence only the wide run shows does not reproduce on the
   checker's 1-lane re-run: both job builders report the wide failure
   with the engine's marker instead of hiding it. *)
let test_checker_marks_engine_only_divergence () =
  let m = Macro_rtl.build lib (base 16 16 1 Precision.int8 Precision.int8) in
  let module B = Testbench.Sliced (Liar) in
  (match B.verify m ~seed:5 ~batches:2 with
  | () -> Alcotest.fail "sign-off missed the lane bug"
  | exception Testbench.Mismatch { word; expected; got; detail } ->
      check_int "word" 0 word;
      check_int "got" (expected + 1) got;
      Alcotest.(check string) "detail" "word result (liar-only)" detail);
  let module D = Diffcheck.Check (Liar) in
  match (D.check_macro ~seed:5 ~random_batches:1 m).Diffcheck.failure with
  | None -> Alcotest.fail "diffcheck missed the lane bug"
  | Some f ->
      Alcotest.(check string) "set name"
        "w=-1(all-bits),x=-1(all-bits) (liar-only)"
        f.Diffcheck.set_name

(* The packed slice with a copy-select leak: a lane reading weight copy
   1 sees copy 1 ORed with copy 0, as if copy 0's select line were stuck
   active. The stored bits of both copies are mirrored here, so the leak
   does not depend on the order the copies are written in. *)
module Leak = struct
  include Slice.Packed

  let stored = Hashtbl.create 64

  let create ?n_lanes d =
    Hashtbl.reset stored;
    Slice.Packed.create ?n_lanes d

  let set_weight_lanes t ~row ~col ~copy bits =
    Hashtbl.replace stored (row, col, copy) (Array.copy bits);
    Slice.Packed.set_weight_lanes t ~row ~col ~copy bits;
    let get c =
      match Hashtbl.find_opt stored (row, col, c) with
      | Some b -> b
      | None -> Array.make (Array.length bits) false
    in
    Slice.Packed.set_weight_lanes t ~row ~col ~copy:1
      (Array.map2 ( || ) (get 0) (get 1))
end

(* Every lane holds real weights in every copy the checker uses, so a
   copy-select leak reads as a wrong sum in both job builders, and the
   1-lane reproducer confirms it rather than blaming the engine. *)
let test_checker_catches_copy_select_leak () =
  let m = Macro_rtl.build lib (base 16 16 2 Precision.int8 Precision.int8) in
  Testbench.verify m ~seed:5 ~batches:2;
  let module B = Testbench.Sliced (Leak) in
  (match B.verify m ~seed:5 ~batches:2 with
  | () -> Alcotest.fail "sign-off missed the copy-select leak"
  | exception Testbench.Mismatch { detail; _ } ->
      Alcotest.(check string) "confirmed by the reproducer" "word result"
        detail);
  let module D = Diffcheck.Check (Leak) in
  match (D.check_macro ~seed:5 ~random_batches:1 m).Diffcheck.failure with
  | None -> Alcotest.fail "diffcheck missed the copy-select leak"
  | Some f ->
      check_bool "fails on copy 1" true
        (String.ends_with ~suffix:"@copy1" f.Diffcheck.set_name)

let qtest_macro_random_configs =
  (* randomized configuration fuzzing: any legal config must verify *)
  let gen =
    QCheck.Gen.(
      let* rows = oneofl [ 4; 8; 16 ] in
      let* cols = oneofl [ 4; 8 ] in
      let* mcr = oneofl [ 1; 2 ] in
      let* ip = oneofl [ Precision.int2; Precision.int4; Precision.int8 ] in
      let* wp = oneofl [ Precision.int2; Precision.int4; Precision.int8 ] in
      let* fa_ratio = oneofl [ 0.0; 0.5; 1.0 ] in
      let* reorder = bool in
      let* sa =
        oneofl
          [ Shift_adder.Lsb_right; Shift_adder.Ripple; Shift_adder.Carry_save ]
      in
      let* rat = bool in
      let* rso = bool in
      let* ort = bool in
      let* oep = bool in
      let* ofa = bool in
      let* rfr = bool in
      return
        {
          (Macro_rtl.default ~rows ~cols ~mcr ~input_prec:ip ~weight_prec:wp)
          with
          Macro_rtl.tree = Adder_tree.Csa { fa_ratio; reorder };
          sa_kind = sa;
          reg_after_tree = rat;
          reg_sa_to_ofu = rso;
          ofu_retime = ort && rso;
          ofu_extra_pipe = oep;
          ofu_fast_adder = ofa;
          retime_final_rca = rfr;
        })
  in
  QCheck.Test.make ~name:"random macro configs verify" ~count:25
    (QCheck.make gen) (fun cfg ->
      if cfg.Macro_rtl.cols mod Precision.datapath_bits cfg.Macro_rtl.weight_prec <> 0
      then true
      else begin
        Testbench.verify (Macro_rtl.build lib cfg) ~seed:1 ~batches:2;
        true
      end)


(* ---------------- netlist snapshot ---------------- *)

(* One digest per macro configuration of the instance columns (kind,
   drive, pins), [n_nets], every instance's tag (its label, its pipeline
   register or subcircuit name, or its weight address), the interned tag
   table in order, and the named buses in declaration order.
   test/snapshots/netlist.snap pins them, so any rewrite of netlist
   construction must reproduce every configuration byte for byte. Each
   line starts with the configuration's {!Eval_cache.config_key}, from
   which the check rebuilds it.

   The configurations: every one {!Searcher.search} visits on the eight
   paper-scale specs (the benchmark's paper_macros set) at the compile
   retry boosts x1.0, x1.12 and x1.2544; Fig. 8's exploration lattice;
   Specgen seed 1's first 60 initial configurations, each also with one
   structural toggle; and a few arrays whose column count is not a
   multiple of 16, where the row fanout trees group columns unevenly.
   Set SYNDCIM_NETLIST_SNAP_OUT=<file> to re-run the searches and write
   the rendered text there. *)

let paper_specs =
  let corner ~rows ~cols ~mcr ~iprec ~wprec ~mhz preference =
    {
      Spec.rows;
      cols;
      mcr;
      input_prec = iprec;
      weight_prec = wprec;
      mac_freq_hz = mhz *. 1e6;
      weight_update_freq_hz = mhz *. 1e6;
      vdd = 0.9;
      preference;
    }
  in
  let open Precision in
  [
    Spec.fig8;
    Table2.chip_spec;
    corner ~rows:64 ~cols:64 ~mcr:1 ~iprec:int4 ~wprec:int4 ~mhz:1000.0
      Spec.Prefer_performance;
    corner ~rows:64 ~cols:64 ~mcr:2 ~iprec:fp8 ~wprec:int8 ~mhz:600.0
      Spec.Prefer_area;
    corner ~rows:64 ~cols:128 ~mcr:1 ~iprec:int8 ~wprec:int8 ~mhz:800.0
      Spec.Prefer_performance;
    corner ~rows:128 ~cols:64 ~mcr:2 ~iprec:int4 ~wprec:int8 ~mhz:600.0
      Spec.Prefer_power;
    corner ~rows:128 ~cols:128 ~mcr:1 ~iprec:int4 ~wprec:int4 ~mhz:600.0
      Spec.Prefer_performance;
    corner ~rows:64 ~cols:64 ~mcr:1 ~iprec:fp8 ~wprec:int4 ~mhz:1000.0
      Spec.Balanced;
  ]

let searched_configs () =
  let scl = Scl.create lib in
  List.concat_map
    (fun (spec : Spec.t) ->
      List.concat_map
        (fun boost ->
          let r =
            Searcher.search lib scl
              { spec with Spec.mac_freq_hz = spec.Spec.mac_freq_hz *. boost }
          in
          List.map (fun p -> p.Design_point.cfg) r.Searcher.visited)
        [ 1.0; 1.12; 1.12 *. 1.12 ])
    paper_specs

(* The toggles that change a block's shape: split trees, OFU retiming
   and pipelining, the S&A-to-OFU register, the S&A kinds, the 1T
   multiplier and the embedded controller. *)
let toggles =
  [|
    (fun (c : Macro_rtl.config) ->
      { c with Macro_rtl.tree_split = 2 });
    (fun c ->
      { c with Macro_rtl.tree_split = (if c.Macro_rtl.rows mod 4 = 0 then 4 else 2) });
    (fun c -> { c with Macro_rtl.ofu_retime = true });
    (fun c -> { c with Macro_rtl.ofu_extra_pipe = true });
    (fun c -> { c with Macro_rtl.reg_sa_to_ofu = false });
    (fun c -> { c with Macro_rtl.sa_kind = Shift_adder.Carry_save });
    (fun c -> { c with Macro_rtl.sa_kind = Shift_adder.Ripple });
    (fun c -> { c with Macro_rtl.mul_kind = Cell.Pass_1t });
    (fun c -> { c with Macro_rtl.with_controller = true });
  |]

(* Configurations that cost no search: recomputed by the check, which
   fails if the snapshot lacks one. *)
let fixed_configs () =
  let specgen =
    List.concat
      (List.mapi
         (fun i s ->
           let c = Spec.initial_config s in
           [ c; toggles.(i mod Array.length toggles) c ])
         (Specgen.generate ~seed:1 ~count:60))
  in
  let uneven =
    let open Precision in
    List.map
      (fun (rows, cols, mcr, ip, wp) ->
        Macro_rtl.default ~rows ~cols ~mcr ~input_prec:ip ~weight_prec:wp)
      [
        (32, 40, 4, int8, int8);
        (16, 24, 2, int4, int4);
        (64, 72, 1, fp8, int8);
        (8, 40, 4, int2, int4);
      ]
  in
  Searcher.exploration_lattice Spec.fig8 @ specgen @ uneven

let all_precisions =
  Precision.[ int1; int2; int4; int8; fp4; fp8; bf16 ]

(* Inverse of {!Eval_cache.config_key}. *)
let parse_config key : Macro_rtl.config =
  let field prefix s =
    let n = String.length prefix in
    if String.length s < n || String.sub s 0 n <> prefix then
      failwith (Printf.sprintf "netlist.snap: %S lacks %s" key prefix);
    String.sub s n (String.length s - n)
  in
  let by_name what names v =
    match List.find_opt (fun (n, _) -> n = v) names with
    | Some (_, x) -> x
    | None -> failwith (Printf.sprintf "netlist.snap: unknown %s %S" what v)
  in
  let prec = by_name "precision" (List.map (fun p -> (Precision.name p, p)) all_precisions) in
  let kind = by_name "cell" (List.map (fun k -> (Cell.kind_to_string k, k)) Cell.all_kinds) in
  match String.split_on_char '|' key with
  | [ dims; ip; wp; cell; mul; tree; sa; split; rt; rca; rs; ort; op; ofa;
      ap; ro; wc ] ->
      let rows, cols, mcr =
        Scanf.sscanf dims "%dx%dx%d%!" (fun r c m -> (r, c, m))
      in
      let b prefix s = bool_of_string (field prefix s) in
      {
        Macro_rtl.rows;
        cols;
        mcr;
        input_prec = prec (field "i" ip);
        weight_prec = prec (field "w" wp);
        cell_kind =
          (match kind (field "cell" cell) with
          | Cell.Sram k -> k
          | _ -> failwith "netlist.snap: not a bit cell");
        mul_kind =
          (match kind (field "mul" mul) with
          | Cell.Mul k -> k
          | _ -> failwith "netlist.snap: not a multiplier");
        tree =
          (match String.split_on_char ':' (field "tree" tree) with
          | [ "rca" ] -> Adder_tree.Rca_tree
          | [ "csa"; f; r ] ->
              Adder_tree.Csa
                { fa_ratio = float_of_string f; reorder = bool_of_string r }
          | _ -> failwith "netlist.snap: bad tree");
        sa_kind =
          by_name "S&A"
            (List.map
               (fun k -> (Shift_adder.kind_name k, k))
               Shift_adder.[ Lsb_right; Ripple; Carry_save ])
            (field "sa" sa);
        tree_split = int_of_string (field "split" split);
        reg_after_tree = b "rt" rt;
        retime_final_rca = b "rca" rca;
        reg_sa_to_ofu = b "rs" rs;
        ofu_retime = b "or" ort;
        ofu_extra_pipe = b "op" op;
        ofu_fast_adder = b "of" ofa;
        align_pipeline = int_of_string (field "ap" ap);
        reg_output = b "ro" ro;
        with_controller = b "wc" wc;
      }
  | _ -> failwith (Printf.sprintf "netlist.snap: bad configuration %S" key)

let netlist_digest (d : Ir.design) =
  let b = Buffer.create (Ir.n_insts d * 24) in
  let int v = Buffer.add_int64_le b (Int64.of_int v) in
  let n = Ir.n_insts d in
  int n;
  int d.Ir.n_nets;
  Buffer.add_bytes b d.Ir.kinds;
  Buffer.add_bytes b d.Ir.drives;
  Array.iter int d.Ir.pin_start;
  Array.iter int d.Ir.pins;
  for i = 0 to n - 1 do
    if Ir.is_weight d i then begin
      int (-1);
      int (Ir.weight_row d i);
      int (Ir.weight_col d i);
      int (Ir.weight_copy d i)
    end
    else int d.Ir.tags.(i)
  done;
  Array.iter
    (fun tag ->
      Buffer.add_string b
        (match tag with
        | Ir.Plain -> "plain"
        | Ir.Weight_bit { row; col; copy } ->
            Printf.sprintf "w%d.%d.%d" row col copy
        | Ir.Pipeline_reg s -> "reg:" ^ s
        | Ir.Subcircuit s -> "sub:" ^ s);
      Buffer.add_char b '\n')
    d.Ir.tag_table;
  List.iter
    (fun (dir, buses) ->
      List.iter
        (fun (name, bus) ->
          Printf.bprintf b "%s %s %d\n" dir name (Array.length bus);
          Array.iter int bus)
        buses)
    [ ("in", Ir.inputs d.Ir.src); ("out", Ir.outputs d.Ir.src) ];
  Digest.to_hex (Digest.string (Buffer.contents b))

let snap_line key =
  let d = (Macro_rtl.build lib (parse_config key)).Macro_rtl.design in
  Printf.sprintf "%s | insts %d nets %d | %s" key (Ir.n_insts d) d.Ir.n_nets
    (netlist_digest d)

let snap_header =
  "# SynDCIM netlist digests: config key | instances, nets | md5 of \
   columns, tags, buses"

(* Configuration keys in first-seen order, without repeats. *)
let unique_keys cfgs =
  let seen = Hashtbl.create 256 in
  List.filter_map
    (fun c ->
      let k = Eval_cache.config_key c in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some k
      end)
    cfgs

let test_netlist_snapshot () =
  match Sys.getenv_opt "SYNDCIM_NETLIST_SNAP_OUT" with
  | Some path ->
      let keys = unique_keys (searched_configs () @ fixed_configs ()) in
      Snapshot.save path
        (String.concat "\n" (snap_header :: List.map snap_line keys) ^ "\n")
  | None ->
      let expected =
        Snapshot.load (Snapshot_dir.path "netlist.snap")
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "" && l.[0] <> '#')
      in
      (* a configuration key holds no space *)
      let key l = String.sub l 0 (String.index l ' ') in
      let keys = List.map key expected in
      List.iter
        (fun k ->
          check_bool (Printf.sprintf "netlist.snap has %s" k) true
            (List.mem k keys))
        (unique_keys (fixed_configs ()));
      List.iter2
        (fun e k -> Alcotest.(check string) "netlist digest" e (snap_line k))
        expected keys

let () =
  Alcotest.run "rtl"
    [
      ( "adder_tree",
        [
          Alcotest.test_case "popcount all topologies" `Quick
            test_tree_popcount;
          Alcotest.test_case "width" `Quick test_tree_width;
          Alcotest.test_case "paper claims" `Slow test_tree_claims;
          Alcotest.test_case "pipeline latency" `Quick
            test_tree_pipeline_latency;
        ] );
      ( "mulmux",
        [
          Alcotest.test_case "function" `Quick test_mulmux_function;
          Alcotest.test_case "MCR guard" `Quick test_mulmux_mcr_guard;
        ] );
      ( "shift_adder",
        [
          Alcotest.test_case "both kinds" `Quick test_shift_adder_kinds;
          Alcotest.test_case "hold" `Quick test_shift_adder_hold;
          Alcotest.test_case "carry-save faster" `Slow
            test_carry_save_faster;
        ] );
      ("ofu", [ Alcotest.test_case "fusion" `Quick test_ofu_fusion ]);
      ( "fp_align",
        [ Alcotest.test_case "gate level" `Quick test_fp_align_gate_level ]
      );
      ( "driver",
        [
          Alcotest.test_case "fanout tree" `Quick test_fanout_tree_limits;
          Alcotest.test_case "weight update" `Quick test_weight_update_model;
        ] );
      ( "netlist snapshot",
        [
          Alcotest.test_case "matches committed netlist.snap" `Quick
            test_netlist_snapshot;
        ] );
      ( "macro",
        [
          Alcotest.test_case "precisions" `Quick test_macro_precisions;
          Alcotest.test_case "dimensions" `Quick test_macro_dimensions;
          Alcotest.test_case "MCR variants" `Quick test_macro_mcr;
          Alcotest.test_case "pipeline knobs" `Quick
            test_macro_pipeline_knobs;
          Alcotest.test_case "FP knobs" `Quick test_macro_fp_knobs;
          Alcotest.test_case "copies independent" `Quick
            test_macro_copies_independent;
          Alcotest.test_case "MAC-write concurrency" `Quick
            test_macro_mac_write_concurrency;
          Alcotest.test_case "controller" `Quick test_controller_macro;
          Alcotest.test_case "controller macro: bench refuses" `Quick
            test_controller_macro_bench_error;
          Alcotest.test_case "latency metadata" `Quick
            test_macro_latency_metadata;
          Alcotest.test_case "sign-off: every copy, fewest passes" `Quick
            test_signoff_covers_copies_in_fewest_passes;
          Alcotest.test_case "checker: engine-only divergence marked" `Quick
            test_checker_marks_engine_only_divergence;
          Alcotest.test_case "checker: copy-select leak caught" `Quick
            test_checker_catches_copy_select_leak;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qtest_macro_random_configs ] );
    ]

(* Tests for the cell library: logic functions, PPA model coherence,
   characterization tables and the Liberty/LEF writers. *)

let lib = Library.n40 ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- logic functions ---------------- *)

let eval1 k ins = (Cell.eval k ins).(0)

let test_basic_gates () =
  let t = true and f = false in
  check_bool "inv" t (eval1 Cell.Inv [| f |]);
  check_bool "buf" t (eval1 Cell.Buf [| t |]);
  check_bool "nand" f (eval1 Cell.Nand2 [| t; t |]);
  check_bool "nor" t (eval1 Cell.Nor2 [| f; f |]);
  check_bool "and" t (eval1 Cell.And2 [| t; t |]);
  check_bool "or" t (eval1 Cell.Or2 [| f; t |]);
  check_bool "xor" t (eval1 Cell.Xor2 [| f; t |]);
  check_bool "xnor" t (eval1 Cell.Xnor2 [| t; t |])

let test_mux_gates () =
  List.iter
    (fun k ->
      check_bool "sel=0 -> a" true (eval1 k [| true; false; false |]);
      check_bool "sel=1 -> b" true (eval1 k [| false; true; true |]))
    [ Cell.Mux2; Cell.Tgmux2; Cell.Ptmux2 ]

let test_aoi_oai () =
  check_bool "aoi22" false (eval1 Cell.Aoi22 [| true; true; false; false |]);
  check_bool "oai22" false (eval1 Cell.Oai22 [| true; false; false; true |]);
  check_bool "oai22 zero" true
    (eval1 Cell.Oai22 [| false; false; true; true |])

(* exhaustive arithmetic truth tables *)
let bits_of n width = Array.init width (fun i -> (n lsr i) land 1 = 1)
let int_of_bool b = if b then 1 else 0

let test_ha_exhaustive () =
  for n = 0 to 3 do
    let ins = bits_of n 2 in
    let o = Cell.eval Cell.Ha ins in
    let expect = int_of_bool ins.(0) + int_of_bool ins.(1) in
    check_int "ha sum" expect
      (int_of_bool o.(0) + (2 * int_of_bool o.(1)))
  done

let test_fa_exhaustive () =
  for n = 0 to 7 do
    let ins = bits_of n 3 in
    let o = Cell.eval Cell.Fa ins in
    let expect = Array.fold_left (fun a b -> a + int_of_bool b) 0 ins in
    check_int "fa sum" expect
      (int_of_bool o.(0) + (2 * int_of_bool o.(1)))
  done

let test_comp42_exhaustive () =
  (* sum + 2*(carry + cout) must equal the number of set inputs *)
  for n = 0 to 31 do
    let ins = bits_of n 5 in
    let o = Cell.eval Cell.Comp42 ins in
    let expect = Array.fold_left (fun a b -> a + int_of_bool b) 0 ins in
    check_int "comp42 value" expect
      (int_of_bool o.(0) + (2 * (int_of_bool o.(1) + int_of_bool o.(2))))
  done

let test_mul_cells () =
  check_bool "tgnor mul" true (eval1 (Cell.Mul Cell.Tg_nor) [| true; true |]);
  check_bool "pass1t mul" false
    (eval1 (Cell.Mul Cell.Pass_1t) [| true; false |]);
  (* fused: x & (sel ? w1 : w0) *)
  check_bool "oai22f sel0" true
    (eval1 (Cell.Mul Cell.Oai22_fused) [| true; true; false; false |]);
  check_bool "oai22f sel1" false
    (eval1 (Cell.Mul Cell.Oai22_fused) [| true; true; false; true |])

let test_eval_rejects_sequential () =
  Alcotest.check_raises "dff eval"
    (Invalid_argument "Cell.eval: sequential/storage cell") (fun () ->
      ignore (Cell.eval Cell.Dff [| true |]))

let test_arity_tables () =
  List.iter
    (fun k ->
      check_bool "inputs >= 0" true (Cell.n_inputs k >= 0);
      check_bool "outputs >= 1" true (Cell.n_outputs k >= 1))
    Cell.all_kinds;
  check_int "comp42 inputs" 5 (Cell.n_inputs Cell.Comp42);
  check_int "comp42 outputs" 3 (Cell.n_outputs Cell.Comp42);
  check_int "sram inputs" 0 (Cell.n_inputs (Cell.Sram Cell.S6t))

(* ---------------- PPA model coherence ---------------- *)

let p k = Library.params lib k Cell.X1

let test_fo4_calibration () =
  (* X1 inverter FO4 = intrinsic + res * 4 * own input cap = 20 ps *)
  let inv = p Cell.Inv in
  let fo4 =
    inv.Library.intrinsic_ps.(0)
    +. (inv.Library.drive_res_ps_per_ff *. 4.0 *. inv.Library.input_cap_ff)
  in
  Alcotest.(check (float 0.5)) "FO4 = 20ps" 20.0 fo4

let test_paper_cell_claims () =
  (* compressor: cheaper than two FAs in area/energy, slower sum *)
  let fa = p Cell.Fa and c42 = p Cell.Comp42 in
  check_bool "comp42 smaller than 2 FA" true
    (c42.Library.area_um2 < 2.0 *. fa.Library.area_um2);
  check_bool "comp42 lower energy than 2 FA" true
    (c42.Library.energy_fj < 2.0 *. fa.Library.energy_fj);
  check_bool "comp42 sum slower than FA sum" true
    (c42.Library.intrinsic_ps.(0) > fa.Library.intrinsic_ps.(0));
  (* carry outputs faster than sums (the reordering opportunity) *)
  check_bool "fa carry faster" true
    (fa.Library.intrinsic_ps.(1) < fa.Library.intrinsic_ps.(0));
  check_bool "comp42 carries faster" true
    (c42.Library.intrinsic_ps.(1) < c42.Library.intrinsic_ps.(0)
    && c42.Library.intrinsic_ps.(2) < c42.Library.intrinsic_ps.(0));
  (* 1T pass mux: smallest but slow and leaky (AutoDCIM's tradeoff) *)
  let tg = p (Cell.Mul Cell.Tg_nor) and pt = p (Cell.Mul Cell.Pass_1t) in
  check_bool "pass1t smaller" true (pt.Library.area_um2 < tg.Library.area_um2);
  check_bool "pass1t slower" true
    (pt.Library.intrinsic_ps.(0) > tg.Library.intrinsic_ps.(0));
  check_bool "pass1t leakier" true
    (pt.Library.leakage_nw > tg.Library.leakage_nw);
  (* memory cells: 6T < 8T < 12T in area *)
  let a k = (p (Cell.Sram k)).Library.area_um2 in
  check_bool "cell areas ordered" true
    (a Cell.S6t < a Cell.S8t && a Cell.S8t < a Cell.S12t)

let test_drive_scaling () =
  List.iter
    (fun k ->
      let x1 = Library.params lib k Cell.X1 in
      let x2 = Library.params lib k Cell.X2 in
      let x4 = Library.params lib k Cell.X4 in
      check_bool "res decreases" true
        (x4.Library.drive_res_ps_per_ff < x2.Library.drive_res_ps_per_ff
        && x2.Library.drive_res_ps_per_ff < x1.Library.drive_res_ps_per_ff);
      check_bool "area increases" true
        (x4.Library.area_um2 > x2.Library.area_um2
        && x2.Library.area_um2 > x1.Library.area_um2))
    [ Cell.Inv; Cell.Fa; Cell.Dff; Cell.Comp42 ]

let test_kind_index_dense () =
  (* Cell.kind_index maps all_kinds one-to-one onto 0 .. n_kinds - 1, in
     list order; drive_index likewise for all_drives *)
  check_int "kind count" Cell.n_kinds (List.length Cell.all_kinds);
  List.iteri
    (fun i k -> check_int (Cell.kind_to_string k) i (Cell.kind_index k))
    Cell.all_kinds;
  check_int "drive count" Cell.n_drives (List.length Cell.all_drives);
  List.iteri
    (fun i d -> check_int (Cell.drive_to_string d) i (Cell.drive_index d))
    Cell.all_drives

let test_params_table_matches_model () =
  (* the dense table holds exactly the analytic model for every slot *)
  List.iter
    (fun k ->
      List.iter
        (fun d ->
          check_bool
            (Cell.kind_to_string k ^ "@" ^ Cell.drive_to_string d)
            true
            (Library.params lib k d
            = Library.apply_drive (Library.base_params k) d))
        Cell.all_drives)
    Cell.all_kinds

let test_library_map () =
  let doubled =
    Library.map (fun p -> { p with Library.area_um2 = 2.0 *. p.Library.area_um2 }) lib
  in
  List.iter
    (fun k ->
      List.iter
        (fun d ->
          Alcotest.(check (float 0.0))
            "area doubled"
            (2.0 *. (Library.params lib k d).Library.area_um2)
            (Library.params doubled k d).Library.area_um2)
        Cell.all_drives)
    Cell.all_kinds

let test_delay_load_dependence () =
  let d load = Library.delay_ps lib ~kind:Cell.Nand2 ~drive:Cell.X1 ~out:0 ~load_ff:load in
  check_bool "monotone in load" true (d 10.0 > d 1.0)

(* ---------------- characterization + exporters ---------------- *)

let test_characterize_view () =
  let v = Characterize.view lib Cell.Fa Cell.X1 in
  check_int "delay tables per output" 2 (Array.length v.Characterize.delay);
  (* table lookup interpolates between the analytic model points *)
  let tab = v.Characterize.delay.(0) in
  let mid = Characterize.lookup tab ~slew:30.0 ~load:3.0 in
  let lo = Characterize.lookup tab ~slew:10.0 ~load:0.5 in
  let hi = Characterize.lookup tab ~slew:160.0 ~load:32.0 in
  check_bool "lookup ordered" true (lo < mid && mid < hi)

let test_lookup_clamps () =
  let v = Characterize.view lib Cell.Inv Cell.X1 in
  let tab = v.Characterize.delay.(0) in
  let below = Characterize.lookup tab ~slew:0.0 ~load:0.0 in
  let corner = Characterize.lookup tab ~slew:10.0 ~load:0.5 in
  Alcotest.(check (float 1e-9)) "clamped to corner" corner below

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_liberty_text () =
  let s = Liberty.lib_text lib in
  check_bool "has library block" true
    (String.length s > 1000 && String.sub s 0 7 = "library");
  (* every interesting custom kind appears *)
  List.iter
    (fun k ->
      let name = Cell.kind_to_string k in
      check_bool (name ^ " present") true (contains s name))
    [ Cell.Comp42; Cell.Sram Cell.S6t; Cell.Mul Cell.Oai22_fused ]

let test_lef_text () =
  let s = Liberty.lef_text lib in
  check_bool "lef nonempty" true (String.length s > 100);
  check_bool "ends library" true
    (String.length s > 12
    && String.sub s (String.length s - 12) 11 = "END LIBRARY")

let () =
  Alcotest.run "cell"
    [
      ( "logic",
        [
          Alcotest.test_case "basic gates" `Quick test_basic_gates;
          Alcotest.test_case "muxes" `Quick test_mux_gates;
          Alcotest.test_case "aoi/oai" `Quick test_aoi_oai;
          Alcotest.test_case "HA exhaustive" `Quick test_ha_exhaustive;
          Alcotest.test_case "FA exhaustive" `Quick test_fa_exhaustive;
          Alcotest.test_case "COMP42 exhaustive" `Quick
            test_comp42_exhaustive;
          Alcotest.test_case "multiplier cells" `Quick test_mul_cells;
          Alcotest.test_case "sequential rejected" `Quick
            test_eval_rejects_sequential;
          Alcotest.test_case "arity tables" `Quick test_arity_tables;
        ] );
      ( "ppa",
        [
          Alcotest.test_case "FO4 calibration" `Quick test_fo4_calibration;
          Alcotest.test_case "paper claims encoded" `Quick
            test_paper_cell_claims;
          Alcotest.test_case "drive scaling" `Quick test_drive_scaling;
          Alcotest.test_case "load dependence" `Quick
            test_delay_load_dependence;
          Alcotest.test_case "dense kind/drive index" `Quick
            test_kind_index_dense;
          Alcotest.test_case "table matches model" `Quick
            test_params_table_matches_model;
          Alcotest.test_case "library map" `Quick test_library_map;
        ] );
      ( "views",
        [
          Alcotest.test_case "characterize" `Quick test_characterize_view;
          Alcotest.test_case "lookup clamps" `Quick test_lookup_clamps;
          Alcotest.test_case "liberty writer" `Quick test_liberty_text;
          Alcotest.test_case "lef writer" `Quick test_lef_text;
        ] );
    ]

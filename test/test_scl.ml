(* Tests for the subcircuit library: characterization sanity, memoization,
   menus and the tt1 "faster adder" query. *)

let lib = Library.n40 ()
let scl = Scl.create lib

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let positive (p : Ppa.t) =
  p.Ppa.delay_ps >= 0.0 && p.Ppa.area_um2 > 0.0 && p.Ppa.energy_fj >= 0.0
  && p.Ppa.leakage_nw > 0.0

let test_entries_positive () =
  check_bool "tree" true
    (positive
       (Scl.adder_tree scl
          ~topology:(Adder_tree.Csa { fa_ratio = 0.0; reorder = false })
          ~rows:16));
  check_bool "mulmux" true
    (positive (Scl.mulmux scl ~variant:Cell.Tg_nor ~mcr:2));
  check_bool "cell" true (positive (Scl.memory_cell scl ~kind:Cell.S6t));
  check_bool "sa" true
    (positive
       (Scl.shift_adder scl ~kind:Shift_adder.Ripple ~rows:16 ~serial_bits:4));
  check_bool "ofu" true
    (positive
       (Scl.ofu scl ~wb:4 ~w_sa:9 ~result_width:14 ~pipe:false ~fast:false));
  check_bool "wl" true (positive (Scl.wl_driver scl ~cols:32));
  check_bool "align" true
    (positive (Scl.fp_align scl ~fmt:Fpfmt.fp8 ~pipeline:2 ~rows:8))

let test_memoization () =
  let t0 = Unix.gettimeofday () in
  let a =
    Scl.adder_tree scl
      ~topology:(Adder_tree.Csa { fa_ratio = 0.5; reorder = true })
      ~rows:64
  in
  let first = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let b =
    Scl.adder_tree scl
      ~topology:(Adder_tree.Csa { fa_ratio = 0.5; reorder = true })
      ~rows:64
  in
  let second = Unix.gettimeofday () -. t1 in
  check_bool "same entry" true (a = b);
  check_bool "cached lookup much faster" true
    (second < first /. 5.0 || second < 1e-4)

let test_memo_race () =
  (* four domains racing one cold entry: it is characterized once, and
     the other three callers wait for it and count as hits *)
  let scl = Scl.create lib in
  let computed = Atomic.make 0 and ready = Atomic.make 0 in
  let slow () =
    Atomic.incr computed;
    Unix.sleepf 0.05;
    Ppa.zero
  in
  let caller () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    Scl.memo scl "race/k" slow
  in
  let got = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn caller)) in
  check_int "characterized once" 1 (Atomic.get computed);
  List.iter (fun p -> check_bool "one entry for all" true (p == List.hd got)) got;
  check_int "one miss" 1 (Scl.misses scl);
  check_int "three hits" 3 (Scl.hits scl);
  check_int "one entry" 1 (Scl.entries scl)

let test_menus () =
  check_int "tree menu" 5 (List.length Scl.tree_menu);
  check_int "mul menu" 3 (List.length Scl.mul_menu);
  check_int "cell menu" 3 (List.length Scl.cell_menu);
  check_int "sa menu" 3 (List.length Scl.sa_menu)

let test_faster_tree_query () =
  (* from the slowest menu entry there must be something faster at H=64;
     from the fastest there must not *)
  let slowest = Adder_tree.Csa { fa_ratio = 0.0; reorder = false } in
  (match Scl.faster_tree scl ~rows:64 ~than:slowest with
  | Some topo ->
      let d t = (Scl.adder_tree scl ~topology:t ~rows:64).Ppa.delay_ps in
      check_bool "strictly faster" true (d topo < d slowest)
  | None -> Alcotest.fail "expected a faster tree");
  let fastest =
    List.fold_left
      (fun best t ->
        let d x = (Scl.adder_tree scl ~topology:x ~rows:64).Ppa.delay_ps in
        if d t < d best then t else best)
      slowest Scl.tree_menu
  in
  check_bool "no faster than fastest" true
    (Scl.faster_tree scl ~rows:64 ~than:fastest = None)

let test_rca_baseline_is_dominated () =
  let get t = Scl.adder_tree scl ~topology:t ~rows:64 in
  let base = get Scl.tree_baseline in
  check_bool "every menu tree smaller and lower-energy than the baseline"
    true
    (List.for_all
       (fun t ->
         let p = get t in
         p.Ppa.area_um2 < base.Ppa.area_um2
         && p.Ppa.energy_fj < base.Ppa.energy_fj)
       Scl.tree_menu);
  check_bool "the fastest menu tree also beats the baseline delay" true
    (List.exists
       (fun t -> (get t).Ppa.delay_ps < base.Ppa.delay_ps)
       Scl.tree_menu)

let test_estimate_macro () =
  let cfg =
    Macro_rtl.default ~rows:16 ~cols:16 ~mcr:2 ~input_prec:Precision.int8
      ~weight_prec:Precision.int8
  in
  let est = Scl.estimate_macro scl cfg in
  check_bool "estimate positive" true (positive est);
  (* the analytic composition should land within 2x of the real netlist *)
  let m = Macro_rtl.build lib cfg in
  let real = (Stats.of_design m.Macro_rtl.design lib).Stats.area_um2 in
  let ratio = est.Ppa.area_um2 /. real in
  check_bool
    (Printf.sprintf "area estimate ratio %.2f in [0.5, 2.0]" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_estimate_fp_macro () =
  let cfg =
    Macro_rtl.default ~rows:16 ~cols:16 ~mcr:1 ~input_prec:Precision.fp8
      ~weight_prec:Precision.int8
  in
  let est_fp = Scl.estimate_macro scl cfg in
  let est_int =
    Scl.estimate_macro scl
      { cfg with Macro_rtl.input_prec = Precision.int8 }
  in
  check_bool "FP estimate includes aligner" true
    (est_fp.Ppa.area_um2 > est_int.Ppa.area_um2)

let test_ppa_algebra () =
  let a = { Ppa.delay_ps = 10.0; area_um2 = 5.0; energy_fj = 2.0; leakage_nw = 1.0 } in
  let b = { Ppa.delay_ps = 20.0; area_um2 = 3.0; energy_fj = 1.0; leakage_nw = 0.5 } in
  let s = Ppa.(a + b) in
  Alcotest.(check (float 1e-9)) "delay is max" 20.0 s.Ppa.delay_ps;
  Alcotest.(check (float 1e-9)) "area adds" 8.0 s.Ppa.area_um2;
  let k = Ppa.scale 3 a in
  Alcotest.(check (float 1e-9)) "scale area" 15.0 k.Ppa.area_um2;
  Alcotest.(check (float 1e-9)) "scale keeps delay" 10.0 k.Ppa.delay_ps

let () =
  Alcotest.run "scl"
    [
      ( "library",
        [
          Alcotest.test_case "entries positive" `Quick test_entries_positive;
          Alcotest.test_case "memoization" `Quick test_memoization;
          Alcotest.test_case "memo race" `Quick test_memo_race;
          Alcotest.test_case "menus" `Quick test_menus;
          Alcotest.test_case "faster-tree query" `Quick
            test_faster_tree_query;
          Alcotest.test_case "RCA baseline dominated" `Quick
            test_rca_baseline_is_dominated;
        ] );
      ( "estimates",
        [
          Alcotest.test_case "macro estimate" `Quick test_estimate_macro;
          Alcotest.test_case "FP estimate" `Quick test_estimate_fp_macro;
          Alcotest.test_case "ppa algebra" `Quick test_ppa_algebra;
        ] );
    ]

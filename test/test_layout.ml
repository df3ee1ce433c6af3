(* Tests for the back-end: SDP and scattered placement, routing estimate,
   DRC, LVS, the post-layout flow and the DEF writer. *)

let lib = Library.n40 ()
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let macro ?(rows = 16) ?(cols = 16) ?(mcr = 2) () =
  Macro_rtl.build lib
    (Macro_rtl.default ~rows ~cols ~mcr ~input_prec:Precision.int8
       ~weight_prec:Precision.int8)

let test_sdp_drc_clean () =
  let m = macro () in
  let p = Floorplan.sdp lib m in
  Alcotest.(check (list Alcotest.reject)) "no violations" []
    (List.map (fun _ -> Alcotest.fail "violation") (Drc.check lib p))

let test_sdp_drc_clean_after_sizing () =
  let m = macro () in
  ignore (Sizing.speed_up m.Macro_rtl.design lib ~target_ps:1.0);
  let p = Floorplan.sdp lib m in
  check_int "no violations on X4 cells" 0 (List.length (Drc.check lib p))

(* The backend's ECO rollback keeps the pass it had before the resize:
   once the drives are restored it must equal a fresh sign-off run. *)
let test_rollback_pass_is_fresh_run () =
  let bits_equal a b =
    Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  List.iter
    (fun style ->
      let m = macro ~mcr:1 () in
      let d = m.Macro_rtl.design in
      let pass = Post_layout.run lib m ~style in
      let snap = Sizing.snapshot d in
      let wire_cap =
        Route.wire_cap_fn pass.Post_layout.routing lib.Library.node
      in
      let sized = Sizing.speed_up ~wire_cap d lib ~target_ps:1.0 in
      check_bool "resized" true (sized.Sizing.upsized > 0);
      let resized = Post_layout.run lib m ~style in
      check_bool "resize moved the layout" false
        (bits_equal resized.Post_layout.area_mm2 pass.Post_layout.area_mm2);
      Sizing.restore d snap;
      let fresh = Post_layout.run lib m ~style in
      check_bool "crit" true
        (bits_equal pass.Post_layout.sta.Sta.crit_ps
           fresh.Post_layout.sta.Sta.crit_ps);
      check_bool "area" true
        (bits_equal pass.Post_layout.area_mm2 fresh.Post_layout.area_mm2);
      check_bool "wirelength" true
        (bits_equal pass.Post_layout.total_wirelength_mm
           fresh.Post_layout.total_wirelength_mm))
    [ Floorplan.Sdp; Floorplan.Scattered ]

let test_scattered_drc_clean () =
  let m = macro () in
  let p = Floorplan.scattered lib m ~seed:3 in
  check_int "no violations" 0 (List.length (Drc.check lib p))

let test_bitcell_grid_positions () =
  let m = macro ~rows:8 ~cols:8 ~mcr:1 () in
  let p = Floorplan.sdp lib m in
  let d = m.Macro_rtl.design in
  (* within one column, bit cells of consecutive rows are one row pitch
     apart; all bit cells of a column share x *)
  let pos = Hashtbl.create 64 in
  Array.iteri
    (fun i (inst : Ir.inst) ->
      match inst.Ir.tag with
      | Ir.Weight_bit { row; col; copy = 0 } ->
          Hashtbl.replace pos (row, col) (p.Floorplan.x.(i), p.Floorplan.y.(i))
      | _ -> ())
    d.Ir.insts;
  for col = 0 to 7 do
    for row = 0 to 6 do
      let x0, y0 = Hashtbl.find pos (row, col) in
      let x1, y1 = Hashtbl.find pos (row + 1, col) in
      check_bool "same column x" true (Float.abs (x0 -. x1) < 1e-6);
      Alcotest.(check (float 1e-6)) "row pitch" p.Floorplan.row_height (y1 -. y0)
    done
  done

let test_lvs_clean () =
  let m = macro () in
  let p = Floorplan.sdp lib m in
  let r = Lvs.check p in
  check_bool "clean" true r.Lvs.clean;
  check_int "all instances" (Ir.n_insts m.Macro_rtl.design)
    r.Lvs.instances_checked;
  check_bool "nets checked" true (r.Lvs.nets_checked > 100)

let test_route_hpwl () =
  let m = macro () in
  let p = Floorplan.sdp lib m in
  let r = Route.build p in
  check_bool "total positive" true (r.Route.total_wirelength_um > 0.0);
  (* constants don't route *)
  Alcotest.(check (float 1e-9)) "const0 unrouted" 0.0 r.Route.hpwl_um.(0);
  (* every HPWL fits in the die half-perimeter *)
  check_bool "bounded by die" true
    (Array.for_all
       (fun h -> h <= p.Floorplan.die_w +. p.Floorplan.die_h +. 1e-6)
       r.Route.hpwl_um);
  (* wire cap proportional to HPWL *)
  let net = m.Macro_rtl.design.Ir.n_nets - 1 in
  Alcotest.(check (float 1e-9))
    "cap conversion"
    (r.Route.hpwl_um.(net) *. lib.Library.node.Node.wire_cap_ff_per_um)
    (Route.wire_cap r lib.Library.node net)

let test_sdp_beats_scattered () =
  let m = macro ~rows:16 ~cols:16 () in
  let sdp = Post_layout.run lib m ~style:Floorplan.Sdp in
  let sc = Post_layout.run lib m ~style:Floorplan.Scattered in
  check_bool "SDP shorter wires" true
    (sdp.Post_layout.total_wirelength_mm
    < sc.Post_layout.total_wirelength_mm);
  check_bool "SDP faster" true
    (sdp.Post_layout.sta.Sta.crit_ps < sc.Post_layout.sta.Sta.crit_ps)

let test_post_layout_flow () =
  let m = macro () in
  let s = Post_layout.run lib m ~style:Floorplan.Sdp in
  check_bool "area positive" true (s.Post_layout.area_mm2 > 0.0);
  check_bool "DRC empty" true (s.Post_layout.drc_violations = []);
  check_bool "LVS clean" true s.Post_layout.lvs.Lvs.clean;
  (* post-layout timing is never faster than pre-layout *)
  let pre = Sta.analyze m.Macro_rtl.design lib in
  check_bool "wires only slow down" true
    (s.Post_layout.sta.Sta.crit_ps >= pre.Sta.crit_ps -. 1e-6)

let test_post_layout_power () =
  let m = macro () in
  let s = Post_layout.run lib m ~style:Floorplan.Sdp in
  let p =
    Post_layout.power lib m s ~freq_hz:5e8 ~vdd:0.9 ~input_density:0.5
      ~weight_density:0.5 ~macs:4
  in
  let pre =
    Design_point.measure_power lib m ~freq_hz:5e8 ~vdd:0.9
      ~input_density:0.5 ~weight_density:0.5 ~macs:4
  in
  check_bool "wire power adds" true (p.Power.total_w > pre.Power.total_w)

let test_die_aspect_reasonable () =
  (* the stripe folding must keep the die from degenerating *)
  List.iter
    (fun (rows, cols) ->
      let m = macro ~rows ~cols ~mcr:1 () in
      let p = Floorplan.sdp lib m in
      let aspect = p.Floorplan.die_w /. p.Floorplan.die_h in
      check_bool
        (Printf.sprintf "%dx%d aspect %.2f" rows cols aspect)
        true
        (aspect > 0.2 && aspect < 5.0))
    [ (8, 8); (16, 32); (32, 16); (32, 32) ]

let test_area_scales_with_array () =
  let small = Post_layout.run lib (macro ~rows:8 ~cols:8 ()) ~style:Floorplan.Sdp in
  let big = Post_layout.run lib (macro ~rows:32 ~cols:32 ()) ~style:Floorplan.Sdp in
  check_bool "bigger array bigger die" true
    (big.Post_layout.area_mm2 > 4.0 *. small.Post_layout.area_mm2)

let test_def_writer () =
  let m = macro ~rows:8 ~cols:8 ~mcr:1 () in
  let p = Floorplan.sdp lib m in
  let s = Def_writer.to_string lib p in
  let contains needle =
    let n = String.length needle and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "die area" true (contains "DIEAREA");
  check_bool "components" true (contains "COMPONENTS");
  check_bool "nets" true (contains "NETS");
  check_bool "placed cells" true (contains "PLACED");
  check_bool "end" true (contains "END DESIGN")

let test_drc_detects_overlap () =
  (* corrupt a placement on purpose: DRC must notice *)
  let m = macro ~rows:4 ~cols:8 ~mcr:1 () in
  let p = Floorplan.sdp lib m in
  p.Floorplan.x.(1) <- p.Floorplan.x.(0);
  p.Floorplan.y.(1) <- p.Floorplan.y.(0);
  check_bool "overlap found" true (Drc.check lib p <> [])

let test_lvs_detects_corruption () =
  let m = macro ~rows:4 ~cols:8 ~mcr:1 () in
  let p = Floorplan.sdp lib m in
  p.Floorplan.x.(0) <- Float.nan;
  let r = Lvs.check p in
  check_bool "corruption found" false r.Lvs.clean

let () =
  Alcotest.run "layout"
    [
      ( "placement",
        [
          Alcotest.test_case "SDP DRC clean" `Quick test_sdp_drc_clean;
          Alcotest.test_case "DRC clean after sizing" `Quick
            test_sdp_drc_clean_after_sizing;
          Alcotest.test_case "ECO rollback keeps the pass" `Quick
            test_rollback_pass_is_fresh_run;
          Alcotest.test_case "scattered DRC clean" `Quick
            test_scattered_drc_clean;
          Alcotest.test_case "bitcell grid" `Quick
            test_bitcell_grid_positions;
          Alcotest.test_case "die aspect" `Quick test_die_aspect_reasonable;
          Alcotest.test_case "area scaling" `Quick
            test_area_scales_with_array;
        ] );
      ( "signoff",
        [
          Alcotest.test_case "LVS clean" `Quick test_lvs_clean;
          Alcotest.test_case "route HPWL" `Quick test_route_hpwl;
          Alcotest.test_case "SDP beats scattered" `Quick
            test_sdp_beats_scattered;
          Alcotest.test_case "post-layout flow" `Quick test_post_layout_flow;
          Alcotest.test_case "post-layout power" `Quick
            test_post_layout_power;
          Alcotest.test_case "DEF writer" `Quick test_def_writer;
          Alcotest.test_case "DRC detects overlap" `Quick
            test_drc_detects_overlap;
          Alcotest.test_case "LVS detects corruption" `Quick
            test_lvs_detects_corruption;
        ] );
    ]

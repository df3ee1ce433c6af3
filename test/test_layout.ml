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

(* Sizing keeps no bumps on [macro ()] (its first round does not shorten
   the path), so the widest footprints are forced: every cell but the
   storage ones, which sizing never touches, at X4. *)
let test_sdp_drc_clean_at_x4 () =
  let m = macro () in
  let d = m.Macro_rtl.design in
  let x4 = Char.chr (Cell.drive_index Cell.X4) in
  for i = 0 to Ir.n_insts d - 1 do
    if not (Cell.is_storage (Ir.kind d i)) then Bytes.set d.Ir.drives i x4
  done;
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
  for i = 0 to Ir.n_insts d - 1 do
    match Ir.tag d i with
    | Ir.Weight_bit { row; col; copy = 0 } ->
        Hashtbl.replace pos (row, col) (p.Floorplan.x.(i), p.Floorplan.y.(i))
    | _ -> ()
  done;
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

(* ---------------- DRC order, short placements, allocation ---------------- *)

(* The row-grouped, list-based DRC the loop form replaced: cells grouped
   per row in a [Hashtbl] (each row's list in descending id order), each
   row stable-sorted by left edge, then adjacent pairs scanned. Its order
   across rows followed [Hashtbl.iter]; here the overlaps are put in the
   canonical order — by the first cell's row, left edge, then descending
   id — followed by the out-of-die cells in ascending id. *)
let reference_drc (p : Floorplan.t) =
  let d = p.Floorplan.design in
  let n = Ir.n_insts d in
  let outside = ref [] and overlaps = ref [] in
  let rows = Hashtbl.create 64 in
  let key = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let w = Floorplan.inst_width lib d i in
    let x = p.Floorplan.x.(i) and y = p.Floorplan.y.(i) in
    let x0 = x -. (w /. 2.0) and x1 = x +. (w /. 2.0) in
    if x0 < -1e-3 || x1 > p.Floorplan.die_w +. 1e-3 || y < 0.0
       || y > p.Floorplan.die_h
    then outside := Drc.Out_of_bounds i :: !outside;
    let row = int_of_float (y /. p.Floorplan.row_height) in
    Hashtbl.replace key i (row, x0);
    let cur = try Hashtbl.find rows row with Not_found -> [] in
    Hashtbl.replace rows row ((i, x0, x1) :: cur)
  done;
  Hashtbl.iter
    (fun _ cells ->
      let sorted =
        List.sort (fun (_, a, _) (_, b, _) -> Float.compare a b) cells
      in
      let rec scan = function
        | (a, _, a1) :: ((b, b0, _) :: _ as rest) ->
            if b0 < a1 -. 1e-3 then overlaps := (a, b) :: !overlaps;
            scan rest
        | [ _ ] | [] -> ()
      in
      scan sorted)
    rows;
  let canonical (a, _) (b, _) =
    let ra, xa = Hashtbl.find key a and rb, xb = Hashtbl.find key b in
    if ra <> rb then compare ra rb
    else
      let c = Float.compare xa xb in
      if c <> 0 then c else compare b a
  in
  List.map (fun (a, b) -> Drc.Overlap (a, b)) (List.sort canonical !overlaps)
  @ List.rev !outside

let check_drc_matches_reference name p =
  let render l = List.map Drc.violation_to_string l in
  let expected = reference_drc p in
  check_bool (name ^ ": violations found") true (expected <> []);
  Alcotest.(check (list string)) name (render expected)
    (render (Drc.check lib p))

let test_drc_matches_reference () =
  let m = macro () in
  let corrupt (p : Floorplan.t) =
    let x = p.Floorplan.x and y = p.Floorplan.y in
    let n = Array.length x in
    (* stack cells onto others in several rows: exact copies (a tie on
       the left edge), half-cell shifts, and chains of three *)
    List.iter
      (fun (dst, src, dx) ->
        x.(dst) <- x.(src) +. dx;
        y.(dst) <- y.(src))
      [
        (1, 0, 0.0); (n / 3, n / 2, 0.3); ((n / 3) + 1, n / 2, -0.2);
        ((n / 3) + 2, n / 2, 0.0); (n - 1, 7, 0.5); (n / 4, n / 5, 0.0);
      ];
    (* three bit cells (equal widths) on one spot: a three-way tie on
       the left edge, which the descending-id rule orders *)
    let bitcells =
      List.filter
        (fun i ->
          match Ir.tag m.Macro_rtl.design i with
          | Ir.Weight_bit _ -> true
          | _ -> false)
        (List.init n Fun.id)
    in
    (match bitcells with
    | a :: _ :: b :: _ :: _ :: c :: _ ->
        List.iter
          (fun i ->
            x.(i) <- x.(a);
            y.(i) <- y.(a))
          [ b; c ]
    | _ -> Alcotest.fail "too few bit cells");
    (* and push others off the die on every side *)
    x.(n / 7) <- -3.0;
    y.(n / 6) <- p.Floorplan.die_h +. 5.0;
    x.(n / 8) <- p.Floorplan.die_w +. 1.0;
    y.((n / 9) + 1) <- -0.5
  in
  List.iter
    (fun style ->
      let p =
        match style with
        | Floorplan.Sdp -> Floorplan.sdp lib m
        | Floorplan.Scattered -> Floorplan.scattered lib m ~seed:3
      in
      corrupt p;
      check_drc_matches_reference (Floorplan.style_name style) p;
      (* a cell flung far off the die spreads the rows beyond a counting
         sort: the one-pass sort must give the same violations *)
      p.Floorplan.y.(11) <- 1e9;
      p.Floorplan.y.(12) <- -1e9;
      check_drc_matches_reference
        (Floorplan.style_name style ^ " with far rows")
        p)
    [ Floorplan.Sdp; Floorplan.Scattered ]

(* A placement whose arrays stop short of the netlist: DRC reports every
   unplaced instance as outside the die, LVS reports the size mismatch,
   and neither reads past the arrays. *)
let short_placement () =
  let m = macro ~rows:4 ~cols:8 ~mcr:1 () in
  let p = Floorplan.sdp lib m in
  let n = Ir.n_insts m.Macro_rtl.design in
  let short a = Array.sub a 0 (n - 5) in
  (n, { p with Floorplan.x = short p.Floorplan.x; y = short p.Floorplan.y })

let test_drc_short_placement () =
  let n, p = short_placement () in
  Alcotest.(check (list string))
    "unplaced instances are outside the die"
    (List.init 5 (fun k -> Printf.sprintf "instance %d outside die" (n - 5 + k)))
    (List.map Drc.violation_to_string (Drc.check lib p))

let test_lvs_short_placement () =
  let n, p = short_placement () in
  let r = Lvs.check p in
  check_bool "not clean" false r.Lvs.clean;
  check_int "instances" n r.Lvs.instances_checked;
  Alcotest.(check (list string))
    "mismatch reported" [ "placement array size mismatch" ] r.Lvs.errors

(* Minor-heap words one call of [f] allocates, after a warm-up call, as in
   the STA kernels' guard: arrays past the minor heap's block limit are
   allocated in the major heap and do not count. *)
let minor_words f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_backend_allocation () =
  let m = macro ~rows:64 ~cols:64 ~mcr:1 () in
  let n = Ir.n_insts m.Macro_rtl.design in
  let p = Floorplan.sdp lib m in
  let guard name ~per_inst f =
    let w = minor_words f in
    check_bool
      (Printf.sprintf "%s: %.0f words for %d instances" name w n)
      true
      (w < per_inst *. float_of_int n)
  in
  guard "Route.build" ~per_inst:1.0 (fun () -> Route.build p);
  guard "Lvs.check" ~per_inst:1.0 (fun () -> Lvs.check p);
  guard "Drc.check" ~per_inst:0.125 (fun () -> Drc.check lib p);
  (* a few boxed floats per column, stripe and region fill *)
  guard "Floorplan.sdp" ~per_inst:0.125 (fun () -> Floorplan.sdp lib m)

(* ---------------- layout snapshot ---------------- *)

(* Per-spec digests of everything the back end produces — the netlist it
   places, every placed coordinate (bit-exact, [%h]), every net's HPWL
   and the DRC and LVS reports — in both floorplan styles, for the
   canonical PPA specs, Fig. 8 and the Table II chip, plus two
   non-default configs (reordered CSA trees, a split tree, other cell
   kinds). test/snapshots/layout.snap pins them; a rewrite of any
   back-end pass must reproduce it byte for byte. Set
   SYNDCIM_LAYOUT_SNAP_OUT=<file> to write the rendered text there. *)
let snap_cases =
  let csa_reorder fa_ratio = Adder_tree.Csa { fa_ratio; reorder = true } in
  List.map
    (fun (name, s) -> (name, s, Spec.initial_config s))
    (Snapshot.canonical_specs
    @ [ ("fig8", Spec.fig8); ("table2_chip", Table2.chip_spec) ])
  @ (let name, s = List.hd Snapshot.canonical_specs in
     [
       ( name ^ "+reorder_split2",
         s,
         {
           (Spec.initial_config s) with
           Macro_rtl.tree = csa_reorder 0.5;
           tree_split = 2;
         } );
     ])
  @ [
      ( "fig8+reorder_8t_pass1t",
        Spec.fig8,
        {
          (Spec.initial_config Spec.fig8) with
          Macro_rtl.tree = csa_reorder 0.3;
          cell_kind = Cell.S8t;
          mul_kind = Cell.Pass_1t;
          retime_final_rca = true;
        } );
    ]

let md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

let netlist_digest (d : Ir.design) =
  let b = Buffer.create (Ir.n_insts d * 32) in
  let ints a = Array.iter (fun n -> Printf.bprintf b " %d" n) a in
  for i = 0 to Ir.n_insts d - 1 do
    Printf.bprintf b "%s_%s"
      (Cell.kind_to_string (Ir.kind d i))
      (Cell.drive_to_string (Ir.drive d i));
    ints (Ir.ins d i);
    Buffer.add_string b " ->";
    ints (Ir.outs d i);
    (match Ir.tag d i with
    | Ir.Plain -> ()
    | Ir.Weight_bit { row; col; copy } ->
        Printf.bprintf b " w%d.%d.%d" row col copy
    | Ir.Pipeline_reg s -> Printf.bprintf b " reg:%s" s
    | Ir.Subcircuit s -> Printf.bprintf b " sub:%s" s);
    Buffer.add_char b '\n'
  done;
  List.iter
    (fun (dir, buses) ->
      List.iter
        (fun (name, bus) ->
          Printf.bprintf b "%s %s" dir name;
          ints bus;
          Buffer.add_char b '\n')
        buses)
    [ ("in", Ir.inputs d.Ir.src); ("out", Ir.outputs d.Ir.src) ];
  md5 b

let layout_line name (m : Macro_rtl.t) style =
  let p =
    match style with
    | Floorplan.Sdp -> Floorplan.sdp lib m
    | Floorplan.Scattered -> Floorplan.scattered lib m ~seed:0x5D9
  in
  let r = Route.build p in
  let place = Buffer.create (Array.length p.Floorplan.x * 40) in
  Array.iteri
    (fun i x -> Printf.bprintf place "%h %h\n" x p.Floorplan.y.(i))
    p.Floorplan.x;
  let hpwl = Buffer.create (Array.length r.Route.hpwl_um * 20) in
  Array.iter (fun h -> Printf.bprintf hpwl "%h\n" h) r.Route.hpwl_um;
  let drc = Buffer.create 64 in
  List.iter
    (fun v -> Printf.bprintf drc "%s\n" (Drc.violation_to_string v))
    (Drc.check lib p);
  let lvs = Lvs.check p in
  let lvs_b = Buffer.create 64 in
  List.iter (fun e -> Printf.bprintf lvs_b "%s\n" e) lvs.Lvs.errors;
  Printf.sprintf
    "%s %s | die %h x %h | wl %h | place %s | hpwl %s | drc %s | lvs %b %d \
     %d %s"
    name (Floorplan.style_name style) p.Floorplan.die_w p.Floorplan.die_h
    r.Route.total_wirelength_um (md5 place) (md5 hpwl) (md5 drc)
    lvs.Lvs.clean lvs.Lvs.instances_checked lvs.Lvs.nets_checked (md5 lvs_b)

let render_layout_snapshot () =
  let lines =
    List.concat_map
      (fun (name, spec, cfg) ->
        let p = Design_point.evaluate lib spec cfg in
        let m = p.Design_point.macro in
        Printf.sprintf "%s netlist | insts %d nets %d | %s" name
          (Ir.n_insts m.Macro_rtl.design) m.Macro_rtl.design.Ir.n_nets
          (netlist_digest m.Macro_rtl.design)
        :: List.map (layout_line name m) [ Floorplan.Sdp; Floorplan.Scattered ])
      snap_cases
  in
  String.concat "\n"
    ("# SynDCIM back-end digests: netlist, placement (%h), HPWL, DRC, LVS"
    :: lines)
  ^ "\n"

let test_layout_snapshot () =
  let actual = render_layout_snapshot () in
  match Sys.getenv_opt "SYNDCIM_LAYOUT_SNAP_OUT" with
  | Some path -> Snapshot.save path actual
  | None ->
      let expected = Snapshot.load (Filename.concat "snapshots" "layout.snap") in
      let e = String.split_on_char '\n' expected
      and a = String.split_on_char '\n' actual in
      check_int "line count" (List.length e) (List.length a);
      List.iter2 (Alcotest.(check string) "layout digest") e a

let () =
  Alcotest.run "layout"
    [
      ( "placement",
        [
          Alcotest.test_case "SDP DRC clean" `Quick test_sdp_drc_clean;
          Alcotest.test_case "DRC clean with logic at X4" `Quick
            test_sdp_drc_clean_at_x4;
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
      ( "drc order",
        [
          Alcotest.test_case "DRC matches list-based reference" `Quick
            test_drc_matches_reference;
          Alcotest.test_case "DRC on a short placement" `Quick
            test_drc_short_placement;
          Alcotest.test_case "LVS on a short placement" `Quick
            test_lvs_short_placement;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "back end allocation-free" `Quick
            test_backend_allocation;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "matches committed layout.snap" `Quick
            test_layout_snapshot;
        ] );
    ]

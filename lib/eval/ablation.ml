(** Ablations of the design choices DESIGN.md calls out.

    A. Adder-tree topologies (paper §III-B): delay/area/energy of the RCA
       baseline, pure-compressor CSA, mixed CSA and the reordering
       optimization across column heights — the claims "compressor trees
       beat RCA trees", "FA substitution shortens the critical path under
       tight timing" and "reordering harvests the fast-carry slack".

    B. Search techniques (paper §III-C): which techniques the searcher
       needs as the target frequency tightens, and the resulting PPA.

    C. SDP vs scattered placement (paper §III-D): post-layout critical
       path and wirelength for structured vs unstructured placement.

    D. Memory-compute ratio (paper §II): on-macro weight density and the
       multiplier/mux cost as MCR grows, including the fused OAI22
       variant's MCR <= 2 boundary. *)

(* ------------------------------------------------------------------ *)
(* A: adder trees                                                      *)
(* ------------------------------------------------------------------ *)

type tree_point = {
  rows : int;
  topology : string;
  delay_ps : float;
  area_um2 : float;
  energy_fj : float;
}

let tree_menu_with_baseline =
  (Scl.tree_baseline :: Scl.tree_menu)
  @ [ Adder_tree.Csa { fa_ratio = 1.0; reorder = false } ]

let adder_trees ?(heights = [ 16; 32; 64; 128 ]) (ctx : Ctx.t) =
  let scl = Ctx.scl ctx in
  let grid =
    List.concat_map
      (fun rows -> List.map (fun t -> (rows, t)) tree_menu_with_baseline)
      heights
  in
  Pool.parallel_map ?jobs:(Ctx.jobs ctx)
    (fun (rows, topology) ->
      let p = Scl.adder_tree scl ~topology ~rows in
      {
        rows;
        topology = Adder_tree.topology_name topology;
        delay_ps = p.Ppa.delay_ps;
        area_um2 = p.Ppa.area_um2;
        energy_fj = p.Ppa.energy_fj;
      })
    grid

let print_adder_trees points =
  print_endline "Ablation A — adder-tree topologies (standalone, per column)";
  Table.print
    (Table.make
       ~header:[ "rows"; "topology"; "delay (ps)"; "area (um2)"; "energy (fJ)" ]
       (List.map
          (fun p ->
            [
              string_of_int p.rows;
              p.topology;
              Table.f ~digits:0 p.delay_ps;
              Table.f ~digits:0 p.area_um2;
              Table.f ~digits:1 p.energy_fj;
            ])
          points))

(* ------------------------------------------------------------------ *)
(* B: search techniques vs target frequency                            *)
(* ------------------------------------------------------------------ *)

type search_point = {
  freq_mhz : float;
  closed : bool;
  techniques : string list;
  crit_ps : float;
  power_mw : float;
  area_mm2 : float;
}

let search_ladder ?(freqs_mhz = [ 300.; 500.; 800.; 1100. ]) (ctx : Ctx.t)
    (base : Spec.t) =
  Pool.parallel_map ?jobs:(Ctx.jobs ctx)
    (fun f ->
      let spec = { base with Spec.mac_freq_hz = f *. 1e6 } in
      let r =
        Searcher.search ~cache:(Eval_cache.create ()) (Ctx.lib ctx)
          (Ctx.scl ctx) spec
      in
      {
        freq_mhz = f;
        closed = r.Searcher.timing_closed;
        techniques =
          List.map Searcher.technique_name r.Searcher.applied;
        crit_ps = r.Searcher.final.Design_point.crit_ps;
        power_mw = Design_point.power_w r.Searcher.final *. 1e3;
        area_mm2 = r.Searcher.final.Design_point.area_um2 /. 1e6;
      })
    freqs_mhz

let print_search_ladder points =
  print_endline
    "Ablation B — techniques required as the target frequency tightens";
  List.iter
    (fun p ->
      Printf.printf
        "%6.0f MHz: %s, crit %.0f ps, %.2f mW, %.4f mm2, %d techniques\n"
        p.freq_mhz
        (if p.closed then "closed" else "NOT CLOSED")
        p.crit_ps p.power_mw p.area_mm2
        (List.length p.techniques);
      List.iter (fun t -> Printf.printf "          - %s\n" t) p.techniques)
    points

(* ------------------------------------------------------------------ *)
(* D: memory-compute ratio                                             *)
(* ------------------------------------------------------------------ *)

type mcr_point = {
  mcr : int;
  mul_variant : string;
  area_um2 : float;
  memory_kb : float;  (** stored weight bits *)
  density_kb_per_mm2 : float;
  power_mw : float;
}

(** The paper's MCR-aware design point: raising MCR multiplies on-macro
    weight storage while sharing one compute element per [mcr] cells,
    trading a little mux delay/area for much higher memory density and
    background weight updates. Power streams through
    {!Design_point.measure_power} on {!Sim_sliced.word_lanes} packed
    lanes: 63 Monte Carlo replicas per grid point. *)
let mcr_sweep ?(dim = 32) (ctx : Ctx.t) =
  let lib = Ctx.lib ctx in
  let grid =
    List.concat_map
      (fun mcr ->
        let variants =
          Cell.Tg_nor :: (if mcr <= 2 then [ Cell.Oai22_fused ] else [])
        in
        List.map (fun mul_kind -> (mcr, mul_kind)) variants)
      [ 1; 2; 4 ]
  in
  Pool.parallel_map ?jobs:(Ctx.jobs ctx)
    (fun (mcr, mul_kind) ->
      let cfg =
        {
          (Macro_rtl.default ~rows:dim ~cols:dim ~mcr
             ~input_prec:Precision.int8 ~weight_prec:Precision.int8)
          with
          Macro_rtl.mul_kind;
        }
      in
      let m = Macro_rtl.build lib cfg in
      let stats = Stats.of_design m.Macro_rtl.design lib in
      let power =
        Design_point.measure_power ~n_lanes:Sim_sliced.word_lanes lib m
          ~freq_hz:5e8 ~vdd:0.9 ~input_density:0.5 ~weight_density:0.5
          ~macs:4
      in
      let memory_kb = float_of_int (dim * dim * mcr) /. 1024.0 in
      {
        mcr;
        mul_variant = Cell.kind_to_string (Cell.Mul mul_kind);
        area_um2 = stats.Stats.area_um2;
        memory_kb;
        density_kb_per_mm2 = memory_kb /. (stats.Stats.area_um2 /. 1e6);
        power_mw = power.Power.total_w *. 1e3;
      })
    grid

let print_mcr_sweep points =
  print_endline
    "Ablation D — memory-compute ratio (32x32 INT8, 500 MHz @ 0.9 V)";
  Table.print
    (Table.make
       ~header:
         [ "MCR"; "mul/mux"; "area (um2)"; "weights (Kb)"; "Kb/mm2";
           "power (mW)" ]
       (List.map
          (fun p ->
            [
              string_of_int p.mcr;
              p.mul_variant;
              Table.f ~digits:0 p.area_um2;
              Table.f ~digits:1 p.memory_kb;
              Table.f ~digits:0 p.density_kb_per_mm2;
              Table.f ~digits:2 p.power_mw;
            ])
          points))

(* ------------------------------------------------------------------ *)
(* C: SDP vs scattered placement                                       *)
(* ------------------------------------------------------------------ *)

type placement_point = {
  dim : int;
  style : string;
  crit_ps : float;
  wirelength_mm : float;
  area_mm2 : float;
}

let placements ?(dims = [ 32; 64; 128 ]) (ctx : Ctx.t) =
  let lib = Ctx.lib ctx in
  let grid =
    List.concat_map
      (fun dim ->
        List.map (fun style -> (dim, style))
          [ Floorplan.Sdp; Floorplan.Scattered ])
      dims
  in
  (* each worker builds its own netlist so no two domains share a design *)
  Pool.parallel_map ?jobs:(Ctx.jobs ctx)
    (fun (dim, style) ->
      let cfg =
        Macro_rtl.default ~rows:dim ~cols:dim ~mcr:1
          ~input_prec:Precision.int8 ~weight_prec:Precision.int8
      in
      let m = Macro_rtl.build lib cfg in
      let s = Post_layout.run lib m ~style in
      {
        dim;
        style = Floorplan.style_name style;
        crit_ps = s.Post_layout.sta.Sta.crit_ps;
        wirelength_mm = s.Post_layout.total_wirelength_mm;
        area_mm2 = s.Post_layout.area_mm2;
      })
    grid

let print_placements points =
  print_endline "Ablation C — SDP vs scattered placement (post-layout)";
  Table.print
    (Table.make
       ~header:[ "array"; "placement"; "crit (ps)"; "wirelength (mm)"; "area (mm2)" ]
       (List.map
          (fun p ->
            [
              Printf.sprintf "%dx%d" p.dim p.dim;
              p.style;
              Table.f ~digits:0 p.crit_ps;
              Table.f ~digits:1 p.wirelength_mm;
              Table.f ~digits:4 p.area_mm2;
            ])
          points))

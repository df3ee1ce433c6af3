(** Human-readable compilation reports. *)

let subcircuit_table lib (a : Pipeline.artifact) =
  let areas =
    Stats.area_by_subcircuit a.Pipeline.macro.Macro_rtl.design lib
  in
  let power = a.Pipeline.power.Power.by_subcircuit in
  let rows =
    List.map
      (fun (name, area) ->
        let w = try List.assoc name power with Not_found -> 0.0 in
        [
          name;
          Printf.sprintf "%.0f" area;
          Printf.sprintf "%.3f" (w *. 1e3);
        ])
      areas
  in
  Table.make ~header:[ "subcircuit"; "area (um2)"; "power (mW)" ] rows

let to_string lib (a : Pipeline.artifact) =
  let b = Buffer.create 4096 in
  let m = a.Pipeline.metrics in
  let spec = a.Pipeline.spec in
  Buffer.add_string b (Printf.sprintf "spec: %s\n" (Spec.describe spec));
  Buffer.add_string b
    (Printf.sprintf "search: %s, %d points visited\n"
       (if a.Pipeline.search.Searcher.timing_closed then "timing closed"
        else "TIMING NOT CLOSED")
       (List.length a.Pipeline.search.Searcher.visited));
  List.iter
    (fun t ->
      Buffer.add_string b
        (Printf.sprintf "  - %s\n" (Searcher.technique_name t)))
    a.Pipeline.search.Searcher.applied;
  Buffer.add_string b
    (Printf.sprintf "netlist: %d instances, %d nets\n"
       (Ir.n_insts a.Pipeline.macro.Macro_rtl.design)
       a.Pipeline.macro.Macro_rtl.design.Ir.n_nets);
  Buffer.add_string b
    (Printf.sprintf
       "post-layout: crit %.0f ps (fmax %.2f GHz @ %.2f V), area %.4f mm2, \
        wirelength %.1f mm\n"
       m.Pipeline.crit_ps m.Pipeline.fmax_ghz spec.Spec.vdd
       m.Pipeline.area_mm2
       a.Pipeline.signoff.Post_layout.total_wirelength_mm);
  Buffer.add_string b
    (Printf.sprintf
       "power @ %.0f MHz: %.2f mW  ->  %.2f TOPS, %.0f TOPS/W, %.0f \
        TOPS/mm2 (native); x%.0f for 1b-1b\n"
       (spec.Spec.mac_freq_hz /. 1e6)
       (m.Pipeline.power_w *. 1e3)
       m.Pipeline.tops m.Pipeline.tops_per_w m.Pipeline.tops_per_mm2
       m.Pipeline.ops_norm);
  Buffer.add_string b (Table.render (subcircuit_table lib a));
  Buffer.add_char b '\n';
  Buffer.contents b

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

let describe_eco (eco : Pipeline.eco_iteration list) =
  if eco = [] then "eco: no iterations (budget met at first sign-off)\n"
  else
    String.concat ""
      (List.map
         (fun (i : Pipeline.eco_iteration) ->
           Printf.sprintf "eco[%d]: %s%s\n" i.Pipeline.iter i.Pipeline.reason
             (if i.Pipeline.rolled_back then " [rolled back]" else ""))
         eco)

(* Per-stage summaries of a compile: the winning search and its cache
   counters, the sign-off run, the shipped layout with its ECO record,
   the power breakdown and the reported metrics. *)

let last_attempt (r : Pipeline.run) = List.hd (List.rev r.Pipeline.attempts)

let search_txt lib (r : Pipeline.run) =
  let a = r.Pipeline.artifact in
  let design = a.Pipeline.macro.Macro_rtl.design in
  let last = last_attempt r in
  Printf.sprintf
    "spec: %s\nattempts: %d (final boost x%.2f)\npre-layout crit: %.1f ps\n\
     pre-layout timing: %s\ninstances: %d\nnets: %d\narea: %.0f um2\n\
     cache: %d hits / %d misses\ntechniques:\n%s"
    (Spec.describe a.Pipeline.spec)
    (List.length r.Pipeline.attempts)
    last.Pipeline.attempt_boost
    a.Pipeline.search.Searcher.final.Design_point.crit_ps
    (if a.Pipeline.search.Searcher.timing_closed then "closed"
     else "NOT closed")
    (Ir.n_insts design) design.Ir.n_nets
    (Stats.of_design design lib).Stats.area_um2
    last.Pipeline.attempt_cache.Eval_cache.hits
    last.Pipeline.attempt_cache.Eval_cache.misses
    (String.concat ""
       (List.map
          (fun t -> Printf.sprintf "  - %s\n" (Searcher.technique_name t))
          a.Pipeline.search.Searcher.applied))

let verify_txt (a : Pipeline.artifact) =
  Printf.sprintf
    "spec: %s\nverified: %d random MAC batches per weight copy (%d copies) \
     against the golden model, seed 0x%X\n"
    (Spec.describe a.Pipeline.spec)
    Pipeline.verify_batches a.Pipeline.macro.Macro_rtl.cfg.Macro_rtl.mcr
    Pipeline.verify_seed

let sta_txt (r : Pipeline.run) =
  let so = r.Pipeline.artifact.Pipeline.signoff in
  Printf.sprintf
    "post-layout crit: %.1f ps\narea: %.4f mm2\nwirelength: %.1f mm\n\
     DRC violations: %d\nLVS: %s\n%s"
    so.Post_layout.sta.Sta.crit_ps so.Post_layout.area_mm2
    so.Post_layout.total_wirelength_mm
    (List.length so.Post_layout.drc_violations)
    (if so.Post_layout.lvs.Lvs.clean then "clean" else "DIRTY")
    (describe_eco (last_attempt r).Pipeline.attempt_eco)

let power_txt (a : Pipeline.artifact) =
  let p = a.Pipeline.power in
  Printf.sprintf "total: %.4f mW @ %.0f MHz, %.2f V\n" (p.Power.total_w *. 1e3)
    (a.Pipeline.spec.Spec.mac_freq_hz /. 1e6)
    a.Pipeline.spec.Spec.vdd
  ^ String.concat ""
      (List.map
         (fun (name, w) -> Printf.sprintf "  %-16s %.4f mW\n" name (w *. 1e3))
         p.Power.by_subcircuit)

let metrics_txt (a : Pipeline.artifact) =
  let m = a.Pipeline.metrics in
  Printf.sprintf
    "crit_ps: %.1f\nfmax_ghz: %.3f\npower_w: %.6f\narea_mm2: %.6f\n\
     tops: %.4f\ntops_per_w: %.2f\ntops_per_mm2: %.2f\nops_norm: %.0f\n\
     timing_closed: %b\n"
    m.Pipeline.crit_ps m.Pipeline.fmax_ghz m.Pipeline.power_w
    m.Pipeline.area_mm2 m.Pipeline.tops m.Pipeline.tops_per_w
    m.Pipeline.tops_per_mm2 m.Pipeline.ops_norm a.Pipeline.timing_closed

(** [files lib r] — everything a compile hands back, as [(file name,
    contents)] in write order: the macro's views (gate-level netlist,
    placed DEF, LIB/LEF of the cell library, this report) and one
    summary per pipeline stage. [syndcim compile -o DIR] writes exactly
    these. *)
let files lib (r : Pipeline.run) : (string * string) list =
  let a = r.Pipeline.artifact in
  let design = a.Pipeline.macro.Macro_rtl.design in
  [
    ("netlist.v", Verilog.stats_header design ^ Verilog.to_string design);
    ( "placement.def",
      Def_writer.to_string lib a.Pipeline.signoff.Post_layout.placement );
    ("macro.lib", Liberty.lib_text lib);
    ("macro.lef", Liberty.lef_text lib);
    ("report.txt", to_string lib a);
    ("search.txt", search_txt lib r);
    ("verify.txt", verify_txt a);
    ("sta.txt", sta_txt r);
    ("power.txt", power_txt a);
    ("metrics.txt", metrics_txt a);
  ]

(** Paper Figure 8: the Pareto frontier of SynDCIM-generated designs for
    the spec H = W = 64, MCR = 2, INT4/8 + FP4/8, MAC and weight update at
    800 MHz @ 0.9 V, with baseline compilers for comparison.

    The MSO searcher is swept over every PPA preference; all
    timing-meeting visited points form the cloud, its (power, area)
    non-dominated subset the frontier. Four representative designs (the
    per-preference winners) are taken through the full back-end, exactly
    like the paper implements four selected points into layouts. *)

type selected = {
  preference : string;
  summary : Pipeline.summary;
      (** metrics-level result: served from the persistent compile cache
          when [run] is given one *)
}

type result = {
  frontier : Design_point.t list;
  cloud : Design_point.t list;
  implemented : selected list;
  baseline_points : (string * Design_point.t) list;
  cache : Eval_cache.stats;
      (** hit/miss counters of the sweep's shared evaluation cache *)
}

(** [run ?jobs ?trace ?disk_cache ctx] — the sweep fans out over a
    domain pool and the four selected designs go through the staged
    pipeline in parallel as well; each back-end compile searches its own
    configuration, so they share no mutable state. Jobs and the
    persistent compile cache default to the context's values;
    [disk_cache] overrides the latter so a repeated harness run can
    serve the four implemented designs straight from a dedicated
    cache. *)
let run ?jobs ?trace ?disk_cache (ctx : Ctx.t) =
  let jobs = match jobs with Some j -> Some j | None -> Ctx.jobs ctx in
  let disk_cache =
    match disk_cache with Some c -> Some c | None -> Ctx.cache ctx
  in
  let spec = Spec.fig8 in
  let cache = Eval_cache.create () in
  let frontier, cloud =
    Searcher.pareto_sweep ?jobs ~cache (Ctx.lib ctx) (Ctx.scl ctx) spec
  in
  let implemented =
    Pool.parallel_map ?jobs
      (fun preference ->
        {
          preference = Spec.preference_name preference;
          summary =
            (match
               Pipeline.run_cached ?cache:disk_cache
                 (Ctx.without_cache ctx)
                 { spec with Spec.preference }
             with
            | Ok s -> s
            | Error d -> raise (Diag.Failed d));
        })
      [
        Spec.Prefer_power; Spec.Prefer_area; Spec.Prefer_performance;
        Spec.Balanced;
      ]
  in
  let baseline_points = Baselines.all ?trace ctx spec in
  {
    frontier;
    cloud;
    implemented;
    baseline_points;
    cache = Eval_cache.stats cache;
  }

let point_row label (p : Design_point.t) =
  [
    label;
    Adder_tree.topology_name p.Design_point.cfg.Macro_rtl.tree;
    Shift_adder.kind_name p.Design_point.cfg.Macro_rtl.sa_kind;
    Table.f (Design_point.power_w p *. 1e3);
    Table.f ~digits:4 (p.Design_point.area_um2 /. 1e6);
    Table.f ~digits:0 p.Design_point.crit_ps;
    (if p.Design_point.meets_mac then "meets" else "violates");
  ]

let print (r : result) =
  print_endline
    "Figure 8 — Pareto frontier of generated designs (pre-layout points)";
  let rows =
    List.map (point_row "frontier") r.frontier
    @ List.map (fun (n, p) -> point_row ("baseline: " ^ n) p)
        r.baseline_points
  in
  Table.print
    (Table.make
       ~header:
         [
           "kind"; "tree"; "S&A"; "power (mW)"; "area (mm2)"; "crit (ps)";
           "timing";
         ]
       rows);
  Printf.printf "cloud: %d timing-meeting points visited, %d on frontier\n"
    (List.length r.cloud) (List.length r.frontier);
  print_endline (Eval_cache.describe r.cache);
  print_endline "implemented (post-layout, as the paper's four selections):";
  let rows =
    List.map
      (fun s ->
        let m = s.summary.Pipeline.sum_metrics in
        [
          s.preference;
          Table.f (m.Pipeline.power_w *. 1e3);
          Table.f ~digits:4 m.Pipeline.area_mm2;
          Table.f m.Pipeline.fmax_ghz;
          (if s.summary.Pipeline.sum_timing_closed then "closed"
           else "missed");
        ])
      r.implemented
  in
  Table.print
    (Table.make
       ~header:
         [ "preference"; "power (mW)"; "area (mm2)"; "fmax (GHz)"; "timing" ]
       rows)
